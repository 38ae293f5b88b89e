"""Periodic detector patterns on the infinite square, triangular, and king
grids: exact-rational density, certification of the 3-domination and
3-distinguishing conditions, share diagnostics, and exhaustive search over
small period lattices.

A pattern is a rank-2 integer lattice plus detector residues.  Certification
is a finite computation: domination is checked per residue class, and
distinguishing only needs the displacements at grid distance <= 2, because
once every vertex is 3-dominated, two vertices at distance >= 3 have
disjoint dominator sets whose symmetric difference is already >= 6.  Pair
checks compare dominator sets as concrete plane points, so lattices with
very short periods are handled, not excluded.

The search screens each candidate detector set with requirement masks,
built as it needs them, instead of certifying it.  Every requirement of
certification is a multiset of residue classes: domination of u needs 3
detectors in N(u), and distinguishing u from u + delta needs 3 in
N(u) symmetric-difference N(u + delta), both taken as plane points (the
detectors of that difference are exactly du ^ dv).  A multiset is stored as
one bitmask per multiplicity level, mask k holding the classes that occur at
least k times (k <= 3: three hits meet any requirement), so a candidate
passes iff the popcounts of its detector mask against the levels sum to 3 or
more.  The screen is therefore exact, and certification confirms only the
pattern a lattice returns.  A lattice's masks are built one requirement
shape at a time, the next only when a candidate meets all those built so
far, and one shape serves delta and -delta: N(0) ^ N(-delta) is
N(0) ^ N(delta) moved by -delta.  The search also visits one lattice per
orbit of the grid's point group: an automorphism fixing the origin maps
certified patterns on L to certified patterns of the same density on its
image, so only the image that comes first in the enumeration order can hold
the first pattern of minimum density."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
import itertools
from operator import or_

from .graph import Graph, ParseError, int_reader

SQR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))
TRI_OFFSETS = SQR_OFFSETS + ((1, 1), (-1, -1))
KNG_OFFSETS = SQR_OFFSETS + ((1, 1), (-1, -1), (1, -1), (-1, 1))


@dataclass(frozen=True)
class GridKind:
    name: str
    offsets: tuple[tuple[int, int], ...]

    def displacements_within_two(self) -> tuple[tuple[int, int], ...]:
        """All nonzero displacements reachable by one or two neighbour steps."""
        out = set(self.offsets)
        for o1, o2 in itertools.product(self.offsets, repeat=2):
            d = (o1[0] + o2[0], o1[1] + o2[1])
            if d != (0, 0):
                out.add(d)
        return tuple(sorted(out))

    @cached_property
    def requirement_shapes(self):
        # the offsets each certification requirement counts: N(0), then
        # N(0) symmetric-difference N(delta) per +-delta pair within two
        offsets = set(self.offsets)
        return [self.offsets] + [tuple(offsets ^ {(dx + ox, dy + oy) for ox, oy in offsets})
                                 for dx, dy in self.displacements_within_two()
                                 if (dx, dy) > (0, 0)]


SQR = GridKind("SQR", SQR_OFFSETS)
TRI = GridKind("TRI", TRI_OFFSETS)
KNG = GridKind("KNG", KNG_OFFSETS)

GRID_KINDS = {"SQR": SQR, "TRI": TRI, "KNG": KNG}


class PatternError(ValueError):
    """Invalid periodic pattern data."""


# Certification costs about 400 reductions per residue class, so this keeps
# grid-certify and grid-share on one pattern within seconds.
MAX_PATTERN_INDEX = 10_000
# A rendering is window**2 characters, one reduction each.
MAX_RENDER_WINDOW = 1_000


def hermite_form(basis) -> tuple[tuple[int, int], tuple[int, int]]:
    """The basis ((A,0),(C,B)) with A, B > 0 and 0 <= C < A of the lattice
    spanned by `basis`, as listed by `hermite_bases`."""
    (a1, a2), (b1, b2) = basis
    # Euclid on the second coordinates; each step is unimodular
    while b2:
        q = a2 // b2
        a1, a2, b1, b2 = b1, b2, a1 - q * b1, a2 - q * b2
    if a2 < 0:
        a1, a2 = -a1, -a2
    width = abs(b1)
    return ((width, 0), (a1 % width, a2))


@dataclass(frozen=True)
class PeriodicPattern:
    """Detector set invariant under the lattice spanned by basis vectors
    a = (a1,a2) and b = (b1,b2); `detectors` holds one representative per
    detector residue class."""
    kind: GridKind
    basis: tuple[tuple[int, int], tuple[int, int]]
    detectors: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.index == 0:
            raise PatternError("basis vectors are linearly dependent")
        reduced = {self.reduce(p) for p in self.detectors}
        if len(reduced) != len(self.detectors):
            raise PatternError("detector residues are not distinct modulo the lattice")
        object.__setattr__(self, "detectors", frozenset(reduced))

    @property
    def index(self) -> int:
        (a1, a2), (b1, b2) = self.basis
        return abs(a1 * b2 - a2 * b1)

    def reduce(self, point: tuple[int, int]) -> tuple[int, int]:
        """Canonical representative of a point modulo the lattice: the copy
        inside the half-open fundamental parallelogram."""
        (a1, a2), (b1, b2) = self.basis
        det = a1 * b2 - a2 * b1
        x, y = point
        # (x,y) = s*a + t*b with rational s,t; subtract floor(s)a + floor(t)b
        # (Python floor division floors for negative determinants as well)
        s_num = x * b2 - y * b1
        t_num = a1 * y - a2 * x
        s = s_num // det
        t = t_num // det
        return (x - s * a1 - t * b1, y - s * a2 - t * b2)

    def is_detector(self, point: tuple[int, int]) -> bool:
        return self.reduce(point) in self.detectors

    def residue_classes(self) -> list[tuple[int, int]]:
        """One representative per residue class, sorted.  The points
        0 <= x < A, 0 <= y < B of the Hermite form ((A,0),(C,B)) lie in
        distinct classes, A*B of them."""
        if self.index > MAX_PATTERN_INDEX:
            raise PatternError(f"lattice index {self.index} exceeds {MAX_PATTERN_INDEX}")
        (width, _), (_, height) = hermite_form(self.basis)
        return sorted(self.reduce((x, y)) for x in range(width) for y in range(height))

    def translate(self, vector: tuple[int, int]) -> "PeriodicPattern":
        dx, dy = vector
        return PeriodicPattern(self.kind, self.basis,
                               frozenset((x + dx, y + dy) for x, y in self.detectors))

    def change_basis(self, unimodular: tuple[tuple[int, int], tuple[int, int]]) -> "PeriodicPattern":
        """Rewrite with basis (alpha*a + beta*b, gamma*a + delta*b); the
        transform must have determinant +-1 so the lattice is unchanged."""
        (al, be), (ga, de) = unimodular
        if abs(al * de - be * ga) != 1:
            raise PatternError("basis change must be unimodular")
        (a1, a2), (b1, b2) = self.basis
        new_basis = ((al * a1 + be * b1, al * a2 + be * b2),
                     (ga * a1 + de * b1, ga * a2 + de * b2))
        return PeriodicPattern(self.kind, new_basis, self.detectors)


def pattern_density(p: PeriodicPattern) -> Fraction:
    """Exact detector fraction |detectors| / lattice index."""
    return Fraction(len(p.detectors), p.index)


@dataclass(frozen=True)
class GridCertificate:
    ok: bool
    domination: dict | None = None            # residue class -> dominator count
    failing_class: tuple[int, int] | None = None
    failing_displacement: tuple[int, int] | None = None
    value: int | None = None

    def __bool__(self):
        return self.ok


def certify_pattern(p: PeriodicPattern) -> GridCertificate:
    """Certify the pattern as an error-correcting detector set of the whole
    infinite grid via the finite residue computation described in the module
    docstring."""
    classes = p.residue_classes()
    @cache                       # once per plane point, for this call only
    def dominated_by(point):
        x, y = point
        return frozenset((x + ox, y + oy) for ox, oy in p.kind.offsets
                         if p.is_detector((x + ox, y + oy)))
    domination = {}
    for u in classes:
        domination[u] = dom = len(dominated_by(u))
        if dom < 3:
            return GridCertificate(False, domination=domination,
                                   failing_class=u, value=dom)
    displacements = p.kind.displacements_within_two()
    for u in classes:
        du = dominated_by(u)
        for delta in displacements:
            value = len(du ^ dominated_by((u[0] + delta[0], u[1] + delta[1])))
            if value < 3:
                return GridCertificate(False, domination=domination,
                                       failing_class=u,
                                       failing_displacement=delta, value=value)
    return GridCertificate(True, domination=domination)


def detector_shares(p: PeriodicPattern) -> list[Fraction]:
    """Share of each detector class, in sorted detector order: the share of
    a detector v is the sum of 1/dom(u) over its grid neighbours u.
    Requires a certified pattern so every domination count is positive."""
    cert = certify_pattern(p)
    if not cert.ok:
        raise PatternError("share is defined for certified patterns only")
    dom = cert.domination
    return [sum((Fraction(1, dom[p.reduce((x + ox, y + oy))])
                 for ox, oy in p.kind.offsets), Fraction(0))
            for x, y in sorted(p.detectors)]


# -- search ----------------------------------------------------------------------

MAX_SEARCH_INDEX = 18


def hermite_bases(index: int):
    """Canonical sublattice bases of a given index: (a,0), (c,b) with
    a*b = index and 0 <= c < a."""
    for a in range(1, index + 1):
        if index % a:
            continue
        b = index // a
        for c in range(a):
            yield ((a, 0), (c, b))


def point_group(kind: GridKind) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The integer matrices ((p, q), (r, s)), (x, y) -> (px + qy, rx + sy),
    that map the grid's neighbour offsets onto themselves: its automorphisms
    fixing the origin.  Its columns are the images of the offsets (1, 0)
    and (0, 1), so its entries are in {-1, 0, 1}."""
    offsets = set(kind.offsets)
    return [((p, q), (r, s)) for p, q, r, s in itertools.product((-1, 0, 1), repeat=4)
            if abs(p * s - q * r) == 1
            and {(p * x + q * y, r * x + s * y) for x, y in offsets} == offsets]


def _first_in_orbit(basis, group) -> bool:
    """True iff no image of the lattice under `group` comes before it in
    `hermite_bases` order, which sorts bases of one index by (A, C)."""
    (width, _), (shift, _) = basis
    for (p, q), (r, s) in group:
        image = tuple((p * x + q * y, r * x + s * y) for x, y in basis)
        (w, _), (c, _) = hermite_form(image)
        if (w, c) < (width, shift):
            return False
    return True


def search_patterns(kind: GridKind, max_index: int) -> PeriodicPattern | None:
    """Certified pattern of minimum density over all lattices of index up to
    max_index and all detector subsets; ties prefer the smaller index, then
    the earlier Hermite basis, then the lexicographically first detector set.

    Only subsets containing residue (0,0) are tried: every certified pattern
    has a certified translate whose detector list starts at the least
    residue, and that translate is lexicographically no larger.  Only the
    first lattice of each point-group orbit is searched: the others reach
    the same density and come later in the tie order.  Each lattice is
    searched only below the best density so far, so the first lattice of
    least density keeps its pattern."""
    if not 1 <= max_index <= MAX_SEARCH_INDEX:
        raise PatternError(f"exhaustive search supports 1 <= index <= {MAX_SEARCH_INDEX}")
    group = point_group(kind)
    best = None
    for index in range(1, max_index + 1):
        for basis in hermite_bases(index):
            if _first_in_orbit(basis, group):
                best = _search_basis(kind, basis, best and pattern_density(best)) or best
    return best


def requirement_batches(p: PeriodicPattern):
    """The distinct certification requirements of the lattice of `p`, one
    list per requirement shape, of those no earlier shape gave; a shape is
    built only when its list is asked for.  A requirement is masks (m1, m2, m3) over the indices of
    `p.residue_classes()`, mk holding the classes that occur at least k
    times in its multiset: a detector mask D certifies iff every
    requirement has sum((m & D).bit_count() for m in masks) >= 3.
    Multiplicities are capped at 3, which meets the requirement on its own."""
    classes = p.residue_classes()
    bit = {c: 1 << i for i, c in enumerate(classes)}
    # offsets congruent modulo the lattice meet in one class from every
    # class, so each shape's multiplicities are counted once, at the origin
    column, seen = {}, set()    # column[r]: the bit of c + r per class c
    for shape in p.kind.requirement_shapes:
        # level k of every class at once ORs the columns of residues met > k times
        levels = [[0] * len(classes)] * 3
        for r, count in Counter(map(p.reduce, shape)).items():
            if r not in column:
                column[r] = [bit[p.reduce((x + r[0], y + r[1]))] for x, y in classes]
            for k in range(min(count, 3)):
                levels[k] = map(or_, levels[k], column[r])
        batch = [req for req in dict.fromkeys(zip(*levels)) if req not in seen]
        seen.update(batch)
        yield batch


def requirement_masks(p: PeriodicPattern) -> list[tuple[int, int, int]]:
    """Every requirement of `requirement_batches`, in its order."""
    return [req for batch in requirement_batches(p) for req in batch]


def _search_basis(kind: GridKind, basis, below=None) -> PeriodicPattern | None:
    """Lowest-density certified pattern on one lattice, if below `below`,
    detectors tried in size-then-lexicographic order and screened with
    `requirement_batches`; only the pattern returned is certified."""
    probe = PeriodicPattern(kind, basis, frozenset())
    index = probe.index
    # 3*index <= |detectors|*|offsets| as every class needs 3 detector
    # neighbours; and size/index < below iff size < ceil(below*index)
    sizes = range(-(-3 * index // len(kind.offsets)),
                  index + 1 if below is None else -(-index * below // 1))
    classes = probe.residue_classes()
    batches = requirement_batches(probe)
    requirements = []
    for size in sizes:
        for combo in itertools.combinations(range(1, index), size - 1):
            detmask = 1
            for i in combo:
                detmask |= 1 << i
            for k, (m1, m2, m3) in enumerate(requirements):
                if ((m1 & detmask).bit_count() + (m2 & detmask).bit_count()
                        + (m3 & detmask).bit_count()) < 3:
                    # consecutive candidates mostly fail the same requirement
                    if k:
                        requirements.insert(0, requirements.pop(k))
                    break
            else:
                # every requirement built so far is met: build the next
                # shapes until one fails the candidate, newest first
                for batch in batches:
                    requirements[:0] = batch
                    if any((m1 & detmask).bit_count() + (m2 & detmask).bit_count()
                           + (m3 & detmask).bit_count() < 3 for m1, m2, m3 in batch):
                        break
                else:
                    pat = PeriodicPattern(kind, basis,
                                          frozenset([classes[0]] + [classes[i] for i in combo]))
                    if not certify_pattern(pat).ok:
                        raise RuntimeError(
                            f"requirement masks passed an uncertified pattern on {basis}")
                    return pat
    return None


# -- torus cross-check ------------------------------------------------------------


def torus_graph(p: PeriodicPattern, repetitions: int = 20):
    """Finite quotient graph of the grid by `repetitions` times the pattern
    lattice, with the detector set mapped along.  Local structure within
    radius 2 matches the plane for repetitions >= 5, so the finite verifier
    restricted to distance <= 2 pairs agrees with certification.  The
    quotient has index * repetitions**2 vertices, at most MAX_PATTERN_INDEX."""
    (a1, a2), (b1, b2) = p.basis
    big = PeriodicPattern(p.kind, ((a1 * repetitions, a2 * repetitions),
                                   (b1 * repetitions, b2 * repetitions)),
                          frozenset())
    classes = big.residue_classes()
    ids = {c: i for i, c in enumerate(classes)}
    edges = set()
    for c in classes:
        for ox, oy in p.kind.offsets:
            d = big.reduce((c[0] + ox, c[1] + oy))
            if ids[c] != ids[d]:
                edges.add((min(ids[c], ids[d]), max(ids[c], ids[d])))
    detectors = {ids[c] for c in classes if p.is_detector(c)}
    return Graph(len(classes), edges), detectors


# -- pattern file format -----------------------------------------------------------
#
# line 1: "grid <SQR|TRI|KNG>"; line 2: "basis <a1> <a2> <b1> <b2>";
# then one "detector <x> <y>" line per residue; '#' comments allowed.


def parse_pattern(text: str) -> PeriodicPattern:
    kind = None
    basis = None
    detectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        to_int = int_reader(line)
        if parts[0] == "grid":
            if kind is not None:
                raise ParseError(f"line {lineno}: duplicate grid line")
            if len(parts) != 2 or parts[1] not in GRID_KINDS:
                raise ParseError(f"line {lineno}: bad grid line {line!r}")
            kind = GRID_KINDS[parts[1]]
        elif parts[0] == "basis":
            if basis is not None:
                raise ParseError(f"line {lineno}: duplicate basis line")
            if len(parts) != 5:
                raise ParseError(f"line {lineno}: basis needs 4 integers")
            try:
                a1, a2, b1, b2 = map(to_int, parts[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad basis integers") from None
            basis = ((a1, a2), (b1, b2))
        elif parts[0] == "detector":
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: detector needs 2 integers")
            try:
                detectors.append((to_int(parts[1]), to_int(parts[2])))
            except ValueError:
                raise ParseError(f"line {lineno}: bad detector integers") from None
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if kind is None or basis is None:
        raise ParseError("pattern needs 'grid' and 'basis' lines")
    return PeriodicPattern(kind, basis, frozenset(detectors))


def serialize_pattern(p: PeriodicPattern) -> str:
    (a1, a2), (b1, b2) = p.basis
    lines = [f"grid {p.kind.name}", f"basis {a1} {a2} {b1} {b2}"]
    lines.extend(f"detector {x} {y}" for x, y in sorted(p.detectors))
    return "\n".join(lines) + "\n"


def render_pattern(p: PeriodicPattern, window: int) -> str:
    """Character grid for the square window [0,window) x [0,window); rows
    are printed top-down from y = window-1, detectors as '#'."""
    if window < 1:
        raise PatternError("window must be at least 1")
    if window > MAX_RENDER_WINDOW:
        raise PatternError(f"window must be at most {MAX_RENDER_WINDOW}")
    rows = []
    for y in range(window - 1, -1, -1):
        rows.append("".join("#" if p.is_detector((x, y)) else "."
                            for x in range(window)))
    return "\n".join(rows) + "\n"

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from errold.detection import verify, ERR_OLD
from errold.grids import (SQR, TRI, KNG, PeriodicPattern, PatternError, GridCertificate,
                          MAX_PATTERN_INDEX, MAX_RENDER_WINDOW,
                          pattern_density, certify_pattern, detector_shares,
                          hermite_bases, hermite_form, point_group,
                          requirement_masks, search_patterns, _search_basis,
                          GRID_KINDS,
                          torus_graph, parse_pattern, serialize_pattern,
                          render_pattern)

PATTERN_DIR = Path(__file__).resolve().parent.parent / "patterns"


def saved_patterns():
    return {name: parse_pattern((PATTERN_DIR / f"{name}.pattern").read_text())
            for name in ("sqr_7_8", "tri_4_7", "kng_4_9")}


UNIMODULAR = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 0)),
              ((1, -1), (0, 1)), ((2, 1), (1, 1)), ((1, 0), (0, -1))]


def random_pattern(rng, kind=None, max_dim=4):
    kind = kind or rng.choice([SQR, TRI, KNG])
    a = rng.randint(1, max_dim)
    b = rng.randint(1, max_dim)
    c = rng.randint(0, a - 1)
    probe = PeriodicPattern(kind, ((a, 0), (c, b)), frozenset())
    classes = probe.residue_classes()
    k = rng.randint(1, len(classes))
    return PeriodicPattern(kind, ((a, 0), (c, b)), frozenset(rng.sample(classes, k)))


# -- basics -----------------------------------------------------------------------

def test_offsets():
    assert len(SQR.offsets) == 4 and len(TRI.offsets) == 6 and len(KNG.offsets) == 8
    for kind in (SQR, TRI, KNG):
        assert all((-dx, -dy) in kind.offsets for dx, dy in kind.offsets)
    # king displacements at distance <= 2 are the full 5x5 box minus origin
    assert len(KNG.displacements_within_two()) == 24


def test_density_examples():
    p = PeriodicPattern(SQR, ((8, 0), (0, 1)),
                        frozenset((x, 0) for x in range(7)))
    assert pattern_density(p) == Fraction(7, 8)
    full = PeriodicPattern(TRI, ((2, 0), (0, 2)),
                           frozenset([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert pattern_density(full) == 1
    kng = PeriodicPattern(KNG, ((3, 0), (0, 3)),
                          frozenset([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert pattern_density(kng) == Fraction(4, 9)


def test_invalid_patterns():
    with pytest.raises(PatternError, match="dependent"):
        PeriodicPattern(SQR, ((2, 0), (4, 0)), frozenset([(0, 0)]))
    with pytest.raises(PatternError, match="distinct"):
        PeriodicPattern(SQR, ((2, 0), (0, 1)), frozenset([(0, 0), (2, 0)]))


def test_reduce_canonicalises():
    p = PeriodicPattern(SQR, ((3, 0), (1, 2)), frozenset([(0, 0)]))
    for x in range(-5, 6):
        for y in range(-5, 6):
            r = p.reduce((x, y))
            assert p.reduce(r) == r
    # residues of detectors are stored canonically
    q = PeriodicPattern(SQR, ((3, 0), (1, 2)), frozenset([(30, -14)]))
    assert q.detectors == frozenset([q.reduce((30, -14))])


def test_residue_class_count():
    rng = random.Random(40)
    for _ in range(40):
        p = random_pattern(rng)
        assert len(p.residue_classes()) == p.index


def test_hermite_form():
    """The Hermite form spans the same lattice, is listed by hermite_bases,
    and the residues enumerated from it equal a scan of the index square."""
    rng = random.Random(46)
    for _ in range(200):
        p = random_pattern(rng)
        for _ in range(rng.randint(0, 3)):
            p = p.change_basis(rng.choice(UNIMODULAR))
        hnf = hermite_form(p.basis)
        assert hnf in hermite_bases(p.index)
        q = PeriodicPattern(p.kind, hnf, frozenset())
        assert all(p.reduce(v) == (0, 0) for v in hnf)
        assert all(q.reduce(v) == (0, 0) for v in p.basis)
        square = {p.reduce((x, y)) for x in range(p.index) for y in range(p.index)}
        assert p.residue_classes() == sorted(square)


def test_index_guard():
    side = int(MAX_PATTERN_INDEX ** 0.5) + 1
    p = PeriodicPattern(SQR, ((side, 0), (0, side)), frozenset([(0, 0)]))
    with pytest.raises(PatternError, match="index"):
        p.residue_classes()
    with pytest.raises(PatternError, match="index"):
        certify_pattern(p)


# -- certification -------------------------------------------------------------------

def test_certify_all_detectors_square():
    p = PeriodicPattern(SQR, ((1, 0), (0, 1)), frozenset([(0, 0)]))
    cert = certify_pattern(p)
    assert cert.ok and cert.domination[(0, 0)] == 4


def test_certify_half_density_fails_domination():
    p = PeriodicPattern(SQR, ((2, 0), (0, 2)), frozenset([(0, 0), (1, 1)]))
    cert = certify_pattern(p)
    assert not cert.ok and cert.value < 3 and cert.failing_displacement is None


def test_saved_patterns_certify():
    expected = {"sqr_7_8": Fraction(7, 8), "tri_4_7": Fraction(4, 7),
                "kng_4_9": Fraction(4, 9)}
    for name, pat in saved_patterns().items():
        assert certify_pattern(pat).ok, name
        assert pattern_density(pat) == expected[name]


def mask_screen_passes(p):
    index = {c: i for i, c in enumerate(p.residue_classes())}
    detmask = sum(1 << index[c] for c in p.detectors)
    return all(sum((m & detmask).bit_count() for m in masks) >= 3
               for masks in requirement_masks(p))


def reference_requirement_masks(p):
    """requirement_masks with every shape point reduced from every class by
    PeriodicPattern.reduce: the reference for multiplicities counted once,
    at the origin."""
    offsets = set(p.kind.offsets)
    shapes = [p.kind.offsets] + [
        tuple(offsets ^ {(dx + ox, dy + oy) for ox, oy in offsets})
        for dx, dy in p.kind.displacements_within_two()]
    near = set().union(*shapes)
    classes = p.residue_classes()
    cindex = {c: i for i, c in enumerate(classes)}
    requirements = set()
    for x, y in classes:
        bit = {(dx, dy): 1 << cindex[p.reduce((x + dx, y + dy))] for dx, dy in near}
        for shape in shapes:
            masks = [0, 0, 0]
            for point in shape:
                b = bit[point]
                for level, m in enumerate(masks):
                    if not m & b:
                        masks[level] = m | b
                        break
            requirements.add(tuple(masks))
    return requirements


def test_requirement_masks_match_reference():
    """Every Hermite basis up to index 12, then random bases that are not
    Hermite forms, on all three grids."""
    patterns = [PeriodicPattern(kind, basis, frozenset()) for kind in (SQR, TRI, KNG)
                for index in range(1, 13) for basis in hermite_bases(index)]
    rng = random.Random(49)
    for _ in range(150):
        p = random_pattern(rng, max_dim=5)
        for _ in range(rng.randint(1, 4)):
            p = p.change_basis(rng.choice(UNIMODULAR))
        patterns.append(p)
    assert sum(p.basis != hermite_form(p.basis) for p in patterns) > 100
    for p in patterns:
        masks = requirement_masks(p)
        assert len(set(masks)) == len(masks)
        assert set(masks) == reference_requirement_masks(p), (p.kind.name, p.basis)


def test_requirement_masks_match_certify():
    """The mask screen accepts exactly the certified patterns: every subset
    on every lattice of index <= 4, where offsets fold onto few classes,
    then random patterns on larger lattices."""
    checked = certified = 0
    for kind in (SQR, TRI, KNG):
        for index in range(1, 5):
            for basis in hermite_bases(index):
                classes = PeriodicPattern(kind, basis, frozenset()).residue_classes()
                for size in range(1, index + 1):
                    for dets in itertools.combinations(classes, size):
                        p = PeriodicPattern(kind, basis, frozenset(dets))
                        ok = certify_pattern(p).ok
                        assert mask_screen_passes(p) == ok, (kind.name, basis, dets)
                        checked += 1
                        certified += ok
    rng = random.Random(47)
    for _ in range(600):
        p = random_pattern(rng, max_dim=5)
        q = PeriodicPattern(p.kind, p.basis,
                            p.detectors | frozenset(rng.sample(p.residue_classes(), p.index // 2)))
        for pat in (p, q):
            ok = certify_pattern(pat).ok
            assert mask_screen_passes(pat) == ok, serialize_pattern(pat)
            checked += 1
            certified += ok
    assert certified > 100 and checked - certified > 100


def test_requirement_shapes_one_per_pair():
    """N(0) and one shape per +-delta pair: no shape is a translate of
    another, since the shape of -delta is that of delta moved by -delta."""
    for kind, count in ((SQR, 7), (TRI, 10), (KNG, 13)):
        shapes = kind.requirement_shapes
        assert len(shapes) == count == 1 + len(kind.displacements_within_two()) // 2
        anchored = {frozenset((x - min(s)[0], y - min(s)[1]) for x, y in s) for s in shapes}
        assert len(anchored) == count


def test_search_builds_shapes_on_demand(monkeypatch):
    """Per lattice that builds any shape: the shapes it has and those it
    builds, counted by the yields of `requirement_batches`."""
    from errold import grids
    built, total = [], []
    batches = grids.requirement_batches

    def counting(p):
        for k, batch in enumerate(batches(p)):
            if not k:
                built.append(0)
                total.append(len(p.kind.requirement_shapes))
            built[-1] += 1
            yield batch
    monkeypatch.setattr(grids, "requirement_batches", counting)
    for kind, max_index in ((SQR, 8), (TRI, 7), (KNG, 13)):
        search_patterns(kind, max_index)
    assert 3 * sum(built) < sum(total)
    # no candidate of size 3 meets domination on the 2x2 square lattice
    built.clear()
    assert _search_basis(SQR, ((2, 0), (0, 2)), Fraction(1)) is None
    assert built == [1]


def reference_certify(p):
    """certify_pattern with every dominator set recomputed where it is
    used: the reference for its per-call memo."""
    def dominator_points(point):
        x, y = point
        return frozenset((x + ox, y + oy) for ox, oy in p.kind.offsets
                         if p.is_detector((x + ox, y + oy)))

    classes = p.residue_classes()
    domination = {}
    for u in classes:
        dom = sum(1 for ox, oy in p.kind.offsets
                  if p.is_detector((u[0] + ox, u[1] + oy)))
        domination[u] = dom
        if dom < 3:
            return GridCertificate(False, domination=domination,
                                   failing_class=u, value=dom)
    for u in classes:
        du = dominator_points(u)
        for delta in p.kind.displacements_within_two():
            value = len(du ^ dominator_points((u[0] + delta[0], u[1] + delta[1])))
            if value < 3:
                return GridCertificate(False, domination=domination,
                                       failing_class=u,
                                       failing_displacement=delta, value=value)
    return GridCertificate(True, domination=domination)


def test_certify_matches_reference():
    """The whole certificate, failing class, displacement and value
    included, on random patterns, denser copies of them, and both under
    bases that are not Hermite forms."""
    rng = random.Random(48)
    outcomes = {"ok": 0, "domination": 0, "distinguishing": 0}
    for _ in range(400):
        p = random_pattern(rng, max_dim=5)
        q = PeriodicPattern(p.kind, p.basis,
                            p.detectors | frozenset(rng.sample(p.residue_classes(), p.index // 2)))
        for pat in (p, q):
            for _ in range(rng.randint(0, 3)):
                pat = pat.change_basis(rng.choice(UNIMODULAR))
            cert = certify_pattern(pat)
            assert cert == reference_certify(pat), serialize_pattern(pat)
            outcomes["ok" if cert.ok else "domination" if cert.failing_displacement is None
                     else "distinguishing"] += 1
    assert min(outcomes.values()) > 30, outcomes


def test_certify_agrees_with_torus_verifier():
    """Independent cross-check: build a finite torus quotient and run the
    graph verifier restricted to distance <= 2 pairs."""
    rng = random.Random(41)
    agree = 0
    for _ in range(120):
        p = random_pattern(rng, max_dim=3)
        g, detectors = torus_graph(p, repetitions=7)
        assert verify(g, detectors, ERR_OLD).ok == certify_pattern(p).ok
        agree += 1
    assert agree == 120


def test_saved_patterns_on_large_torus():
    for name, pat in saved_patterns().items():
        g, detectors = torus_graph(pat, repetitions=20)
        assert g.n == 400 * pat.index
        assert verify(g, detectors, ERR_OLD).ok, name


def test_translation_invariance():
    rng = random.Random(42)
    for _ in range(250):
        p = random_pattern(rng)
        t = (rng.randint(-6, 6), rng.randint(-6, 6))
        q = p.translate(t)
        assert pattern_density(p) == pattern_density(q)
        assert certify_pattern(p).ok == certify_pattern(q).ok


def test_basis_invariance():
    rng = random.Random(43)
    for _ in range(250):
        p = random_pattern(rng)
        q = p.change_basis(rng.choice(UNIMODULAR))
        assert q.index == p.index
        assert pattern_density(q) == pattern_density(p)
        assert certify_pattern(q).ok == certify_pattern(p).ok
    with pytest.raises(PatternError, match="unimodular"):
        p.change_basis(((2, 0), (0, 1)))


# -- shares -------------------------------------------------------------------------------

def test_share_examples():
    full = PeriodicPattern(SQR, ((1, 0), (0, 1)), frozenset([(0, 0)]))
    assert max(detector_shares(full)) == 1
    pats = saved_patterns()
    assert max(detector_shares(pats["sqr_7_8"])) >= Fraction(8, 7)    # max >= mean = 1/density


def test_share_sum_identity():
    # each class u gives dom(u) * 1/dom(u) to the shares of its dominators
    for pat in saved_patterns().values():
        assert sum(detector_shares(pat)) == pat.index
    rng = random.Random(44)
    certified = 0
    for _ in range(600):
        p = random_pattern(rng, max_dim=3)
        if certify_pattern(p).ok:
            certified += 1
            assert sum(detector_shares(p)) == p.index
    assert certified > 40


def test_share_requires_certified():
    bad = PeriodicPattern(SQR, ((2, 0), (0, 2)), frozenset([(0, 0)]))
    with pytest.raises(PatternError, match="certified"):
        detector_shares(bad)


# -- search -------------------------------------------------------------------------------

def test_hermite_bases_complete():
    assert list(hermite_bases(4)) == [((1, 0), (0, 4)), ((2, 0), (0, 2)),
                                      ((2, 0), (1, 2)), ((4, 0), (0, 1)),
                                      ((4, 0), (1, 1)), ((4, 0), (2, 1)),
                                      ((4, 0), (3, 1))]
    # sum of divisors counts sublattices
    assert sum(1 for _ in hermite_bases(12)) == 28


def certify_loop(kind, basis):
    """Per-lattice search by certifying every candidate, in the search's
    size-then-lexicographic order: the reference for _search_basis."""
    classes = PeriodicPattern(kind, basis, frozenset()).residue_classes()
    index = len(classes)
    for size in range(max(-(-3 * index // len(kind.offsets)), 1), index + 1):
        for combo in itertools.combinations(range(1, index), size - 1):
            pat = PeriodicPattern(kind, basis,
                                  frozenset([classes[0]] + [classes[i] for i in combo]))
            if certify_pattern(pat).ok:
                return pat
    return None


SEARCH_BOUNDS = [(SQR, 8), (TRI, 7), (KNG, 11)]


@pytest.mark.parametrize("kind,max_index", SEARCH_BOUNDS, ids=lambda v: getattr(v, "name", v))
def test_search_basis_matches_certify_loop(kind, max_index):
    """Unbounded, and bounded by the lattice's own optimum (nothing is
    strictly below it) and by a density just above it."""
    for index in range(1, max_index + 1):
        for basis in hermite_bases(index):
            best = certify_loop(kind, basis)
            assert _search_basis(kind, basis) == best, basis
            if best is not None:
                assert _search_basis(kind, basis, pattern_density(best)) is None, basis
                above = pattern_density(best) + Fraction(1, 1000)
                assert _search_basis(kind, basis, above) == best, basis


@pytest.mark.parametrize("kind,max_index", SEARCH_BOUNDS, ids=lambda v: getattr(v, "name", v))
def test_orbit_skipping_matches_all_bases(kind, max_index):
    every = [_search_basis(kind, basis) for index in range(1, max_index + 1)
             for basis in hermite_bases(index)]
    assert search_patterns(kind, max_index) == min(every, key=pattern_density)


def test_point_groups():
    assert [len(point_group(k)) for k in (SQR, TRI, KNG)] == [8, 12, 8]
    for kind in (SQR, TRI, KNG):
        group = point_group(kind)
        for (p, q), (r, s) in group:
            assert {(p * x + q * y, r * x + s * y) for x, y in kind.offsets} == set(kind.offsets)
        # closed under composition
        compose = {(((a * e + b * g), (a * f + b * h)), ((c * e + d * g), (c * f + d * h)))
                   for (a, b), (c, d) in group for (e, f), (g, h) in group}
        assert compose == set(group)


def test_search_king_at_eighteen():
    """The 4/9 king pattern, with the tie order that picks it: the first
    lattice in Hermite order that reaches 4/9, and its first detector set."""
    best = search_patterns(KNG, 18)
    assert serialize_pattern(best) == (
        "grid KNG\nbasis 6 0 3 3\n"
        "detector 0 0\ndetector 1 1\ndetector 2 0\ndetector 2 2\n"
        "detector 3 1\ndetector 4 0\ndetector 4 2\ndetector 5 1\n")


@pytest.mark.parametrize("grid,max_index,pattern", [
    ("SQR", 8, "basis 4 0 1 2\ndetector 0 0\ndetector 1 0\ndetector 1 1\n"
               "detector 2 0\ndetector 2 1\ndetector 3 0\ndetector 3 1\n"),
    ("TRI", 7, "basis 7 0 3 1\ndetector 0 0\ndetector 1 0\ndetector 2 0\ndetector 4 0\n"),
    ("KNG", 13, "basis 11 0 1 1\ndetector 0 0\ndetector 1 0\ndetector 4 0\n"
                "detector 6 0\ndetector 8 0\n"),
])
def test_search_tie_order_of_benchmark_searches(grid, max_index, pattern):
    """The lattice and detector set the tie order picks, as recorded."""
    best = search_patterns(GRID_KINDS[grid], max_index)
    assert serialize_pattern(best) == f"grid {grid}\n{pattern}"


def test_search_square_small():
    best = search_patterns(SQR, 1)
    assert pattern_density(best) == 1


def test_search_square_acceptance_bound():
    best = search_patterns(SQR, 8)
    assert pattern_density(best) == Fraction(7, 8)
    assert certify_pattern(best).ok


def test_search_triangular_acceptance_bound():
    best = search_patterns(TRI, 7)
    assert pattern_density(best) == Fraction(4, 7)
    assert certify_pattern(best).ok


def test_search_cap():
    for max_index in (40, 0, -3):
        with pytest.raises(PatternError, match="index"):
            search_patterns(SQR, max_index)


# -- files and rendering ----------------------------------------------------------------------

def test_pattern_file_roundtrip():
    rng = random.Random(45)
    for _ in range(40):
        p = random_pattern(rng)
        q = parse_pattern(serialize_pattern(p))
        assert q.kind == p.kind and q.basis == p.basis and q.detectors == p.detectors


def test_pattern_parse_errors():
    from errold.graph import ParseError
    with pytest.raises(ParseError, match="grid"):
        parse_pattern("basis 1 0 0 1\n")
    with pytest.raises(ParseError, match="unknown"):
        parse_pattern("grid SQR\nbasis 1 0 0 1\nfoo 1 2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_pattern("grid HEX\n")
    # a second grid or basis line is an error, not a replacement
    with pytest.raises(ParseError, match="^line 3: duplicate grid line$"):
        parse_pattern("grid SQR\nbasis 1 0 0 1\ngrid KNG\nbasis 2 0 0 2\n")
    with pytest.raises(ParseError, match="^line 4: duplicate basis line$"):
        parse_pattern("grid SQR\nbasis 1 0 0 1\n# comment\nbasis 2 0 0 2\n")
    # underscores and non-ASCII digits are not file integers
    with pytest.raises(ParseError, match="^line 2: bad basis integers$"):
        parse_pattern("grid SQR\nbasis 1_0 0 0 1\n")
    with pytest.raises(ParseError, match="^line 3: bad detector integers$"):
        parse_pattern("grid SQR\nbasis 2 0 0 1\ndetector \u0661 0\n")
    assert parse_pattern("grid SQR # \u00e9\nbasis 2 0 0 1\ndetector 1 0\n").index == 2


def test_render():
    full = PeriodicPattern(SQR, ((1, 0), (0, 1)), frozenset([(0, 0)]))
    assert render_pattern(full, 3) == "###\n###\n###\n"
    stripes = PeriodicPattern(SQR, ((2, 0), (0, 1)), frozenset([(0, 0)]))
    assert render_pattern(stripes, 2) == "#.\n#.\n"
    sqr = saved_patterns()["sqr_7_8"]
    fig = render_pattern(sqr, 8)
    assert fig.count("#") == 56          # density * area on a lattice-aligned window
    with pytest.raises(PatternError):
        render_pattern(full, 0)
    assert len(render_pattern(full, MAX_RENDER_WINDOW)) == MAX_RENDER_WINDOW * (MAX_RENDER_WINDOW + 1)
    with pytest.raises(PatternError, match="window"):
        render_pattern(full, MAX_RENDER_WINDOW + 1)

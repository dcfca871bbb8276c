import random
import time
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import reference
from cubemill import folding
from cubemill.complexes import Cube, CubicalComplex
from cubemill.errors import InternalError, NotFoldable, UnlabeledVertex, Unsupported
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import (
    FoldingObstruction,
    assert_folding,
    find_folding,
    framings,
    mirror_separates,
    mirrors,
    parallelism_classes,
    verify_folding,
)
from helpers import cube_grid_cells, grid3, grid_squares, mirror_list, rose, strip, tube


# ---------------------------------------------------------------------------
# verification


def test_fixture_labels_are_foldings():
    for name in ("sq1", "grid2", "book3", "cube1", "torus4", "gdelta2", "sphere"):
        f = fixture(name)
        assert verify_folding(f.complex, f.labels) is None, name


def test_folding_rejects_equal_endpoint_labels():
    X = fixture("sq1").complex
    labels = {v: (0, 0) for v in X.vertices}
    ob = verify_folding(X, labels)
    assert ob is not None and ob.kind == "edge"
    with pytest.raises(NotFoldable):
        assert_folding(X, labels)


def test_folding_rejects_non_injective_square():
    # opposite corners may not collide on the target square
    X = fixture("sq1").complex
    a = X.cells[0].corners[0]
    b = X.cells[3].corners[0]
    labels = {a: (0, 0), b: (0, 0)}
    for v in X.vertices:
        labels.setdefault(v, (0, 1) if v % 2 else (1, 0))
    assert verify_folding(X, labels) is not None


def test_verify_folding_matches_string_bits_on_every_edge_labelling_of_a_cube():
    # every labelling of the 3-cube whose edges flip one coordinate each
    X = CubicalComplex.from_maximal_cells([list(range(8))])
    edges = [c.corners for c in X.cells.values() if c.dim == 1]
    labellings = [{}]
    for v in X.vertices:
        nbrs = [u for e in edges if v in e for u in e if u != v and u < v]
        labellings = [
            {**lab, v: c}
            for lab in labellings
            for c in product((0, 1), repeat=3)
            if all(sum(x != y for x, y in zip(lab[u], c)) == 1 for u in nbrs)
        ]
    witnesses = set()
    for lab in labellings:
        ob = verify_folding(X, lab)
        assert ob == reference.verify_folding(X, lab), lab
        witnesses.add(ob and ob.cell)
    # valid foldings, and squares collapsed in several positions
    assert None in witnesses and len(witnesses) > 2
    assert witnesses - {None} <= set(X.by_dim[2])


def test_a_square_whose_corners_leave_its_edges_is_not_a_face():
    # No table that from_maximal_cells or from_named_cells builds reaches this
    # verdict: there each facet's corners are a face of its cube's, so once
    # every edge flips one coordinate and corner labels are distinct, every
    # cube's corners form a face. The table is built directly instead: the
    # closed 3-cube with the corners of its square 20 moved to 0, 1, 2, 4,
    # while its facets stay the edges of the face 0, 1, 2, 3.
    X = CubicalComplex.from_maximal_cells([list(range(8))])
    labels = {v: tuple(v >> i & 1 for i in range(3)) for v in X.vertices}
    assert verify_folding(X, labels) is None
    moved = CubicalComplex(
        [Cube(c.cid, (0, 1, 2, 4), c.facets) if c.cid == 20 else c for c in X.cells.values()]
    )
    ob = verify_folding(moved, labels)
    assert ob == FoldingObstruction(
        "cube", 20, "corner labels do not form a 2-face of the target cube"
    )


def test_missing_label_raises():
    X = fixture("sq1").complex
    with pytest.raises(UnlabeledVertex):
        verify_folding(X, {})


def test_wrong_length_label_raises():
    X = fixture("sq1").complex
    with pytest.raises(UnlabeledVertex):
        verify_folding(X, {v: (0,) for v in X.vertices})


def test_integer_label_raises():
    # integer labels are the simplicial format; a cube corner is a bit tuple
    X = fixture("sq1").complex
    with pytest.raises(UnlabeledVertex, match="label 1 is not a corner"):
        verify_folding(X, {v: 1 for v in X.vertices})


# ---------------------------------------------------------------------------
# search


def test_find_folding_on_fixtures_matches_verifier():
    for name in ("sq1", "grid2", "book3", "cube1", "torus4"):
        X = fixture(name).complex
        labels = find_folding(X)
        assert verify_folding(X, labels) is None, name


def test_find_folding_graph_iff_bipartite():
    rng = random.Random(1405)
    for trial in range(60):
        n = rng.randint(2, 18)
        p = rng.uniform(0.1, 0.5)
        g = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**9))
        if not g.edges:
            continue
        X = CubicalComplex.from_maximal_cells(g.edges)
        if nx.is_bipartite(g):
            assert verify_folding(X, find_folding(X)) is None
        else:
            with pytest.raises(NotFoldable):
                find_folding(X)


def test_find_folding_least_vertex_gets_zero_label():
    X = fixture("grid2").complex
    labels = find_folding(X)
    assert labels[min(X.vertices)] == (0, 0)


def test_rose_foldable_iff_even():
    for m in range(2, 9):
        X = rose(m)
        if m % 2 == 0:
            assert verify_folding(X, find_folding(X)) is None, m
        else:
            with pytest.raises(NotFoldable):
                find_folding(X)


def test_tube_never_foldable():
    for length in (1, 2, 3, 4):
        with pytest.raises(NotFoldable):
            find_folding(tube(length))


def test_a_band_whose_rungs_meet_a_side_is_not_foldable():
    # the fourth square's rung 6-7 lies opposite the side 0-2 of the first
    # square, so one parallelism class holds both directions of that square
    X = CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (6, 7, 0, 2)])
    with pytest.raises(NotFoldable) as caught:
        find_folding(X)
    ob = caught.value.args[1]
    assert ob == FoldingObstruction("cube", 20, "parallel directions collide")
    root_of = {e: r for r, es in parallelism_classes(X).items() for e in es}
    assert len({root_of[e] for e in X.edges_at_corner(20, 0)}) == 1


def test_strip_foldable():
    X = strip(3)
    assert verify_folding(X, find_folding(X)) is None


def test_zero_dimensional_complex_folds_trivially():
    X = CubicalComplex.from_maximal_cells([(0,), (1,), (2,)])
    assert find_folding(X) == {v: () for v in X.vertices}


def _search_outcome(X):
    try:
        return find_folding(X)
    except NotFoldable:
        return None


def _search_cases():
    yield from (fixture(name).complex for name in FIXTURE_NAMES)
    yield from (rose(m) for m in range(2, 9))
    yield from (tube(length) for length in (1, 2, 3, 4))
    yield from (strip(3), grid3()[0])
    # a path of two edges across a square's diagonal flips both coordinates,
    # so the first complete assignment fails parity and the search backs up
    yield CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (0, 4), (4, 3)])
    # here parity holds only once a square's class moves to its second
    # coordinate, so the search backs up through classes that squares watch
    yield CubicalComplex.from_maximal_cells([(2, 0), (0, 5, 6, 3), (3, 5, 2, 1)])
    yield CubicalComplex.from_maximal_cells(grid_squares(4))
    yield CubicalComplex.from_maximal_cells(cube_grid_cells(2))
    # disconnected: components are searched one at a time, and each of these
    # has a component on which the search backs up
    backs_up = [(0, 1, 2, 3), (0, 4), (4, 3)]
    yield CubicalComplex.from_maximal_cells(backs_up + [tuple(v + 5 for v in c) for c in backs_up])
    yield CubicalComplex.from_maximal_cells(
        [(12, 10), (10, 15, 16, 13), (13, 15, 12, 11), (0, 1, 2, 3)]
        + [(4, 5), (5, 6), (6, 7), (7, 4)]
    )
    yield CubicalComplex.from_maximal_cells(backs_up + [(10, 11, 12, 13), (20, 21)] + [(30,)])
    yield CubicalComplex.from_maximal_cells(_odd_triangle_beside_squares(3))
    yield CubicalComplex.from_maximal_cells([(20, 21), (21, 22), (20, 22)] + backs_up)
    rng = random.Random(2206)
    for _ in range(40):
        g = nx.gnp_random_graph(rng.randint(2, 14), rng.uniform(0.1, 0.5), seed=rng.randrange(10**9))
        if g.edges:
            yield CubicalComplex.from_maximal_cells(g.edges)


def test_search_on_a_stack_matches_the_recursive_search():
    for X in _search_cases():
        assert _search_outcome(X) == reference.find_folding(X)


def _odd_triangle_beside_squares(k):
    """An odd cycle of three edges and k disjoint squares: no folding."""
    return [(0, 1), (1, 2), (0, 2)] + [tuple(range(3 + 4 * j, 7 + 4 * j)) for j in range(k)]


def test_components_are_searched_one_at_a_time():
    # one search over all classes together would back up through 2^33
    # assignments here
    X = CubicalComplex.from_maximal_cells(_odd_triangle_beside_squares(30))
    with pytest.raises(NotFoldable, match="no coordinate assignment"):
        find_folding(X)


def triangle_beside_a_square(k):
    """One component: a square, the odd triangle 0-10-11 and k pendant edges
    at vertex 0. Every assignment fails only at the parity check, so an
    exhaustive search backs up about 2^(k + 5) times."""
    return [(0, 1, 2, 3), (0, 10), (10, 11), (0, 11)] + [(0, 100 + i) for i in range(k)]


def moebius_band(k):
    """Three squares glued into a Moebius band, with k pendant edges at
    vertex 0. Its 1-skeleton is bipartite, yet it does not fold."""
    return [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 1, 0)] + [(0, 100 + i) for i in range(k)]


@pytest.mark.parametrize("family", [triangle_beside_a_square, moebius_band])
def test_a_search_past_the_back_up_cap_is_refused_within_a_second(family):
    X = CubicalComplex.from_maximal_cells(family(30))
    t0 = time.perf_counter()
    with pytest.raises(Unsupported, match=f"more than {folding.MAX_FOLDING_BACKUPS} times"):
        find_folding(X)
    assert time.perf_counter() - t0 < 1.0
    # below the cap the search is exhausted, as it was before the cap
    with pytest.raises(NotFoldable):
        find_folding(CubicalComplex.from_maximal_cells(family(8)))


def test_the_cap_counts_back_ups(monkeypatch):
    backs_up = CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (0, 4), (4, 3)])
    star = CubicalComplex.from_maximal_cells([(0, i) for i in range(1, 4001)])
    want = {name: find_folding(fixture(name).complex) for name in FIXTURE_NAMES}
    find_folding(backs_up)
    monkeypatch.setattr(folding, "MAX_FOLDING_BACKUPS", 0)
    with pytest.raises(Unsupported):
        find_folding(backs_up)
    # a star and every fixture fold without one back-up, so the cap leaves
    # their labels as they were
    assert find_folding(star) == {0: (0,), **{v: (1,) for v in range(1, 4001)}}
    for name in FIXTURE_NAMES:
        assert find_folding(fixture(name).complex) == want[name], name


def test_a_returned_non_folding_is_an_internal_error(monkeypatch):
    X = fixture("grid2").complex
    find_folding(X)
    monkeypatch.setattr(
        folding, "verify_folding", lambda X, labels: folding.FoldingObstruction("edge", 0, "")
    )
    with pytest.raises(InternalError):
        find_folding(X)


@given(st.integers(3, 9), st.booleans())
def test_cycle_foldable_iff_even(n, shift):
    edges = [(i, (i + 1) % n) for i in range(n)]
    X = CubicalComplex.from_maximal_cells(edges)
    if n % 2 == 0:
        assert verify_folding(X, find_folding(X)) is None
    else:
        with pytest.raises(NotFoldable):
            find_folding(X)


# ---------------------------------------------------------------------------
# parallelism classes


def test_parallelism_classes_of_grid():
    # opposition merges along each row and column but never across them
    X = fixture("grid2").complex
    classes = parallelism_classes(X)
    assert sorted(len(es) for es in classes.values()) == [3, 3, 3, 3]


def test_parallelism_classes_of_book():
    # the spine merges with every page's outer edge; each page's two side
    # edges pair up on their own
    X = fixture("book3").complex
    classes = parallelism_classes(X)
    assert sorted(len(es) for es in classes.values()) == [2, 2, 2, 4]


# ---------------------------------------------------------------------------
# mirrors


def test_grid2_mirror_shapes():
    ml = mirror_list("grid2")
    assert [(M.index, M.coordinate, M.side) for M in ml] == [
        (0, 0, 0),
        (1, 0, 0),
        (2, 0, 1),
        (3, 1, 0),
        (4, 1, 0),
        (5, 1, 1),
    ]
    X = fixture("grid2").complex
    for M in ml:
        # three vertical or horizontal lines: 3 vertices + 2 edges each
        dims = sorted(X.cells[c].dim for c in M.cells)
        assert dims == [0, 0, 0, 1, 1]


def test_book3_mirror_shapes():
    ml = mirror_list("book3")
    assert [(M.index, M.coordinate, M.side) for M in ml] == [
        (0, 0, 0),
        (1, 0, 1),
        (2, 1, 0),
        (3, 1, 1),
        (4, 1, 1),
        (5, 1, 1),
    ]


def test_mirrors_are_disjoint_per_side():
    for name in ("grid2", "book3", "cube1", "torus4"):
        ml = mirror_list(name)
        seen = {}
        for M in ml:
            key = (M.coordinate, M.side)
            for c in M.cells:
                assert (key, c) not in seen
                seen[(key, c)] = M.index


def test_framings_exist_on_interior_mirrors():
    X = fixture("grid2").complex
    for M in mirror_list("grid2"):
        fr = framings(X, M)
        interior = any(
            X.cells[c].dim == 1 and len(X.cofaces[c]) == 2 for c in M.cells
        )
        if interior:
            assert fr
        for sigma, (c1, c2) in fr:
            assert c1 < c2
            assert sigma in M.cells


def test_mirror_separation_on_grid():
    X = fixture("grid2").complex
    for M in mirror_list("grid2"):
        rep = mirror_separates(X, M)
        assert rep.separates
        # middle lines cut the grid in two; boundary lines leave one side
        interior = all(
            len(X.cofaces[c]) == 2 for c in M.cells if X.cells[c].dim == 1
        )
        assert rep.n_components == (2 if interior else 1)


def test_book3_spine_three_components():
    X = fixture("book3").complex
    (spine,) = [M for M in mirror_list("book3") if (M.coordinate, M.side) == (1, 0)]
    rep = mirror_separates(X, spine)
    assert rep.separates
    assert rep.n_components == 3
    assert rep.framing_count == len(framings(X, spine))


def test_torus_mirrors_do_not_separate():
    X = fixture("torus4").complex
    for M in mirror_list("torus4"):
        assert not mirror_separates(X, M).separates


def test_parallel_lines_are_separate_mirrors():
    # a 3x3 grid folds with period 2, so each side's preimage is two parallel
    # lines; they are distinct mirrors, never one disconnected pseudo-mirror
    X, labels = grid3()
    assert verify_folding(X, labels) is None
    ml = mirrors(X, labels)
    assert len(ml) == 8
    per_side = {}
    for M in ml:
        per_side.setdefault((M.coordinate, M.side), []).append(M)
    for group in per_side.values():
        assert len(group) == 2
        a, b = group
        assert not (a.cells & b.cells)
    for M in ml:
        # every mirror is a line of 4 vertices and 3 edges
        dims = sorted(X.cells[c].dim for c in M.cells)
        assert dims == [0, 0, 0, 0, 1, 1, 1]

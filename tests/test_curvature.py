import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference
from cubemill.complexes import CubicalComplex, SimplicialComplex, link_masks, mask_bits
from cubemill.curvature import (
    check_npc,
    check_special,
    flag_failure,
    hyperplane_coordinate,
    hyperplanes,
)
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import find_folding
from helpers import (
    dual_of,
    is_flag,
    mirror_carries_hyperplane_side,
    mirror_list,
    rose,
    simply_connected_names,
)


# ---------------------------------------------------------------------------
# flagness


def test_empty_triangle_is_not_flag():
    S = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    ok, witness = is_flag(S)
    assert not ok
    assert witness == (0, 1, 2)


def test_filled_triangle_is_flag():
    ok, witness = is_flag(SimplicialComplex([(0, 1, 2)]))
    assert ok and witness is None


def test_four_cycle_is_flag():
    S = SimplicialComplex([(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_flag(S)[0]


def test_empty_tetrahedron_boundary_of_triangles_is_not_flag():
    S = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    ok, witness = is_flag(S)
    assert not ok
    assert witness == (0, 1, 2, 3)


@st.composite
def simplicial_complexes(draw):
    """Small complexes over int and str vertex names: a random part of the
    k-skeleton of a simplex plus a few random faces, so empty simplices of
    every size up to four are common."""
    pool = draw(
        st.lists(
            st.one_of(st.integers(0, 9), st.text("abc", min_size=1, max_size=2)),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    k = draw(st.integers(2, min(4, len(pool))))
    maximal = [f for f in combinations(pool, k) if draw(st.booleans())]
    extra = st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True)
    maximal += draw(st.lists(extra, min_size=1, max_size=4))
    return SimplicialComplex(maximal)


@settings(max_examples=500)
@given(simplicial_complexes())
def test_is_flag_matches_clique_enumeration(S):
    assert is_flag(S) == reference.is_flag(S)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_is_flag_matches_clique_enumeration_on_fixture_links(name):
    for X in (fixture(name).complex, dual_of(name).complex):
        for v in X.vertices:
            edges, faces, _bigons = link_masks(X, v)
            S = SimplicialComplex(frozenset(edges[k] for k in mask_bits(f)) for f in faces)
            assert is_flag(S) == reference.is_flag(S), v


def test_is_flag_witness_is_least_in_name_order():
    # two empty triangles; names mix ints and strings, ints first
    S = SimplicialComplex([(1, "a"), ("a", "b"), (1, "b"), (0, 1), (1, 2), (0, 2)])
    assert is_flag(S) == (False, (0, 1, 2))
    # the boundary of a 4-simplex, with a filled triangle hanging off it
    S = SimplicialComplex([*combinations((3, "a", "b", "c", "d"), 4), ("a", 7, 8)])
    assert is_flag(S) == reference.is_flag(S) == (False, (3, "a", "b", "c", "d"))


def test_flag_failure_on_a_hub_of_4000_bits():
    # a path through 4000 link vertices whose last three span a hollow triangle
    n = 4000
    faces = {1 << k for k in range(n)} | {3 << k for k in range(n - 1)} | {5 << n - 3}
    start = time.perf_counter()
    assert flag_failure(faces) == (n - 3, n - 2, n - 1)
    assert flag_failure(faces | {7 << n - 3}) is None
    assert flag_failure({1 << k for k in range(n)}) is None
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# the link condition


def test_npc_on_fixtures():
    for name in ("sq1", "grid2", "book3", "cube1", "torus4", "gdelta2", "sphere"):
        assert check_npc(fixture(name).complex).ok, name


def test_npc_fails_on_three_squares_around_a_corner_of_a_cube_shape():
    # three squares pairwise sharing edges at one vertex, no filling cube:
    # the link is the empty triangle
    X = CubicalComplex.from_maximal_cells(
        [(0, 1, 2, 4), (0, 2, 3, 6), (0, 1, 3, 5)]
    )
    report = check_npc(X)
    assert not report.ok
    assert any(v.kind == "not-flag" for v in report.violations)


def test_npc_violation_payload():
    X = CubicalComplex.from_maximal_cells(
        [(0, 1, 2, 4), (0, 2, 3, 6), (0, 1, 3, 5)]
    )
    payload = check_npc(X).to_payload()
    assert payload["ok"] is False
    assert payload["violations"]


# ---------------------------------------------------------------------------
# hyperplanes


def test_cube_has_three_hyperplanes():
    X = fixture("cube1").complex
    hps = hyperplanes(X)
    assert len(hps) == 3
    for hp in hps:
        assert len(hp.edges) == 4
        assert len(hp.carriers) >= 1


def test_hyperplane_coordinates_unique_on_fixtures():
    for name in ("sq1", "grid2", "book3", "cube1", "torus4", "gdelta2", "sphere"):
        f = fixture(name)
        for hp in hyperplanes(f.complex):
            c = hyperplane_coordinate(f.complex, f.labels, hp)
            assert 0 <= c < f.complex.dim


def test_hyperplane_mixing_rejected():
    # an L of two squares folded with a single coordinate flip per class, then
    # fed labels that merge the classes across a corner
    X = rose(2)
    labels = find_folding(X)
    hps = hyperplanes(X)
    # rose(2) shares vertex 0 between its two squares; its two pages fold to
    # the same coordinates, classes stay pure
    for hp in hps:
        hyperplane_coordinate(X, labels, hp)
    # force a mix: relabel so one edge of a class flips the other coordinate
    bad = dict(labels)
    e = hps[0].edges[0]
    a, b = X.cells[e].corners
    bad[b] = tuple(reversed(bad[a]))
    with pytest.raises(ValueError):
        for hp in hyperplanes(X):
            hyperplane_coordinate(X, bad, hp)


# ---------------------------------------------------------------------------
# specialness


def test_fixtures_have_no_pathologies():
    for name in simply_connected_names():
        report = check_special(fixture(name).complex)
        assert report.ok, (name, report)


def test_torus_is_special_too():
    assert check_special(fixture("torus4").complex).ok


def test_self_osculation_detected():
    # two squares in a row share their middle edge's class; gluing a third
    # square's corner back to the far end makes two class edges meet at a
    # vertex without a common square
    X = CubicalComplex.from_maximal_cells(
        [(0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 0, 6)]
    )
    report = check_special(X)
    assert not report.ok
    assert report.self_osculations or report.inter_osculations


def test_specialness_of_a_star_keeps_no_osculating_pair():
    # every two of the 300 edges osculate at the hub, but no two of their
    # hyperplanes cross a square, so none of the 44850 pairs is a candidate
    X = CubicalComplex.from_maximal_cells([(0, i) for i in range(1, 301)])
    tracemalloc.start()
    try:
        report = check_special(X)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 1 << 20


def test_pathology_payload_shape():
    payload = check_special(fixture("sq1").complex).to_payload()
    assert payload == {
        "ok": True,
        "self_intersections": [],
        "self_osculations": [],
        "inter_osculations": [],
    }


# ---------------------------------------------------------------------------
# mirrors carrying hyperplane sides


def test_mirrors_carry_their_hyperplane_sides():
    for name in ("grid2", "book3", "cube1"):
        f = fixture(name)
        X = f.complex
        for hp in hyperplanes(X):
            coord = hyperplane_coordinate(X, f.labels, hp)
            for M in mirror_list(name):
                if M.coordinate != coord:
                    continue
                report = mirror_carries_hyperplane_side(X, f.labels, M, hp, M.side)
                assert report.consistent, (name, M.index, hp.index)

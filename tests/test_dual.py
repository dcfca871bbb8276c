import gc
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import reference
from cubemill import formats
from cubemill.cli import main
from cubemill.complexes import CubicalComplex
from cubemill.dual import (
    DualComplex,
    build_dual,
    tops_containing,
    verify_dual_axioms,
)
from cubemill.errors import NotAdmissible
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import chambers_avoiding, mirror_separates
from helpers import LARGER_COMPLEXES, dual_of, grid_squares, mirror_list, outcome

FROZEN_COUNTS = {
    "sq1": {0: 9, 1: 12, 2: 4},
    "grid2": {0: 25, 1: 40, 2: 16},
    "book3": {0: 21, 1: 32, 2: 12},
    "cube1": {0: 27, 1: 54, 2: 36, 3: 8},
    "gdelta2": {0: 53, 1: 102, 2: 48},
    "sphere": {0: 1106, 1: 2304, 2: 1152},
}


def test_dual_counts_frozen():
    for name, want in FROZEN_COUNTS.items():
        assert dual_of(name).complex.counts() == want, name


def test_dual_dimension_matches_source():
    for name in FROZEN_COUNTS:
        D = dual_of(name)
        assert D.complex.dim == D.source.dim, name


def test_dual_vertex_count_is_source_cell_count():
    for name in FROZEN_COUNTS:
        D = dual_of(name)
        assert len(D.complex.vertices) == len(D.source.cells), name


def test_heights_are_source_dimensions():
    D = dual_of("cube1")
    for v in D.complex.vertices:
        assert D.heights[v] == D.source.cells[v].dim


def test_axioms_pass_on_all_fixtures():
    for name in FROZEN_COUNTS:
        report = verify_dual_axioms(dual_of(name))
        assert report.ok, (name, report.checks)
        assert all(s == "pass" for _n, s, _d in report.checks)


def test_tampered_heights_fail_edge_check():
    D = dual_of("sq1")
    bent = dict(D.heights)
    bent[min(bent)] += 1
    report = verify_dual_axioms(DualComplex(D.complex, D.source, bent))
    failed = {n for n, s, _d in report.checks if s == "fail"}
    assert "edge-heights" in failed


def test_skeleton_without_squares_fails_interval_completeness():
    D = dual_of("sq1")
    edges = [D.complex.cells[e].corners for e in D.complex.by_dim[1]]
    bare = CubicalComplex.from_maximal_cells(edges)
    report = verify_dual_axioms(DualComplex(bare, D.source, dict(D.heights)))
    failed = {n for n, s, _d in report.checks if s == "fail"}
    assert "interval-complete" in failed


def test_build_dual_refuses_inadmissible_source():
    with pytest.raises(NotAdmissible):
        build_dual(_twisted_pair())


def _twisted_pair():
    named = {
        0: ((0,), ()),
        1: ((1,), ()),
        2: ((2,), ()),
        3: ((3,), ()),
        ("top",): ((0, 1), (0, 1)),
        ("bot",): ((2, 3), (2, 3)),
        ("a",): ((0, 2), (0, 2)),
        ("b",): ((1, 3), (1, 3)),
        ("sq", 0): ((0, 1, 2, 3), (("a",), ("b",), ("top",), ("bot",))),
        ("sq", 1): ((0, 1, 2, 3), (("a",), ("b",), ("top",), ("bot",))),
    }
    return CubicalComplex.from_named_cells(named)


def test_adjacency_is_codimension_one_incidence():
    D = dual_of("sq1")
    X = D.source
    for e in D.complex.by_dim[1]:
        u, v = D.complex.cells[e].corners
        lo, hi = (u, v) if X.cells[u].dim < X.cells[v].dim else (v, u)
        assert X.cells[hi].dim == X.cells[lo].dim + 1
        assert lo in {f for f in X.cells[hi].facets}


def test_dual_tile_of_square_has_nine_vertices():
    D = dual_of("sq1")
    (top,) = D.source.top_cells()
    tile = reference.dual_tile(D, top)
    verts = [c for c in tile if D.complex.cells[c].dim == 0]
    assert len(verts) == 9
    assert len(tile) == 9 + 12 + 4


@pytest.mark.parametrize("name", FIXTURE_NAMES + tuple(LARGER_COMPLEXES))
def test_tops_containing_reads_the_tiles(name):
    D = dual_of(name) if name in FIXTURE_NAMES else build_dual(LARGER_COMPLEXES[name]())
    holders = {}
    for t in D.source.top_cells():
        for c in reference.dual_tile(D, t):
            holders.setdefault(c, set()).add(t)
    for cid, cube in D.complex.cells.items():
        assert set(tops_containing(D, cube.corners)) == holders.get(cid, set()), (name, cid)


def test_tops_containing():
    D = dual_of("grid2")
    X = D.source
    corner_vertex = X.zero_cell[0]
    tops = tops_containing(D, {corner_vertex})
    assert len(tops) == 1
    center = X.zero_cell[4]
    assert len(tops_containing(D, {center})) == 4
    assert tops_containing(D, {corner_vertex, center}) == list(tops)


def test_dual_mirror_components_agree_with_separation():
    for name in ("sq1", "grid2", "book3", "cube1"):
        f = fixture(name)
        D = dual_of(name)
        for M in mirror_list(name):
            components, component_of = reference.complement_components(D, M)
            rep = mirror_separates(f.complex, M)
            assert len(components) == rep.n_components, (name, M.index)
            # component numbers agree with the chambers on every top cube
            for k, chamber in enumerate(chambers_avoiding(f.complex, M.cells)):
                assert {component_of[top] for top in chamber} == {k}, (name, M.index)


def test_dual_mirror_on_sphere_agrees_too():
    f = fixture("sphere")
    D = dual_of("sphere")
    for M in mirror_list("sphere")[:6]:
        components, _component_of = reference.complement_components(D, M)
        rep = mirror_separates(f.complex, M)
        assert len(components) == rep.n_components


def test_payload_shape():
    D = dual_of("sq1")
    payload = D.to_payload()
    assert payload["counts"] == {"0": 9, "1": 12, "2": 4}
    assert set(payload["heights"]) == {str(v) for v in D.complex.vertices}


# ---------------------------------------------------------------------------
# the dual of a single cube, cell for cell and byte for byte

# sha256 of the stdout of `cubemill dual` on one k-cube, pinned from the
# subdivision built by closing its maximal cells
SINGLE_CUBE_DIGESTS = {
    5: "cf1b53407ed152164650cc14066f0bdaa784368986bfa90e829bde634f4b1a41",
    6: "328cfe09affc89aa62f90c9b08561c0c4b5faae6e5cbd5ac81777d5814c528c7",
}


@pytest.mark.parametrize("k", sorted(SINGLE_CUBE_DIGESTS))
def test_dual_of_a_single_cube(k, tmp_path):
    X = CubicalComplex.from_maximal_cells([tuple(range(1 << k))])
    D = build_dual(X)
    got = [(c.cid, c.corners, c.facets) for c in D.complex.cells.values()]
    assert got == reference.cubical_subdivision(X)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"kind": "cubical", "maximal": [list(range(1 << k))]}))
    r = CliRunner().invoke(main, ["dual", "--in", str(path)], catch_exceptions=False)
    assert r.exit_code == 0
    assert hashlib.sha256(r.output.encode()).hexdigest() == SINGLE_CUBE_DIGESTS[k]


def test_closure_and_dual_leave_no_cycles():
    # both are freed by reference counting alone: nothing they build refers
    # back to itself, so the cycle collector finds nothing after them
    cells = grid_squares(20)
    gc.collect()
    gc.disable()
    try:
        X = CubicalComplex.from_maximal_cells(cells)
        after_closure = gc.collect()
        build_dual(X)
        after_dual = gc.collect()
    finally:
        gc.enable()
    assert (after_closure, after_dual) == (0, 0)


# ---------------------------------------------------------------------------
# vertex links read as joins, and where they are not
#
# verify_dual_axioms reads the link of a vertex as the join of its descending
# and ascending parts only when the cells at the vertex make one. Each case
# below breaks one of the conditions at a vertex whose whole link is not flag
# while both parts read from the cells are, so the verdicts agree with the
# definition only if the condition is tested.


def _assert_matches_definition(D):
    got = outcome(verify_dual_axioms, D)
    assert got == outcome(reference.verify_dual_axioms, D)
    return got


def _links(report):
    return {n: (s, d) for n, s, d in report.checks if n in ("links-flag", "sublinks-flag")}


def _on_itself(maximal, heights):
    X = CubicalComplex.from_maximal_cells(maximal, check=False)
    return DualComplex(X, X, heights)


def test_join_needs_distinct_extreme_corners():
    # squares 0,2,3,5 and 0,2,4,5 span one pair of extreme corners: a bigon at
    # the middle vertex 2, where the edge 1-2 makes up the count of cells
    D = _on_itself([(0, 2, 3, 5), (0, 2, 4, 5), (1, 2)], {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 2})
    got = _assert_matches_definition(D)
    assert _links(got)["links-flag"] == ("fail", "1 violations, first [2]")


def test_join_needs_distinct_masks_in_a_part():
    # squares 0,2,3,4 and 1,2,3,4 meet the top vertex 4 in the same two edges
    D = _on_itself([(0, 2, 3, 4), (1, 2, 3, 4)], {0: 0, 1: 0, 2: 1, 3: 1, 4: 2})
    got = _assert_matches_definition(D)
    assert _links(got)["links-flag"] == ("fail", "1 violations, first [4]")


def _cube_dual_without_a_top(extra=()):
    """The dual of a 3-cube beside an isolated vertex, one top dual cube left
    out, and the given cells added; and the source square that is a middle
    corner of the missing cube."""
    X = CubicalComplex.from_maximal_cells([tuple(range(8)), (8,)])
    D = build_dual(X)
    top = D.complex.by_dim[3][0]
    square = D.complex.cells[top].corners[3]
    rest = [c.corners for c in D.complex.cells.values() if c.cid != top]
    S = CubicalComplex.from_maximal_cells(rest + [e(square) for e in extra], check=False)
    return DualComplex(S, X, dict(D.heights)), square


def test_join_needs_every_pair_of_parts():
    # the missing cube leaves an empty triangle in the link of each of its 8
    # corners; at the 6 middle ones both parts are flag, and only the count
    # of cells tells that a pair of them spans no cell
    D, _square = _cube_dual_without_a_top()
    got = _assert_matches_definition(D)
    assert _links(got)["links-flag"] == ("fail", "8 violations, first [0, 9, 10]")


def test_join_needs_graded_cells():
    # an edge from the square down to the isolated vertex, two heights apart,
    # makes up the count of cells at the square without being graded
    D, square = _cube_dual_without_a_top(extra=[lambda s: (8, s)])
    assert D.heights[square] - D.heights[8] == 2
    got = _assert_matches_definition(D)
    assert _links(got)["links-flag"] == ("fail", "8 violations, first [0, 9, 10]")


def test_join_with_doubled_edges():
    # the hyperbolized 2-simplex on itself, heights from its folding labels
    f = fixture("gdelta2")
    X = f.complex
    assert any(len(es) > 1 for es in X._edges_at_pair.values())
    _assert_matches_definition(DualComplex(X, X, {v: sum(f.labels[v]) for v in X.vertices}))


def test_join_with_twisted_facet_frames():
    X = formats.parse_complex((Path(__file__).parent / "data" / "twisted_cube.json").read_text())
    assert X._twisted
    got = _assert_matches_definition(DualComplex(X, X, {v: v.bit_count() for v in X.vertices}))
    assert isinstance(got, str)  # the cube's edge at 0 and 1 is no subcell

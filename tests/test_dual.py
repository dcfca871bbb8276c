import pytest

import reference
from cubemill.complexes import CubicalComplex
from cubemill.dual import (
    DualComplex,
    build_dual,
    dual_tile,
    tops_containing,
    verify_dual_axioms,
)
from cubemill.errors import NotAdmissible, NotTopCell
from cubemill.fixtures import doubled_square_lists, fixture
from cubemill.folding import chambers_avoiding, mirror_separates
from helpers import dual_of, mirror_list

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
    tile = dual_tile(D, top)
    verts = [c for c in tile if D.complex.cells[c].dim == 0]
    assert len(verts) == 9
    assert len(tile) == 9 + 12 + 4


def test_dual_tile_requires_top_cell():
    D = dual_of("sq1")
    with pytest.raises(NotTopCell):
        dual_tile(D, D.source.by_dim[0][0])


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

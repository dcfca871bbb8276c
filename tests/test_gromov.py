import pytest

from cubemill.complexes import SimplicialComplex, barsub
from cubemill.curvature import check_npc
from cubemill.errors import InternalError, NotFoldable, UnsupportedDimension
from cubemill.fixtures import cone4, fixture, two_triangles
from cubemill.folding import canonical_barsub_folding, verify_folding
from cubemill.gromov import _extract_half, gromov_hyperbolize, model, verify_gromov_properties


# ---------------------------------------------------------------------------
# models


def test_model_dimensions_and_counts():
    assert model(0).cells and len(model(0).cells) == 1
    m1 = model(1)
    by_dim = {}
    for nm, (corners, _f) in m1.cells.items():
        d = len(corners).bit_length() - 1
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 2, 1: 1}
    m2 = model(2)
    by_dim = {}
    for nm, (corners, _f) in m2.cells.items():
        d = len(corners).bit_length() - 1
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 14, 1: 27, 2: 12}


def test_model_3_counts():
    m3 = model(3)
    by_dim = {}
    for nm, (corners, _f) in m3.cells.items():
        d = len(corners).bit_length() - 1
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 599, 1: 1918, 2: 1872, 3: 576}


def test_model_folding_covers_vertices():
    m2 = model(2)
    for nm, (corners, _f) in m2.cells.items():
        if len(corners) == 1:
            assert len(m2.folding[nm]) == 2


def test_model_dimension_cap():
    with pytest.raises(UnsupportedDimension):
        model(4)


# ---------------------------------------------------------------------------
# hyperbolization


def test_edge_maps_to_edge():
    r = gromov_hyperbolize(SimplicialComplex([(0, 1)]), {0: 0, 1: 1})
    assert r.complex.counts() == {0: 2, 1: 1}


def test_triangle_gives_twelve_squares():
    r = gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2})
    assert r.complex.counts() == {0: 14, 1: 27, 2: 12}
    assert verify_folding(r.complex, r.folding) is None
    assert check_npc(r.complex).ok
    assert len(r.tiles) == 1


def test_two_triangles_give_twenty_four_squares():
    K, colors = two_triangles()
    r = gromov_hyperbolize(K, colors)
    assert r.complex.counts()[2] == 24
    assert len(r.tiles) == 2
    report = verify_gromov_properties(r)
    assert report.ok, report.checks


def test_unlabeled_input_subdivides_first():
    r = gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]))
    assert len(r.tiles) == 6
    assert r.complex.counts()[2] == 72


def test_improper_coloring_rejected():
    with pytest.raises(NotFoldable):
        gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 0, 2: 2})


def test_dimension_cap_applies_to_input():
    K = SimplicialComplex([(0, 1, 2, 3, 4)])
    with pytest.raises(UnsupportedDimension):
        gromov_hyperbolize(K)


def test_the_empty_complex_has_no_hyperbolization():
    for labels in (None, {}):
        with pytest.raises(UnsupportedDimension):
            gromov_hyperbolize(SimplicialComplex([]), labels)


# ---------------------------------------------------------------------------
# structural properties


def test_properties_on_glued_triangles():
    K, colors = two_triangles()
    report = verify_gromov_properties(gromov_hyperbolize(K, colors))
    assert report.ok
    assert all(s in ("pass", "n/a") for _n, s, _d in report.checks)


def test_properties_on_barsub_sphere():
    S = barsub(SimplicialComplex([f for f in map(tuple, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])]))
    r = gromov_hyperbolize(S, canonical_barsub_folding(S))
    assert r.complex.counts() == {0: 242, 1: 576, 2: 288}
    report = verify_gromov_properties(r)
    assert report.ok, report.checks


def test_properties_on_cone():
    K, colors = cone4()
    report = verify_gromov_properties(gromov_hyperbolize(K, colors))
    assert report.ok, report.checks


def test_boundaryless_source_gives_boundaryless_result():
    X = fixture("sphere").complex
    for e in X.by_dim[1]:
        squares = {c for c in X.cofaces[e] if X.cells[c].dim == 2}
        assert len(squares) == 2


def test_gdelta2_fixture_matches_direct_construction():
    f = fixture("gdelta2")
    r = gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2})
    assert f.complex.counts() == r.complex.counts()
    assert f.labels == r.folding


def test_provenance_distinguishes_interior_and_strata():
    K, colors = two_triangles()
    r = gromov_hyperbolize(K, colors)
    kinds = {kind for kind, _face in r.provenance.values()}
    assert kinds == {"interior", "stratum"}
    for cid, (kind, face) in r.provenance.items():
        assert face in r.source.faces or kind == "interior"


def test_a_failed_model_guard_is_an_internal_error():
    # swapping labels 0 and 1 sends the first vertex to a name not in the dict
    a = ("f", frozenset({frozenset({0})}), 0)
    b = ("f", frozenset({frozenset({2})}), 0)
    cells = {a: ((a,), ()), b: ((b,), ())}
    with pytest.raises(InternalError, match="label swap leaves the complex"):
        _extract_half(cells)

import copy
import dataclasses
import random

import pytest

import reference
from cubemill.complexes import Cube, CubicalComplex, SimplicialComplex, barsub
from cubemill.curvature import check_npc
from cubemill.errors import InternalError, NotFoldable, UnsupportedDimension
from cubemill.fixtures import fixture
from cubemill.folding import canonical_barsub_folding, verify_folding
from cubemill.gromov import (
    _extract_half,
    _links_differ,
    boundary_complex,
    gromov_hyperbolize,
    model,
    verify_gromov_properties,
)
from helpers import cone4, two_triangles


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
    names = r.complex.names.values()
    assert {nm[0] for nm in names} == {"i", "f"}
    for kind, face, _cell in names:
        assert kind == "i" or face in r.source.faces


def test_a_failed_model_guard_is_an_internal_error():
    # swapping labels 0 and 1 sends the first vertex to a name not in the dict
    a = ("f", frozenset({frozenset({0})}), 0)
    b = ("f", frozenset({frozenset({2})}), 0)
    cells = {a: ((a,), ()), b: ((b,), ())}
    with pytest.raises(InternalError, match="label swap leaves the complex"):
        _extract_half(cells)


# ---------------------------------------------------------------------------
# tiles


def _triangle_result():
    return gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2})


def _with_cells(r, change):
    """``r`` on a shallow copy of its complex whose names and cells ``change``
    edits in place."""
    X = copy.copy(r.complex)
    X.names, X.cells = dict(X.names), dict(X.cells)
    change(X)
    return dataclasses.replace(r, complex=X)


def _interior(X, dim):
    return sorted(c for c, nm in X.names.items() if nm[0] == "i" and X.cells[c].dim == dim)


def _swap_names(dim):
    def change(X):
        a, b = _interior(X, dim)[:2]
        X.names[a], X.names[b] = X.names[b], X.names[a]

    return change


def _drop_a_cell(r):
    ((s, cids),) = r.tiles.items()
    return dataclasses.replace(r, tiles={s: cids[1:]})


def _move_an_edge(part):
    """Give the least interior edge another end in its corners or in its
    facets, keeping the other list."""

    def change(X):
        e = X.cells[_interior(X, 1)[0]]
        v = next(c for c in X.by_dim[0] if c not in e.facets)
        if part == "corners":
            X.cells[e.cid] = Cube(e.cid, (e.corners[0], X.cells[v].corners[0]), e.facets)
        else:
            X.cells[e.cid] = Cube(e.cid, e.corners, (e.facets[0], v))

    return change


# the cell-set comparison rejects the dropped cell, the facets comparison the
# swapped names and the moved facet, and the corners comparison the moved corner
@pytest.mark.parametrize(
    "tamper",
    [
        _drop_a_cell,
        lambda r: _with_cells(r, _swap_names(2)),
        lambda r: _with_cells(r, _swap_names(0)),
        lambda r: _with_cells(r, _move_an_edge("facets")),
        lambda r: _with_cells(r, _move_an_edge("corners")),
    ],
    ids=["drop-cell", "swap-squares", "swap-vertices", "move-facet", "move-corner"],
)
def test_a_tampered_tile_differs_from_the_model(tamper):
    r = _triangle_result()
    checks = {name: (status, d) for name, status, d in verify_gromov_properties(r).checks}
    assert checks["tiles-isomorphic"] == ("pass", "")
    checks = {name: (status, d) for name, status, d in verify_gromov_properties(tamper(r)).checks}
    assert checks["tiles-isomorphic"] == ("fail", "1 tiles differ from the model")


# ---------------------------------------------------------------------------
# links


def _links_status(result):
    return {name: status for name, status, _d in verify_gromov_properties(result).checks}[
        "links-preserved"
    ]


def _random_source(rng, dim, folded):
    """A random pure complex of dimension 1 or 2 with the labels to hyperbolize
    it by: a proper colouring when ``folded``, else None (the barycentric
    subdivision)."""
    if folded:
        # one vertex of each colour class per simplex, colour v % (dim + 1)
        classes = [range(c, 9, dim + 1) for c in range(dim + 1)]
        pool = [tuple(rng.choice(cl) for cl in classes) for _ in range(8)]
    else:
        pool = [rng.sample(range(6), dim + 1) for _ in range(8)]
    K = SimplicialComplex(rng.sample(pool, rng.randint(1, 6)))
    return K, ({v: v % (dim + 1) for v in K.vertices} if folded else None)


def _link_sources():
    """The sources the link check runs on: the triangle and sphere fixtures
    (the sphere is the boundary of the 3-simplex, subdivided), the glued
    triangles, the cone, the boundary of the 2-simplex, and 40 seeded random
    pure 2-complexes and 20 random graphs."""
    yield "triangle", SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2}
    sphere = barsub(boundary_complex(3))
    yield "sphere", sphere, canonical_barsub_folding(sphere)
    yield ("two_triangles", *two_triangles())
    yield ("cone4", *cone4())
    yield "boundary2", boundary_complex(2), None
    rng = random.Random(20261020)
    for i in range(60):
        dim = 2 if i < 40 else 1
        yield (f"random{i}", *_random_source(rng, dim, folded=i % 2 == 0))


def test_link_check_matches_networkx_homeomorphism():
    rng = random.Random(7)
    passed_corrupted = 0
    for name, K, labels in _link_sources():
        r = gromov_hyperbolize(K, labels)
        assert _links_status(r) == "pass", name
        assert reference.links_differ(r) == [], name
        # corrupted sources: one simplex more, one maximal simplex fewer, and
        # the vertices permuted; every pass must be a pass of the reference
        S = r.source
        top = list(S.maximal)
        extra = tuple(rng.sample(S.vertices, min(3, len(S.vertices))))
        perm = dict(zip(S.vertices, rng.sample(S.vertices, len(S.vertices))))
        corrupted = [
            SimplicialComplex(top + [extra]),
            SimplicialComplex(top[1:] or [extra]),
            SimplicialComplex([{perm[v] for v in f} for f in top]),
        ]
        for K2 in corrupted:
            r2 = dataclasses.replace(r, source=K2)
            if _links_status(r2) == "pass":
                passed_corrupted += 1
                assert reference.links_differ(r2) == [], name
    assert passed_corrupted > 0


@pytest.mark.parametrize(
    "extra, differ",
    [
        # vertex 1 now has a cycle for its link, where its image has a path
        ((0, 1, 3), [1]),
        # vertex 9 has no image at all
        ((9,), [9]),
    ],
)
def test_an_extra_simplex_breaks_the_links(extra, differ):
    K, colors = two_triangles()
    r = gromov_hyperbolize(K, colors)
    r2 = dataclasses.replace(r, source=SimplicialComplex([*K.maximal, extra]))
    assert _links_status(r2) == "fail"
    assert reference.links_differ(r2) == differ


def test_a_relabelled_source_with_the_same_link_shapes_breaks_the_links():
    K, colors = two_triangles()
    r = gromov_hyperbolize(K, colors)
    # swapping 0 and 1 keeps every link an edge or a path, so homeomorphism
    # passes, but the link of 0 now names 1, 2 and 3 where its image names 1 and 2
    K2 = SimplicialComplex([(1, 0, 2), (0, 2, 3)])
    r2 = dataclasses.replace(r, source=K2)
    assert reference.links_differ(r2) == []
    assert _links_status(r2) == "fail"


@pytest.mark.parametrize("extra", ["chord", "cycle"])
def test_extra_squares_at_an_image_break_its_link(extra):
    r = gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2})
    X = r.complex
    named = {
        X.names[cid]: (
            tuple(X.vertex_names[v] for v in cube.corners),
            tuple(X.names[f] for f in cube.facets),
        )
        for cid, cube in X.cells.items()
    }
    img = next(nm for nm in X.vertex_names.values() if nm[0] == "f" and nm[1] == {0})

    def new(*key):
        return ("i", frozenset({0, 1, 2}), ("x", *key))

    q = new("q")
    named[q] = ((q,), ())
    if extra == "chord":
        # a square on the edges over {0, 1} and {0, 2}: a second path from
        # link vertex 1 to link vertex 2 beside the one of the triangle
        e1, e2 = (
            next(nm for nm, (co, _f) in named.items() if len(co) == 2 and img in co and nm[1] == f)
            for f in ({0, 1}, {0, 2})
        )
        p1, p2 = (next(c for c in named[e][0] if c != img) for e in (e1, e2))
        twins = [()]
    else:
        # two squares that share both their edges at the image: every edge
        # there still lies in two squares, but the new pair is a cycle of the
        # link that no path from a link vertex reaches
        p1, p2 = new("p1"), new("p2")
        named[p1] = ((p1,), ())
        named[p2] = ((p2,), ())
        e1, e2 = new(img, p1), new(img, p2)
        named[e1] = ((img, p1), (img, p1))
        named[e2] = ((img, p2), (img, p2))
        twins = [(), (1,)]
    for twin in twins:
        f1, f2 = new(p1, q, *twin), new(p2, q, *twin)
        named[f1] = ((p1, q), (p1, q))
        named[f2] = ((p2, q), (p2, q))
        named[new("square", *twin)] = ((img, p1, p2, q), (e2, f1, e1, f2))
    X2 = CubicalComplex.from_named_cells(named)
    assert reference.links_differ(dataclasses.replace(r, complex=X2)) == [0]
    assert _links_differ(X2, r.source) == [0]

"""Mirror/chamber decomposition trees."""

import networkx as nx
import pytest

import reference
from cubemill.complexes import CubicalComplex
from cubemill.decomposition import build_all_trees, build_tree
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import find_folding, mirrors
from cubemill.gromov import boundary_complex, gromov_hyperbolize
from helpers import cube_grid_cells, grid3, grid_squares, simply_connected_names, strip
from reference import incidence_graph, tree_verdicts


def _tree(name, i):
    f = fixture(name)
    return build_tree(f.complex, f.labels, i)


def test_single_square_decomposes_into_mirror_chamber_mirror():
    for i in (0, 1):
        t = _tree("sq1", i)
        assert len(t.mirror_indices) == 2
        assert len(t.chambers) == 1
        assert len(t.edges) == 2
        assert t.is_tree
        assert not t.leafless


def test_grid_tree_is_a_five_vertex_path():
    for i in (0, 1):
        t = _tree("grid2", i)
        assert (len(t.mirror_indices), len(t.chambers), len(t.edges)) == (3, 2, 4)
        assert t.is_tree
        g = incidence_graph(t)
        assert sorted(d for _n, d in g.degree) == [1, 1, 2, 2, 2]
        assert [len(c) for c in t.chambers] == [2, 2]


def test_book_spine_coordinate_gives_a_star():
    t = _tree("book3", 1)
    assert (len(t.mirror_indices), len(t.chambers), len(t.edges)) == (4, 3, 6)
    assert t.is_tree
    assert t.edges == ((2, 0), (2, 1), (2, 2), (3, 0), (4, 1), (5, 2))
    degrees = dict(incidence_graph(t).degree)
    assert degrees[("mirror", 2)] == 3
    assert all(degrees[("mirror", m)] == 1 for m in (3, 4, 5))
    assert all(degrees[("chamber", k)] == 2 for k in range(3))


def test_book_binding_coordinate_keeps_pages_in_one_chamber():
    t = _tree("book3", 0)
    assert (len(t.mirror_indices), len(t.chambers), len(t.edges)) == (2, 1, 2)
    assert t.is_tree


def test_cube_trees_are_paths_in_every_coordinate():
    for i in range(3):
        t = _tree("cube1", i)
        assert (len(t.mirror_indices), len(t.chambers), len(t.edges)) == (2, 1, 2)
        assert t.is_tree


def test_simply_connected_fixtures_decompose_into_trees():
    for name in simply_connected_names():
        f = fixture(name)
        for t in build_all_trees(f.complex, f.labels):
            assert t.connected, (name, t.coordinate)
            assert t.acyclic, (name, t.coordinate)


def test_torus_decomposition_is_a_cycle():
    for i in (0, 1):
        t = _tree("torus4", i)
        assert (len(t.mirror_indices), len(t.chambers), len(t.edges)) == (4, 4, 8)
        assert t.connected
        assert not t.acyclic
        assert t.leafless
        assert sorted(d for _n, d in incidence_graph(t).degree) == [2] * 8
        assert [len(c) for c in t.chambers] == [4, 4, 4, 4]


def test_sphere_decomposition_is_leafless_but_not_acyclic():
    f = fixture("sphere")
    for t in build_all_trees(f.complex, f.labels):
        assert t.connected
        assert t.leafless
        assert not t.acyclic
        assert not t.is_tree


def test_coordinate_out_of_range_is_rejected():
    f = fixture("grid2")
    with pytest.raises(ValueError):
        build_tree(f.complex, f.labels, 2)
    with pytest.raises(ValueError):
        build_tree(f.complex, f.labels, -1)


def test_chambers_partition_the_top_cubes():
    for name in ("grid2", "book3", "torus4", "gdelta2"):
        f = fixture(name)
        tops = set(f.complex.top_cells())
        for t in build_all_trees(f.complex, f.labels):
            seen = [c for chamber in t.chambers for c in chamber]
            assert sorted(seen) == sorted(tops)
            assert len(seen) == len(set(seen))


def test_edges_reference_declared_mirrors_and_chambers():
    for name in ("grid2", "book3", "sphere"):
        f = fixture(name)
        for t in build_all_trees(f.complex, f.labels):
            for m, k in t.edges:
                assert m in t.mirror_indices
                assert 0 <= k < len(t.chambers)


def test_build_all_trees_covers_every_coordinate():
    f = fixture("cube1")
    trees = build_all_trees(f.complex, f.labels)
    assert [t.coordinate for t in trees] == [0, 1, 2]


def test_payload_round_trips_the_graph():
    t = _tree("grid2", 0)
    payload = t.to_payload()
    assert set(payload) == {
        "coordinate",
        "mirrors",
        "chambers",
        "edges",
        "connected",
        "acyclic",
        "leafless",
    }
    assert payload["coordinate"] == 0
    assert sorted(map(tuple, payload["edges"])) == sorted(t.edges)
    g = incidence_graph(t)
    assert g.number_of_nodes() == len(payload["mirrors"]) + len(payload["chambers"])
    assert nx.is_tree(g) == t.is_tree


@pytest.mark.parametrize("name", (*FIXTURE_NAMES, "two squares"))
def test_verdicts_match_networkx_on_every_coordinate(name):
    if name == "two squares":
        X = CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (4, 5, 6, 7)])
        trees = build_all_trees(X, find_folding(X))
        assert not any(t.connected for t in trees)
    else:
        f = fixture(name)
        trees = build_all_trees(f.complex, f.labels)
    for t in trees:
        assert (t.connected, t.acyclic, t.leafless) == tree_verdicts(t), t.coordinate


def _tree_case(name):
    """A complex and a folding of it."""
    if name in FIXTURE_NAMES:
        f = fixture(name)
        return f.complex, f.labels
    if name == "grid3":
        return grid3()
    if name == "hyperbolized boundary of the 3-simplex":
        r = gromov_hyperbolize(boundary_complex(3), None)
        return r.complex, r.folding
    X = {
        "grid 5x5": lambda: CubicalComplex.from_maximal_cells(grid_squares(5)),
        "strip8": lambda: strip(8),
        "cube grid 3x3x3": lambda: CubicalComplex.from_maximal_cells(cube_grid_cells(3)),
    }[name]()
    return X, find_folding(X)


@pytest.mark.parametrize(
    "name",
    (
        "grid2",
        "grid3",
        "grid 5x5",
        "strip8",
        "torus4",
        "cube grid 3x3x3",
        "hyperbolized boundary of the 3-simplex",
        "sphere",
    ),
)
def test_tree_edges_match_the_pairwise_definition(name):
    Y, labels = _tree_case(name)
    ml = mirrors(Y, labels)
    for i in range(Y.dim):
        want = reference.tree_edges(Y, ml, i)
        assert build_tree(Y, labels, i).edges == want, i

"""Acceptance gate: one test per shipped guarantee, exact assertions only.

Each test prints a single verdict line; run with ``-v`` (or ``-s``) to see
them. Budgets are wall-clock upper bounds on the whole criterion.
"""

import itertools
import random
import time

import networkx as nx
import pytest

import oracle
import reference
from cubemill.complexes import CubicalComplex, SimplicialComplex, barsub
from cubemill.curvature import check_npc, check_special, hyperplane_coordinate, hyperplanes
from cubemill.decomposition import build_all_trees
from cubemill.dual import build_dual, verify_dual_axioms
from cubemill.errors import NonSeparatingMirror, NotFoldable, Unsupported
from cubemill.fixtures import fixture
from cubemill.folding import (
    assert_folding,
    canonical_barsub_folding,
    find_folding,
    mirror_separates,
    mirrors,
    verify_folding,
)
from cubemill.gromov import gromov_hyperbolize, verify_gromov_properties
from cubemill.surgery import (
    _strip_backtracks,
    check_edge_path,
    contract_loop,
    crossings,
    random_loop,
    surgery_context,
    surgery_step,
    verify_certificate,
)
from helpers import cone4, rose, simply_connected_names, two_triangles


def _verdict(label, t0, budget=None):
    elapsed = time.monotonic() - t0
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    print(f"{label}: PASS ({elapsed:.1f}s)")


def test_criterion_1_folding_search_on_graphs_and_roses():
    t0 = time.monotonic()
    rng = random.Random(20260819)
    tested = 0
    while tested < 200:
        n = rng.randint(2, 30)
        density = rng.uniform(0.05, 0.5)
        g = nx.gnp_random_graph(n, density, seed=rng.randint(0, 10**9))
        if not g.edges:
            continue
        tested += 1
        X = CubicalComplex.from_maximal_cells(g.edges)
        if nx.is_bipartite(g):
            assert verify_folding(X, find_folding(X)) is None
        else:
            with pytest.raises(NotFoldable):
                find_folding(X)
    for m in range(2, 9):
        X = rose(m)
        if m % 2 == 0:
            assert verify_folding(X, find_folding(X)) is None
        else:
            with pytest.raises(NotFoldable):
                find_folding(X)
    _verdict("criterion 1 (folding search)", t0, budget=5)


def test_criterion_2_hyperbolization_models_and_properties():
    t0 = time.monotonic()
    edge = gromov_hyperbolize(SimplicialComplex([(0, 1)]), {0: 0, 1: 1})
    assert edge.complex.counts() == {0: 2, 1: 1}

    tri = gromov_hyperbolize(SimplicialComplex([(0, 1, 2)]), {0: 0, 1: 1, 2: 2})
    assert len(tri.complex.by_dim[2]) == 12
    assert_folding(tri.complex, tri.folding)
    assert check_npc(tri.complex).ok

    sphere = barsub(SimplicialComplex(list(itertools.combinations(range(4), 3))))
    cases = [
        two_triangles(),
        (sphere, canonical_barsub_folding(sphere)),
        cone4(),
    ]
    for K, colors in cases:
        report = verify_gromov_properties(gromov_hyperbolize(K, colors))
        statuses = {name: status for name, status, _d in report.checks}
        assert all(s in ("pass", "n/a") for s in statuses.values()), statuses
        assert statuses["links-preserved"] == "pass"
        assert statuses["tiles-isomorphic"] == "pass"
    _verdict("criterion 2 (hyperbolization)", t0, budget=30)


def test_criterion_3_dual_complex_axioms():
    t0 = time.monotonic()
    for name in ("sq1", "grid2", "book3", "cube1", "gdelta2"):
        X = fixture(name).complex
        D = build_dual(X)
        assert D.complex.dim == X.dim, name
        assert all(D.heights[v] == X.cells[v].dim for v in D.complex.vertices)
        report = verify_dual_axioms(D)
        assert {n for n, s, _d in report.checks if s == "pass"} == {
            "edge-heights",
            "square-heights",
            "cube-intervals",
            "links-flag",
            "sublinks-flag",
            "interval-complete",
        }, (name, report.checks)
    _verdict("criterion 3 (dual axioms)", t0, budget=60)


def test_criterion_4_mirrors_separate_their_framings():
    t0 = time.monotonic()
    for name in simply_connected_names():
        f = fixture(name)
        D = build_dual(f.complex)
        for M in mirrors(f.complex, f.labels):
            sep = mirror_separates(f.complex, M)
            assert sep.separates, (name, M.index)
            components, _component_of = reference.complement_components(D, M)
            assert sep.n_components == len(components), (name, M.index)
    spine = mirrors(fixture("book3").complex, fixture("book3").labels)[2]
    assert (spine.coordinate, spine.side) == (1, 0)
    assert mirror_separates(fixture("book3").complex, spine).n_components == 3
    _verdict("criterion 4 (mirror separation)", t0)


def test_criterion_5_loop_surgery_fuzzing():
    t0 = time.monotonic()
    total_steps = 0
    for name in simply_connected_names():
        f = fixture(name)
        D = build_dual(f.complex)
        ctx = surgery_context(D, f.labels)
        ml = ctx.mirrors
        rng = random.Random(20260819)
        for _ in range(1000):
            p = random_loop(D, rng, max_len=12)
            assert (len(p) - 1) % 2 == 0, (name, p)
            assert len(p) - 1 <= 12

            q = _strip_backtracks(p)
            mu = 0
            if len(q) > 1:
                mu = sum(crossings(ctx, q, M).count for M in ml)
            if 0 < len(q) - 1 <= 4:
                assert mu == 0, (name, p, q)

            if mu > 0:
                step = surgery_step(ctx, q)
                total_steps += 1
                assert len(step.left) - 1 < len(q) - 1
                assert len(step.right) - 1 < len(q) - 1
                assert step.projected[0] == step.bridge[0]
                assert step.projected[-1] == step.bridge[-1]
                assert len(step.projected) <= len(step.bridge) - 2

            cert = contract_loop(D, p, f.labels)
            assert verify_certificate(D, p, cert), (name, p)
            assert oracle.null_homotopic(name, D, p), (name, p)
    assert total_steps > 0
    _verdict("criterion 5 (loop surgery fuzzing)", t0, budget=120)


def test_criterion_6_torus_meridian_is_refused():
    t0 = time.monotonic()
    f = fixture("torus4")
    D = build_dual(f.complex)
    meridian = check_edge_path(D, (0, 18, 4, 30, 8, 38, 12, 19, 0))
    with pytest.raises(Unsupported):
        contract_loop(D, meridian, f.labels)
    ctx = surgery_context(D, f.labels)
    for M in ctx.mirrors:
        with pytest.raises(NonSeparatingMirror):
            crossings(ctx, meridian, M)
    _verdict("criterion 6 (honest refusal on the torus)", t0)


def test_criterion_7_decomposition_trees():
    t0 = time.monotonic()
    for name in simply_connected_names():
        f = fixture(name)
        for tree in build_all_trees(f.complex, f.labels):
            assert tree.connected, (name, tree.coordinate)
            assert tree.acyclic, (name, tree.coordinate)
    f = fixture("torus4")
    for tree in build_all_trees(f.complex, f.labels):
        assert tree.connected and not tree.acyclic
    f = fixture("sphere")
    for tree in build_all_trees(f.complex, f.labels):
        assert tree.leafless and not tree.acyclic
    _verdict("criterion 7 (decomposition trees)", t0)


def test_criterion_8_hyperplanes_are_special_and_coordinated():
    t0 = time.monotonic()
    for name in simply_connected_names():
        f = fixture(name)
        report = check_special(f.complex)
        assert report.self_intersections == ()
        assert report.self_osculations == ()
        assert report.inter_osculations == ()
        n = f.complex.dim
        for hp in hyperplanes(f.complex):
            i = hyperplane_coordinate(f.complex, f.labels, hp)
            for e in hp.edges:
                u, v = f.complex.cells[e].corners
                lu, lv = f.labels[u], f.labels[v]
                assert {j for j in range(n) if lu[j] != lv[j]} == {i}
    _verdict("criterion 8 (special hyperplanes)", t0)

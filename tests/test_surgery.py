import hashlib
import random
from dataclasses import replace

import networkx as nx
import pytest

import oracle
import reference
from cubemill import surgery
from cubemill.complexes import CubicalComplex
from cubemill.errors import (
    InternalError,
    NoCrossing,
    NonSeparatingMirror,
    NotABridge,
    NotInTile,
    Unsupported,
)
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.dual import build_dual, tops_containing
from cubemill.folding import find_folding, mirror_separates
from cubemill.formats import parse_certificate, serialize_certificate
from cubemill.surgery import (
    BacktrackRemoval,
    MoveChain,
    Rotate,
    Split,
    SquareSlide,
    _first_crossing,
    _shortest_path,
    _strip_backtracks,
    check_edge_path,
    contract_in_tile,
    contract_loop,
    crossings,
    is_loop,
    make_efficient,
    minimal_bridge,
    project_bridge,
    random_loop,
    rotate_loop,
    surgery_context,
    surgery_step,
    verify_certificate,
)
from helpers import (
    LARGER_COMPLEXES,
    annulus,
    deep_certificate_text,
    dual_of,
    fuzz_contractions,
    grid_squares,
    mirror_list,
    simply_connected_names,
    winding_number,
)


def _ctx(name):
    return surgery_context(dual_of(name), fixture(name).labels)


def _mu(name, p):
    ctx = _ctx(name)
    return sum(crossings(ctx, p, M).count for M in ctx.mirrors)


# ---------------------------------------------------------------------------
# paths


def test_check_edge_path_accepts_dual_edges():
    D = dual_of("sq1")
    e = D.complex.by_dim[1][0]
    u, v = D.complex.cells[e].corners
    assert check_edge_path(D, (u, v)) == (u, v)


def test_check_edge_path_rejects_non_edges():
    D = dual_of("sq1")
    verts = D.complex.vertices
    u = verts[0]
    with pytest.raises(ValueError):
        check_edge_path(D, (u, u))
    with pytest.raises(ValueError):
        check_edge_path(D, ())
    far = [v for v in verts if not D.adjacent(u, v) and v != u]
    with pytest.raises(ValueError):
        check_edge_path(D, (u, far[0]))


def test_rotate_loop():
    p = (1, 2, 3, 1)
    assert rotate_loop(p, 1) == (2, 3, 1, 2)
    assert rotate_loop(p, 3) == p
    with pytest.raises(ValueError):
        rotate_loop((1, 2, 3), 1)


def test_random_loops_are_even_and_short():
    rng = random.Random(99)
    for name in simply_connected_names():
        D = dual_of(name)
        for _ in range(50):
            p = random_loop(D, rng, max_len=12)
            assert is_loop(p)
            assert len(p) - 1 <= 12
            assert (len(p) - 1) % 2 == 0
            check_edge_path(D, p)


def _reference_loop(g, rng, max_len):
    """random_loop on a networkx graph, closed by nx.shortest_path."""
    start = rng.choice(sorted(g.nodes))
    walk = [start]
    for _ in range(max_len // 2):
        walk.append(rng.choice(sorted(g.neighbors(walk[-1]))))
    return tuple(walk + nx.shortest_path(g, walk[-1], start)[1:])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_random_loop_and_shortest_path_match_networkx(name):
    D = dual_of(name)
    g = oracle.dual_graph(D)
    for seed in range(500):
        max_len = 2 + seed % 23
        got = random_loop(D, random.Random(seed), max_len)
        assert got == _reference_loop(g, random.Random(seed), max_len), (name, seed)
    rng = random.Random(name)
    for _ in range(200):
        s, t = rng.choice(D.complex.vertices), rng.choice(D.complex.vertices)
        assert _shortest_path(D.skeleton(), s, t) == nx.shortest_path(g, s, t)


# ---------------------------------------------------------------------------
# crossings


def test_loop_in_tile_has_zero_crossings():
    name = "grid2"
    D = dual_of(name)
    t = D.source.top_cells()[0]
    verts = sorted(D.source.subcells(t))
    v0 = verts[0]
    nbr = [v for v in verts if D.adjacent(v0, v)][0]
    p = (v0, nbr, v0)
    assert tops_containing(D, set(p))
    assert _mu(name, p) == 0


def test_crossing_detected_on_grid():
    # walk from the left column tile across the middle line and back
    name = "grid2"
    D = dual_of(name)
    f = fixture(name)
    rng = random.Random(4)
    found = 0
    for _ in range(300):
        p = random_loop(D, rng, max_len=10)
        mu = _mu(name, p)
        if mu > 0:
            found += 1
            assert not tops_containing(D, set(p))
    assert found > 0


def test_crossings_on_non_separating_mirror_raise():
    D = dual_of("torus4")
    M = mirror_list("torus4")[0]
    t = D.source.top_cells()[0]
    with pytest.raises(NonSeparatingMirror):
        crossings(_ctx("torus4"), (t,), M)


def test_crossings_take_loops_only():
    name = "grid2"
    ctx = _ctx(name)
    p = _crossing_loop(name, random.Random(6))
    with pytest.raises(ValueError):
        crossings(ctx, p[:-1], ctx.mirrors[0])
    for v in ctx.D.complex.vertices:
        assert all(crossings(ctx, (v,), M).count == 0 for M in ctx.mirrors)


def test_crossings_refuse_a_path_that_skips_off_the_region():
    ctx = _ctx("grid2")
    M = ctx.mirrors[0]
    v = min(M.cells)
    # a vertex off the region that no dual edge joins to it
    far = min(
        u for u in ctx.D.complex.vertices if u not in M.cells and u not in ctx.sides[M.index]
    )
    with pytest.raises(ValueError):
        crossings(ctx, (far, v, far), M)


def _side_cases():
    for name in FIXTURE_NAMES:
        yield name, _ctx(name)
    for name, build in LARGER_COMPLEXES.items():
        X = build()
        yield name, surgery_context(build_dual(X), find_folding(X))


def test_sides_label_each_flank_by_its_complement_component():
    for name, ctx in _side_cases():
        adj = ctx.D.skeleton()
        for M in ctx.mirrors:
            sides = ctx.sides[M.index]
            separates = mirror_separates(ctx.D.source, M).separates
            assert (sides is not None) == separates, (name, M.index)
            if sides is None:
                continue
            flank = sorted({w for v in M.cells for w in adj[v] if w not in M.cells})
            _components, component_of = reference.complement_components(ctx.D, M)
            least = {}
            for v in flank:
                least.setdefault(component_of[v], v)
            assert sides == {v: least[component_of[v]] for v in flank}, (name, M.index)
    assert all(sides is None for sides in _ctx("torus4").sides)


def test_short_reduced_loops_never_cross():
    # a backtrack-free loop of length <= 4 bounds a square or an edge, so it
    # stays in a tile; with backtracks a length-4 wedge can cross a mirror
    # twice, e.g. out and back over the book spine
    for name in simply_connected_names():
        D = dual_of(name)
        rng = random.Random(hash(name) % 100000)
        for _ in range(100):
            p = _strip_backtracks(random_loop(D, rng, max_len=4))
            assert _mu(name, p) == 0, (name, p)
            assert tops_containing(D, set(p))


def test_degenerate_short_wedge_crosses_the_spine():
    name = "book3"
    D = dual_of(name)
    X = D.source
    (spine,) = [M for M in mirror_list(name) if (M.coordinate, M.side) == (1, 0)]
    v = min(c for c in spine.cells if X.cells[c].dim == 0)
    off = sorted(
        u for u in D.complex.vertices if D.adjacent(v, u) and u not in spine.cells
    )
    a, b = off[0], off[-1]
    _components, component_of = reference.complement_components(D, spine)
    assert component_of[min(tops_containing(D, {a}))] != component_of[
        min(tops_containing(D, {b}))
    ]
    p = (a, v, b, v, a)
    assert crossings(_ctx(name), p, spine).count == 2
    assert _strip_backtracks(p) == (a,)
    cert = contract_loop(D, p, fixture(name).labels)
    assert verify_certificate(D, p, cert)


# ---------------------------------------------------------------------------
# efficiency and in-tile contraction


def test_make_efficient_single_peak():
    D = dual_of("cube1")
    rng = random.Random(12)
    for _ in range(100):
        p = random_loop(D, rng, max_len=8)
        if not tops_containing(D, set(p)):
            continue
        q, moves = make_efficient(D, p)
        hs = [D.heights[v] for v in q]
        peaks = [
            j
            for j in range(1, len(hs) - 1)
            if hs[j - 1] < hs[j] and hs[j] > hs[j + 1]
        ]
        if len(q) > 1:
            assert len(peaks) <= 1, (p, q, hs)


def test_contract_in_tile_ends_constant():
    D = dual_of("sq1")
    rng = random.Random(5)
    for _ in range(100):
        p = random_loop(D, rng, max_len=10)
        q, moves = contract_in_tile(D, p)
        assert len(q) == 1
        cert = MoveChain(tuple(moves))
        assert verify_certificate(D, p, cert)


def test_contract_in_tile_rejects_crossing_loop():
    name = "grid2"
    D = dual_of(name)
    rng = random.Random(4)
    p = None
    while p is None or _mu(name, p) == 0:
        p = random_loop(D, rng, max_len=10)
    with pytest.raises(NotInTile):
        contract_in_tile(D, p)


# ---------------------------------------------------------------------------
# bridges and projection


def _crossing_loop(name, rng, max_len=10):
    D = dual_of(name)
    while True:
        p = random_loop(D, rng, max_len=max_len)
        if _mu(name, p) > 0:
            return p


def test_minimal_bridge_is_minimal():
    name = "grid2"
    ml = mirror_list(name)
    rng = random.Random(21)
    for _ in range(20):
        p = _crossing_loop(name, rng)
        br = minimal_bridge(_ctx(name), p)
        M = ml[br.support_index]
        region = M.cells
        assert br.path[0] in region and br.path[-1] in region
        assert any(v not in region for v in br.path)
        # no proper subpath is itself a bridge over any mirror
        inner = br.path[1:-1]
        for N in ml:
            reg = N.cells
            for i in range(len(inner)):
                for j in range(i + 1, len(inner)):
                    sub = inner[i : j + 1]
                    if len(sub) < 2:
                        continue
                    if sub[0] in reg and sub[-1] in reg:
                        assert all(v in reg for v in sub), (br, N.index)


def _reference_minimal_bridge(ctx, p):
    """The bridge rule by its definition, as (start, length, path, support).

    A bridge is a subpath whose ends lie in a mirror region and that leaves
    it, tagged with the least such mirror; a minimal bridge contains no other
    bridge; the least minimal bridge has the least start, then the least
    length. None when the path has no bridge.
    """
    found = {}
    for M in ctx.mirrors:
        inside = [v in M.cells for v in p]
        for a in range(len(p)):
            for b in range(a + 1, len(p)):
                if inside[a] and inside[b] and not all(inside[a : b + 1]):
                    found.setdefault((a, b), M.index)
    minimal = [
        (a, b)
        for (a, b) in found
        if not any((c, d) != (a, b) and a <= c and d <= b for (c, d) in found)
    ]
    if not minimal:
        return None
    a, b = min(minimal)
    return a, b - a, p[a : b + 1], found[a, b]


def _bridge_contexts():
    for name in simply_connected_names():
        yield name, _ctx(name)
    X = CubicalComplex.from_maximal_cells(grid_squares(6))
    yield "grid6x6", surgery_context(build_dual(X), find_folding(X))


def test_minimal_bridge_matches_the_reference():
    cases = 0
    for name, ctx in _bridge_contexts():
        rng = random.Random(f"bridges {name}")
        for _ in range(150):
            p = random_loop(ctx.D, rng, max_len=2 + rng.randrange(15))
            a = rng.randrange(len(p))
            b = rng.randrange(a, len(p))
            for q in (p, p[a : b + 1], _strip_backtracks(p)):
                want = _reference_minimal_bridge(ctx, q)
                if want is None:
                    with pytest.raises(NotABridge):
                        minimal_bridge(ctx, q)
                else:
                    br = minimal_bridge(ctx, q)
                    got = (br.start, len(br.path) - 1, br.path, br.support_index)
                    assert got == want, (name, q)
                cases += 1
    assert cases >= 2000


def test_no_bridge_inside_mirror_region():
    name = "grid2"
    D = dual_of(name)
    ml = mirror_list(name)
    M = ml[0]
    region = sorted(M.cells)
    a = region[0]
    b = next(v for v in region if D.adjacent(a, v))
    with pytest.raises(NotABridge):
        project_bridge(_ctx(name), (a, b), M)


def test_project_bridge_shortens_and_fixes_endpoints():
    rng = random.Random(31)
    for name in ("grid2", "book3"):
        ctx = _ctx(name)
        for _ in range(25):
            p = _crossing_loop(name, rng)
            br = minimal_bridge(ctx, p)
            M = ctx.mirrors[br.support_index]
            proj = project_bridge(ctx, br.path, M)
            assert proj[0] == br.path[0]
            assert proj[-1] == br.path[-1]
            assert len(proj) <= len(br.path) - 2


def _outcome(f, *args):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - errors are compared, not handled
        return type(e), str(e)


def _gap_paths(p, prof):
    """Each gap between consecutive crossing runs, as the split walks it."""
    n = len(p) - 1
    runs = [r for r, flag in zip(prof.runs, prof.crossing_flags) if flag]
    for r, nxt in zip(runs, runs[1:] + runs[:1]):
        length = (nxt[0] - r[-1]) % n or n
        yield rotate_loop(p, r[-1])[: length + 1]


def _check_projections(ctx, q):
    """Compare the projections of ``q`` onto every mirror holding both its
    ends, or the errors they raise, with the all-mirror reference: first on
    an empty image table for the mirror, then on the table that call left."""
    for M in ctx.mirrors:
        if q[0] in M.cells and q[-1] in M.cells:
            want = _outcome(reference.project_bridge, ctx, q, M)
            ctx.images.pop(M.index, None)
            assert _outcome(project_bridge, ctx, q, M) == want, (q, M.index, "cold")
            assert _outcome(project_bridge, ctx, q, M) == want, (q, M.index, "warm")


def _check_bridge_against_reference(ctx, q):
    """Compare the least minimal bridge of ``q`` and its projections with
    their references; 1 when ``q`` has a bridge, else 0."""
    want = _reference_minimal_bridge(ctx, q)
    if want is None:
        with pytest.raises(NotABridge):
            minimal_bridge(ctx, q)
        return 0
    br = minimal_bridge(ctx, q)
    assert (br.start, len(br.path) - 1, br.path, br.support_index) == want, q
    _check_projections(ctx, br.path)
    return 1


def test_the_image_table_keeps_each_projected_cell_of_its_mirror():
    f = fixture("grid2")
    ctx = surgery_context(build_dual(f.complex), f.labels)
    rng = random.Random(41)
    for _ in range(10):
        br = minimal_bridge(ctx, _crossing_loop("grid2", rng))
        M = ctx.mirrors[br.support_index]
        proj = project_bridge(ctx, br.path, M)
        table = ctx.images[M.index]
        assert set(br.path) <= set(table)
        assert set(proj) <= {table[v] for v in br.path} <= M.cells
        assert project_bridge(ctx, br.path, M) == proj


def test_a_foreign_mirror_neither_reads_nor_fills_the_image_table():
    f = fixture("grid2")
    ctx = surgery_context(build_dual(f.complex), f.labels)
    rng = random.Random(43)
    br = minimal_bridge(ctx, _crossing_loop("grid2", rng, max_len=12))
    while len(br.path) < 4:
        br = minimal_bridge(ctx, _crossing_loop("grid2", rng, max_len=12))
    M = ctx.mirrors[br.support_index]
    # the same index and another cell set; the table of the index holds
    # images that no projection gives, so a read would show
    foreign = replace(M, cells=M.cells | {br.path[1]})
    wrong = next(v for v in ctx.D.heights if v not in M.cells)
    ctx.images[M.index] = poisoned = {v: wrong for v in br.path}
    want = _outcome(reference.project_bridge, ctx, br.path, foreign)
    assert _outcome(project_bridge, ctx, br.path, foreign) == want
    assert ctx.images == {M.index: {v: wrong for v in br.path}}
    assert ctx.images[M.index] is poisoned
    # the context's own mirror reads the poisoned table and is caught by the
    # checks that run after the image loop on every call
    with pytest.raises(InternalError):
        project_bridge(ctx, br.path, M)


@pytest.mark.parametrize("name", [*simply_connected_names(), "grid6x6"])
def test_a_warm_image_table_gives_the_certificates_of_a_cold_one(name):
    if name in LARGER_COMPLEXES:
        X = LARGER_COMPLEXES[name]()
        labels = find_folding(X)
    else:
        X, labels = fixture(name).complex, fixture(name).labels
    shared = build_dual(X)
    rng = random.Random(f"warm table {name}")
    splits = 0
    for _ in range(150):
        p = random_loop(shared, rng, max_len=16)
        warm = contract_loop(shared, p, labels)
        cold = contract_loop(build_dual(X), p, labels)
        assert serialize_certificate(warm) == serialize_certificate(cold), p
        splits += isinstance(warm, Split)
    # sq1 and cube1 are one tile each: nothing splits and nothing is projected
    assert any(surgery_context(shared, labels).images.values()) == (splits > 0)
    assert (splits > 0) == (name not in ("sq1", "cube1"))


def test_mirror_local_scans_match_the_full_scans():
    bridges = 0
    for name, ctx in _side_cases():
        if ctx.refusal is not None:
            continue
        rng = random.Random(f"mirror-local {name}")
        for _ in range(200):
            p = random_loop(ctx.D, rng, max_len=2 + rng.randrange(15))
            hit = _first_crossing(ctx, p)
            assert hit == reference.first_crossing(ctx, p), (name, p)
            _check_projections(ctx, p)
            if hit is not None:
                for gap in _gap_paths(p, hit[1]):
                    bridges += _check_bridge_against_reference(ctx, gap)
    assert bridges >= 500


def test_mirror_local_scans_refuse_as_the_full_scans():
    ctx = _ctx("torus4")
    assert ctx.refusal is not None
    rng = random.Random("mirror-local torus4")
    refused = 0
    for _ in range(200):
        p = random_loop(ctx.D, rng, max_len=2 + rng.randrange(15))
        got = _outcome(_first_crossing, ctx, p)
        assert got == _outcome(reference.first_crossing, ctx, p), p
        refused += got[0] is NonSeparatingMirror
        _check_bridge_against_reference(ctx, p)
        _check_projections(ctx, p)
    assert refused > 0


def _count_separation_checks(monkeypatch):
    """The indices of the mirrors surgery checks for separation, in order."""
    calls = []
    check = surgery.mirror_separates
    monkeypatch.setattr(
        surgery, "mirror_separates", lambda X, M: calls.append(M.index) or check(X, M)
    )
    return calls


@pytest.mark.parametrize("name", ["torus4", "sphere"])
def test_a_refused_context_stops_at_its_first_non_separating_mirror(monkeypatch, name):
    # sphere is hyperbolized boundary of the 3-simplex: 94 mirrors, and only
    # the last separates
    calls = _count_separation_checks(monkeypatch)
    f = fixture(name)
    D = build_dual(f.complex)
    ctx = surgery_context(D, f.labels)
    assert ctx.refusal is ctx.mirrors[0]
    assert calls == [0]
    p = (D.complex.vertices[0],)
    with pytest.raises(Unsupported, match="^mirror 0 does not separate$"):
        contract_loop(D, p, f.labels)
    with pytest.raises(NonSeparatingMirror, match="^mirror 0 does not separate$"):
        _first_crossing(ctx, p)
    assert calls == [0]


def test_a_refused_context_reads_later_mirrors_on_first_use(monkeypatch):
    # gdelta2 refuses at mirror 0 and its mirror 7 separates; reading the
    # mirrors in a shuffled order gives what reading all of them first gives
    f = fixture("gdelta2")
    D = build_dual(f.complex)
    ctx = surgery_context(D, f.labels)
    eager = surgery_context(build_dual(f.complex), f.labels)
    assert [s is None for s in eager.sides] == [True] * 7 + [False]
    calls = _count_separation_checks(monkeypatch)
    rng = random.Random("refused gdelta2")
    order = list(ctx.mirrors)
    rng.shuffle(order)
    for _ in range(60):
        p = random_loop(D, rng, max_len=2 + rng.randrange(15))
        for M in order:
            got = _outcome(crossings, ctx, p, M)
            assert got == _outcome(crossings, eager, p, eager.mirrors[M.index]), (p, M.index)
        assert _outcome(minimal_bridge, ctx, p) == _outcome(minimal_bridge, eager, p), p
    # each mirror after the refusal was checked once, on its first read
    assert sorted(calls) == list(range(1, 8))


def test_contraction_reads_only_the_mirrors_a_loop_touches(monkeypatch):
    X = CubicalComplex.from_maximal_cells(grid_squares(24))
    labels = find_folding(X)
    D = build_dual(X)
    assert len(surgery_context(D, labels).mirrors) == 50
    rng = random.Random(24)
    loops = [random_loop(D, rng, 12) for _ in range(50)]
    calls = 0
    scan = surgery.crossings

    def counted(*args):
        nonlocal calls
        calls += 1
        return scan(*args)

    monkeypatch.setattr(surgery, "crossings", counted)
    for p in loops:
        contract_loop(D, p, labels)
    assert calls < 12 * len(loops)


# ---------------------------------------------------------------------------
# surgery


def test_surgery_step_children_strictly_shorter():
    rng = random.Random(41)
    for name in ("grid2", "book3"):
        ctx = _ctx(name)
        for _ in range(25):
            p = _crossing_loop(name, rng)
            step = surgery_step(ctx, p)
            assert len(step.left) - 1 <= len(p) - 3
            assert len(step.right) - 1 <= len(p) - 3
            assert is_loop(step.left) and is_loop(step.right)
            rotated = rotate_loop(p, step.rotate)
            assert rotated[: len(step.bridge)] == step.bridge


def test_surgery_step_requires_a_crossing():
    name = "sq1"
    D = dual_of(name)
    rng = random.Random(3)
    p = random_loop(D, rng, max_len=6)
    assert _mu(name, p) == 0
    with pytest.raises(NoCrossing):
        surgery_step(_ctx(name), p)


# ---------------------------------------------------------------------------
# full contraction with certificates


def test_contract_and_verify_sample():
    rng = random.Random(61)
    for name in simply_connected_names():
        D = dual_of(name)
        labels = fixture(name).labels
        for _ in range(100):
            p = random_loop(D, rng, max_len=12)
            cert = contract_loop(D, p, labels)
            assert verify_certificate(D, p, cert), (name, p)
            assert oracle.null_homotopic(name, D, p)


def test_certificate_is_loop_specific():
    D = dual_of("grid2")
    labels = fixture("grid2").labels
    rng = random.Random(71)
    p = random_loop(D, rng, max_len=8)
    q = random_loop(D, rng, max_len=8)
    while q == p:
        q = random_loop(D, rng, max_len=8)
    cert = contract_loop(D, p, labels)
    assert verify_certificate(D, p, cert)
    assert not verify_certificate(D, q, cert)


def _first_split(cert):
    if isinstance(cert, Split):
        return cert
    return None


def test_forged_certificates_rejected():
    name = "grid2"
    D = dual_of(name)
    labels = fixture(name).labels
    rng = random.Random(81)

    # a chain certificate with a tampered slide
    p = None
    cert = None
    while True:
        p = random_loop(D, rng, max_len=10)
        cert = contract_loop(D, p, labels)
        if isinstance(cert, MoveChain) and any(
            isinstance(m, SquareSlide) for m in cert.moves
        ):
            break
    assert verify_certificate(D, p, cert)
    moves = list(cert.moves)
    k = next(i for i, m in enumerate(moves) if isinstance(m, SquareSlide))
    moves[k] = replace(moves[k], w=moves[k].w + 1)
    assert not verify_certificate(D, p, MoveChain(tuple(moves)))

    # a truncated chain no longer ends at a point
    assert not verify_certificate(D, p, MoveChain(tuple(cert.moves[:-1])))

    # an out-of-range rotate
    assert not verify_certificate(
        D, p, MoveChain((Rotate(len(p) + 5),) + tuple(cert.moves))
    )

    # a split with a tampered projection
    while True:
        p = random_loop(D, rng, max_len=12)
        cert = contract_loop(D, p, labels)
        s = _first_split(cert)
        if s is not None:
            break
    assert verify_certificate(D, p, cert)
    bad = replace(s, projected=s.projected + (s.projected[-1],))
    assert not verify_certificate(D, p, bad)
    bad = replace(s, bridge=s.bridge[:-1])
    assert not verify_certificate(D, p, bad)
    bad = replace(s, rotate=(s.rotate + 1) % (len(p) - 1))
    assert not verify_certificate(D, p, bad) or s.rotate == (s.rotate + 1) % (
        len(p) - 1
    )


# On grid2's dual, square 65 has corners 0, 9, 10, 21 at heights 0, 1, 1, 2
# and edge 25 joins 0 and 9. The loop around the square contracts by sliding
# its top corner down and dropping two backtracks; a split that cuts off the
# backtrack 0, 9, 0 hands the same loop on to its right child.
SQUARE_LOOP = (0, 9, 21, 10, 0)
SQUARE_CHAIN = MoveChain((SquareSlide(2, 0, 65), BacktrackRemoval(0), BacktrackRemoval(0)))
BACKTRACK = MoveChain((BacktrackRemoval(0),))
SQUARE_SPLIT = Split(0, 0, 0, (0, 9), (0, 9), BACKTRACK, SQUARE_CHAIN)


def _square_chain_from(slide):
    """The square loop's chain with its first slide replaced."""
    return MoveChain((slide,) + SQUARE_CHAIN.moves[1:])


# Each certificate breaks one rule of replay, so a replay that skipped that
# rule would accept it or fail on it. Three break a second rule as well: a
# slide on an edge repeats a vertex, a slide with a repeated vertex cannot
# match a square's four corners, and a constant loop has no rotation in range.
FORGED = {
    "slide-index-out-of-range": (SQUARE_LOOP, _square_chain_from(SquareSlide(-3, 0, 65))),
    "slide-unknown-cell": (SQUARE_LOOP, _square_chain_from(SquareSlide(2, 0, 10**6))),
    "slide-on-an-edge": ((0, 9, 0), MoveChain((SquareSlide(1, 0, 25), BacktrackRemoval(0)))),
    "slide-wrong-corners": (SQUARE_LOOP, _square_chain_from(SquareSlide(2, 0, 66))),
    "slide-repeated-vertex": ((0, 9, 0), MoveChain((SquareSlide(1, 21, 65), BacktrackRemoval(0)))),
    "not-an-edge-path": ((0, 21, 0), BACKTRACK),
    "open-path": (SQUARE_LOOP[:-1], SQUARE_SPLIT),
    "split-of-a-constant-loop": ((0,), SQUARE_SPLIT),
    "split-rotation-out-of-range": (SQUARE_LOOP, replace(SQUARE_SPLIT, rotate=4)),
    "unknown-node": ((0, 9, 0), BACKTRACK.moves),
    "unknown-move": ((0, 9, 0), MoveChain(("backtrack", BacktrackRemoval(0)))),
}


def test_hand_made_square_certificates_verify():
    D = dual_of("grid2")
    assert verify_certificate(D, SQUARE_LOOP, SQUARE_CHAIN)
    assert verify_certificate(D, SQUARE_LOOP, SQUARE_SPLIT)


@pytest.mark.parametrize("case", sorted(FORGED))
def test_replay_rejects_each_forgery(case):
    p, cert = FORGED[case]
    assert not verify_certificate(dual_of("grid2"), p, cert)


def test_deep_certificates_parse_and_replay():
    name = "grid2"
    D = dual_of(name)
    p = _crossing_loop(name, random.Random(8))
    inner = serialize_certificate(contract_loop(D, p, fixture(name).labels))
    good = parse_certificate(deep_certificate_text(p, inner, 5000))
    assert verify_certificate(D, p, good)
    bad = parse_certificate(deep_certificate_text(p, "chain\nend\n", 5000))
    assert not verify_certificate(D, p, bad)


def test_contract_refuses_unsupported_space():
    D = dual_of("torus4")
    labels = fixture("torus4").labels
    t = D.source.top_cells()[0]
    with pytest.raises(Unsupported):
        contract_loop(D, (t,), labels)


def test_one_dual_complex_serves_two_foldings():
    for name in ("sq1", "grid2"):
        f = fixture(name)
        swapped = {v: tuple(reversed(lab)) for v, lab in f.labels.items()}
        shared = build_dual(f.complex)
        rng = random.Random(7)
        loops = [random_loop(shared, rng, max_len=12) for _ in range(40)]
        certs = {}
        for key, labels in (("a", f.labels), ("b", swapped), ("a", dict(f.labels)), ("b", swapped)):
            for p in loops:
                cert = contract_loop(shared, p, labels)
                assert cert == contract_loop(build_dual(f.complex), p, labels), (name, key, p)
                assert certs.setdefault((key, p), cert) == cert
        # equal foldings share one context; the swapped folding has its own
        assert len(shared._surgery) == 2
        assert surgery_context(shared, dict(f.labels)) is surgery_context(shared, f.labels)
        if name == "grid2":
            assert any(certs["a", p] != certs["b", p] for p in loops)


def test_a_kept_context_is_found_by_the_labels_it_copied():
    f = fixture("grid2")
    D = build_dual(f.complex)
    labels = dict(f.labels)
    first = surgery_context(D, labels)
    assert surgery_context(D, dict(f.labels)) is first
    # a later change to the caller's dict reaches neither the kept copy nor
    # the lookup: the changed labels get their own context
    labels.update({v: tuple(reversed(lab)) for v, lab in f.labels.items()})
    second = surgery_context(D, labels)
    assert second is not first and second.labels == labels
    assert first.labels == f.labels
    assert surgery_context(D, dict(f.labels)) is first
    assert len(D._surgery) == 2


def test_torus_meridian_is_refused_on_every_call():
    f = fixture("torus4")
    D = build_dual(f.complex)
    meridian = (0, 18, 4, 30, 8, 38, 12, 19, 0)
    for _ in range(2):
        with pytest.raises(Unsupported) as refused:
            contract_loop(D, meridian, f.labels)
        # the refusal itself, not a NonSeparatingMirror from inside surgery
        assert type(refused.value) is Unsupported


ANNULUS_LOOP = (104, 64, 108, 65, 21, 73, 20, 71, 107, 63, 14, 52, 8, 51, 9, 53, 104)


def test_a_bridge_around_the_hole_is_refused_outside_a_tile():
    X = annulus()
    labels = find_folding(X)
    D = build_dual(X)
    assert winding_number(X, ANNULUS_LOOP) == 1
    for _ in range(2):
        with pytest.raises(NotInTile, match="^no tile meeting mirror 7 carries the visited cell 73$"):
            contract_loop(D, ANNULUS_LOOP, labels)
        # the refused cell gets no image, so every call refuses it afresh
        assert 73 not in surgery_context(D, labels).images.get(7, {})


def test_annulus_loops_contract_or_are_refused_outside_a_tile():
    X = annulus()
    labels = find_folding(X)
    D = build_dual(X)
    rng = random.Random(0)
    refused = {}
    for _ in range(2000):
        p = random_loop(D, rng, max_len=40)
        w = winding_number(X, p)
        try:
            cert = contract_loop(D, p, labels)
        except NotInTile as e:
            # a refusal, never an InternalError or a CarrierViolation
            key = "bridge" if str(e).startswith("no tile meeting mirror") else "leaf"
            refused.setdefault(key, set()).add(w)
            continue
        assert verify_certificate(D, p, cert), p
        assert w == 0, p
    # loops winding either way round the hole are refused at a projection
    assert refused["bridge"] >= {-1, 1}


# SHA-256 of the 300 certificate texts in order; a change means the
# certificates changed, not only the code that finds them
@pytest.mark.parametrize(
    "name, digest",
    [
        ("grid6x6", "3acc2dfcad9b7eccc45965691eaab3451344d739b3754b7b14520046e7905a28"),
        ("cubes3x3x3", "e85127280c74afab19be066d0b2cd1b8a9f50fd1a4b746e38f0132db79a304ac"),
        ("strip8", "ab7184c0c821ab9564c86d82c0b8bb877c4f3a194c449d829f529630865b2d18"),
    ],
    ids=list(LARGER_COMPLEXES),
)
def test_contraction_fuzz_on_larger_complexes(name, digest):
    D, contractions = fuzz_contractions(name)
    splits = 0
    h = hashlib.sha256()
    for p, cert in contractions:
        assert verify_certificate(D, p, cert), p
        assert oracle.null_homotopic(name, D, p), p
        splits += isinstance(cert, Split)
        h.update(serialize_certificate(cert).encode())
    assert splits > 0
    assert h.hexdigest() == digest


def test_split_depth_bounded_by_length():
    rng = random.Random(91)
    name = "book3"
    D = dual_of(name)
    labels = fixture(name).labels

    def depth(c):
        if isinstance(c, Split):
            return 1 + max(depth(c.left), depth(c.right))
        return 0

    for _ in range(100):
        p = random_loop(D, rng, max_len=12)
        cert = contract_loop(D, p, labels)
        assert depth(cert) <= (len(p) - 1) // 2

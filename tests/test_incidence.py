"""Local incidence scans against the all-pairs definitions they replace.

Framings, strict validation, the maximal common faces of relaxed validation,
the edges at a cube corner, links, the cubical subdivision, hyperplane
carriers and chambers are found from vertex, corner-pair, coface, per-cell
face and top-adjacency indexes, the dual axioms check sublinks only under
links that are not flag, mirror separation takes one chamber walk per
(coordinate, side) class and counts framings by coface, and checked strict
closures carry their relaxed verdict unscanned; ``reference`` keeps the
direct definitions. Outputs must agree in full, order included.
"""

import json
import random
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings, strategies as st

import reference
from cubemill import complexes, formats
from cubemill.cli import main
from cubemill.complexes import (
    Cube,
    CubicalComplex,
    array_dim,
    cubical_subdivision,
    face_array,
    link_masks,
    mask_bits,
    name_key,
    validate_cubical,
    verify_cw,
)
from cubemill.curvature import check_npc, check_special, hyperplanes
from cubemill.dual import DualComplex, build_dual, verify_dual_axioms
from cubemill.errors import CellNotFound, NotAdmissible, NotFoldable, Unsupported
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import (
    chambers_avoiding,
    find_folding,
    framings,
    mirror_separates,
    mirrors,
)
from cubemill.gromov import boundary_complex, gromov_hyperbolize
from cubemill.surgery import surgery_context
from helpers import (
    annulus,
    cube_grid_cells,
    doubled_square_lists,
    grid_squares,
    outcome,
    rose,
    strip,
)

CASES = (
    *FIXTURE_NAMES,
    "gromov_boundary2",
    "gromov_boundary3",
    "strip8",
    "grid6x6",
    "cubes3x3x3",
)


@lru_cache(maxsize=None)
def case(name):
    """The complex and folding of a named case."""
    if name in FIXTURE_NAMES:
        f = fixture(name)
        return f.complex, f.labels
    if name.startswith("gromov_boundary"):
        r = gromov_hyperbolize(boundary_complex(int(name[-1])))
        return r.complex, r.folding
    if name == "strip8":
        X = strip(8)
    else:
        cells = grid_squares(6) if name == "grid6x6" else cube_grid_cells(3)
        X = CubicalComplex.from_maximal_cells(cells)
    return X, find_folding(X)


@lru_cache(maxsize=None)
def case_mirrors(name):
    return tuple(mirrors(*case(name)))


def test_hyperbolized_cases_are_cw_with_doubled_cells():
    assert case("gromov_boundary2")[0].kind == "cw"  # a hexagon
    X, _labels = case("gromov_boundary3")
    assert X.kind == "cw"
    corner_sets = [frozenset(c.corners) for c in X.cells.values()]
    assert len(set(corner_sets)) < len(corner_sets)


@pytest.mark.parametrize("name", CASES)
def test_framings_match_the_all_pairs_definition(name):
    X, _labels = case(name)
    for M in case_mirrors(name):
        assert framings(X, M) == reference.framings(X, M), (name, M.index)


@pytest.mark.parametrize("name", CASES)
def test_framings_test_only_pairs_at_the_mirror(name):
    # each candidate pair meets at a vertex of the mirror; scanning every
    # vertex, or every pair of top cells, tests far more
    X, _labels = case(name)
    for c in X.cells:
        X.subcells(c)  # memoized, so counted calls below do not recurse
    subcells = X.subcells
    calls = []

    def counted(cid):
        calls.append(cid)
        return subcells(cid)

    X.subcells = counted
    try:
        for M in case_mirrors(name):
            bound = 0
            for c in M.cells:
                if X.cells[c].dim == 0:
                    at = X.cells_at_vertex[X.cells[c].corners[0]]
                    bound += comb(sum(1 for t in at if not X.cofaces[t]), 2)
            calls.clear()
            framings(X, M)
            assert len(calls) <= 2 * bound, (name, M.index)
    finally:
        del X.subcells


def _corner_families(X):
    cells = [X.cells[c].corners for c in sorted(X.cells)]
    tops = [X.cells[t].corners for t in X.top_cells()]
    return [cells, tops, tops[::-1]]


@pytest.mark.parametrize("name", CASES)
def test_validation_matches_the_pairwise_definition(name):
    X, _labels = case(name)
    for lists in _corner_families(X):
        assert validate_cubical(lists) == reference.validate_cubical(lists), name
    whole = validate_cubical([c.corners for c in X.cells.values()])
    if X.kind == "cubical":
        assert whole.ok
    elif len({frozenset(c.corners) for c in X.cells.values()}) < len(X.cells):
        assert not whole.ok  # doubled cells share a corner set


@st.composite
def corner_list_families(draw):
    """Small families of corner lists that collide often: corners come from a
    small pool, and later lists may repeat an earlier corner set in another
    order or put a square across an earlier cell's diagonal."""
    pool = draw(st.integers(2, 12))
    vertex = st.integers(0, pool - 1)
    lists = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("fresh", "same set", "diagonal"))) if lists else "fresh"
        wide = [c for c in lists if len(c) >= 4]
        if kind == "same set":
            lists.append(tuple(draw(st.permutations(draw(st.sampled_from(lists))))))
        elif kind == "diagonal" and wide:
            base = draw(st.sampled_from(wide))
            b = draw(st.integers(0, len(base) - 1))
            mask = draw(st.sampled_from([m for m in range(len(base)) if bin(m).count("1") >= 2]))
            x, y = draw(vertex), draw(vertex)
            lists.append((base[b], x, y, base[b ^ mask]))
        else:
            k = draw(st.integers(0, 3))
            unique = draw(st.booleans()) and 1 << k <= pool
            lists.append(
                tuple(draw(st.lists(vertex, min_size=1 << k, max_size=1 << k, unique=unique)))
            )
    return lists


@settings(max_examples=400)
@given(corner_list_families())
def test_validation_matches_on_random_families(lists):
    got = validate_cubical(lists)
    assert got.findings == reference.validate_cubical(lists).findings


def _star(n):
    return [(0, i) for i in range(1, n + 1)]


def _book(k):
    """k squares on the edge {0, 1}, in bitmask order."""
    return [(0, 1, 2 * j + 2, 2 * j + 3) for j in range(k)]


def _book_with_bad_pairs(k):
    """A book with squares that share two edges of a page, which meet at a
    corner: ``0-1`` and ``0-a`` (least shared corner 0), or ``a-b`` and
    ``b-1`` (least shared corner 1). Each is a bad pair at both levels."""
    lists = _book(k)
    fresh = iter(range(100, 200))
    for j in (k - 1, 0, k // 2):
        a, b = 2 * j + 2, 2 * j + 3
        lists.insert(j, (0, 1, a, next(fresh)))
        lists.append((a, b, next(fresh), 1))
    return lists


STARS_AND_BOOKS = {
    "star40": _star(40),
    **{f"book{k}": _book(k) for k in (1, 2, 5, 8)},
    "book8_bad": _book_with_bad_pairs(8),
}


@pytest.mark.parametrize("name", sorted(STARS_AND_BOOKS))
def test_stars_and_books_match_the_pairwise_definitions(name):
    lists = STARS_AND_BOOKS[name]
    for family in (lists, lists[::-1]):
        got = validate_cubical(family)
        assert got == reference.validate_cubical(family)
        assert got.ok != name.endswith("bad")
    X = _glued_by_corner_sets(lists)
    got = verify_cw(X)
    assert got == reference.verify_cw(X)
    assert len(got.findings) >= (6 if name.endswith("bad") else 0)
    if got.ok:
        Y = CubicalComplex.from_maximal_cells(lists)
        assert verify_cw(Y) == reference.verify_cw(Y)
    # no cut, the hub or spine, and the cells of the first leaf or page
    hub = {0} if name.startswith("star") else {0, 1}
    for Z in (X, Y) if got.ok else (X,):
        (spine,) = [c for c in Z.by_dim[Z.dim - 1] if set(Z.cells[c].corners) == hub]
        for cut in (frozenset(), {spine}, Z.subcells(Z.top_cells()[0])):
            assert chambers_avoiding(Z, cut) == reference.chambers_avoiding(Z, cut), cut
        assert check_special(Z) == reference.check_special(Z)


@pytest.mark.parametrize("n", (3, 40, 4000))
def test_the_edges_of_a_star_form_a_chain_at_the_hub(n):
    # n - 1 links through the hub, each listed at both ends; a clique of the
    # n edges would list n(n - 1)
    X = CubicalComplex.from_maximal_cells(_star(n))
    adj = X.top_adjacency()
    assert sum(len(links) for links in adj.values()) == 2 * (n - 1)
    hub = X.zero_cell[0]
    tops = X.top_cells()
    for k, t in enumerate(tops):
        assert adj[t] == [(hub, u) for u in tops[max(k - 1, 0) : k] + tops[k + 1 : k + 2]]
    assert chambers_avoiding(X, ()) == (tuple(tops),)
    assert chambers_avoiding(X, {hub}) == tuple((t,) for t in tops)


def test_a_star_of_4000_edges_validates_and_is_cw():
    lists = _star(4000)
    assert validate_cubical(lists).ok
    assert verify_cw(CubicalComplex.from_maximal_cells(lists)).ok


def _glued_by_corner_sets(lists):
    """A cw complex with one top cell per corner list; lower faces with equal
    corner sets are one cell, so equal top corner sets stay doubled."""
    named = {}

    def add(arr, name):
        if name not in named:
            k = array_dim(arr)
            facets = []
            for i in range(k):
                for s in (0, 1):
                    face = face_array(arr, i, s)
                    facets.append(add(face, face[0] if len(face) == 1 else frozenset(face)))
            named[name] = (arr, tuple(facets))
        return name

    for idx, arr in enumerate(lists):
        add(tuple(arr), arr[0] if len(arr) == 1 else ("top", idx))
    return CubicalComplex.from_named_cells(named)


@pytest.mark.parametrize("name", CASES)
def test_relaxed_validation_matches_the_pairwise_definition(name):
    X, _labels = case(name)
    got = verify_cw(X)
    assert got == reference.verify_cw(X)
    assert verify_cw(X) is got  # the verdict is kept on the complex


def test_build_dual_reuses_the_admissibility_verdict(monkeypatch):
    # unchecked lists carry no recorded verdict, so the first request scans
    X = CubicalComplex.from_maximal_cells(grid_squares(3), check=False)
    scans = []
    scan = complexes._verify_cw
    monkeypatch.setattr(complexes, "_verify_cw", lambda X: scans.append(X) or scan(X))
    got = verify_cw(X)
    build_dual(X)
    assert verify_cw(X) is got
    assert scans == [X]


def test_relaxed_validation_matches_on_the_doubled_square():
    X = _glued_by_corner_sets(doubled_square_lists())
    got = verify_cw(X)
    assert not got.ok
    assert got == reference.verify_cw(X)


@settings(max_examples=300)
@given(corner_list_families())
def test_relaxed_validation_matches_on_random_families(lists):
    # cells are embedded, so lists with a repeated corner are left out
    lists = [arr for arr in lists if len(set(arr)) == len(arr)]
    assume(lists)
    X = _glued_by_corner_sets(lists)
    assert verify_cw(X) == reference.verify_cw(X)


def _assert_closure_is_locally_sound(X):
    # from_maximal_cells skips the local structure check: each facet is the
    # canonical form of a face of its own cube, so the check cannot fail
    X._check_local_structure()
    assert X._twisted == ()


@pytest.mark.parametrize("name", CASES)
def test_closures_pass_the_local_structure_check(name):
    X, _labels = case(name)
    if X.names is None:  # built by from_maximal_cells
        _assert_closure_is_locally_sound(X)
    _assert_closure_is_locally_sound(cubical_subdivision(X))


@settings(max_examples=300)
@given(corner_list_families())
def test_closures_of_random_families_pass_the_local_structure_check(lists):
    lists = [arr for arr in lists if len(set(arr)) == len(arr)]
    assume(lists)
    _assert_closure_is_locally_sound(CubicalComplex.from_maximal_cells(lists, check=False))


@pytest.mark.parametrize("name", ["gromov_boundary2", "gromov_boundary3", "gdelta2", "sphere"])
def test_named_cells_keep_their_order(name):
    # ids follow (dimension, canonical array, name); names only break ties
    X = fixture(name).complex if name in FIXTURE_NAMES else case(name)[0]
    cells = X.cells
    old = sorted(cells, key=lambda c: (cells[c].dim, cells[c].corners, name_key(X.names[c])))
    assert old == list(range(len(cells)))
    if name == "gromov_boundary3":
        assert len({c.corners for c in cells.values()}) < len(cells)  # ties occur
    # the same cell table listed in reverse gives the same ids
    names = X.names
    named = {}
    for c in reversed(range(len(cells))):
        corners = tuple(names[X.zero_cell[v]] for v in cells[c].corners)
        named[names[c]] = (corners, tuple(names[f] for f in cells[c].facets))
    Y = CubicalComplex.from_named_cells(named)
    assert Y.names == names and _cells(Y) == _cells(X)


@pytest.mark.parametrize("name", CASES)
def test_edges_at_corner_match_face_lookups(name):
    X, _labels = case(name)
    for cid, cube in X.cells.items():
        for b in range(1 << cube.dim):
            assert X.edges_at_corner(cid, b) == reference.edges_at_corner(X, cid, b)


def _named_cube():
    """The cells of a solid 3-cube, named ``("c", free axes, base corner)``."""
    named = {}
    for free in range(8):
        axes = [a for a in range(3) if free >> a & 1]
        for base in range(8):
            if base & free:
                continue
            corners = []
            for m in range(1 << len(axes)):
                v = base | sum(1 << a for j, a in enumerate(axes) if m >> j & 1)
                corners.append(("c", 0, v))
            facets = [("c", free & ~(1 << a), base | s << a) for a in axes for s in (0, 1)]
            named[("c", free, base)] = (tuple(corners), tuple(facets))
    return named


def _cube_with_a_doubled_edge():
    """A solid 3-cube in which two of its squares hold different edges with
    the same two corners, so the cube has two such edges."""
    named = _named_cube()
    # the square {x, y} at z = 0 takes a twin of its edge along x at y = 0
    named[("twin",)] = named[("c", 1, 0)]
    square = ("c", 3, 0)
    corners, facets = named[square]
    named[square] = (corners, tuple(("twin",) if f == ("c", 1, 0) else f for f in facets))
    return CubicalComplex.from_named_cells(named)


def test_edges_at_corner_refuses_a_doubled_edge_like_face_of():
    X = _cube_with_a_doubled_edge()
    (cube,) = X.by_dim[3]
    refused = 0
    for b in range(8):
        try:
            want = reference.edges_at_corner(X, cube, b)
        except CellNotFound as e:
            with pytest.raises(CellNotFound) as got:
                X.edges_at_corner(cube, b)
            assert str(got.value) == str(e)
            refused += 1
        else:
            assert X.edges_at_corner(cube, b) == want
    assert refused == 2  # the two ends of the doubled edge


def _cube_with_twisted_facets():
    """A solid 3-cube whose two squares at its edge {0, 1} take their own
    frames, in which {0, 1} is a diagonal. That edge stays in the complex,
    outside the cube, so the cube's edge there is no subcell while one edge
    with its corners exists."""
    named = _named_cube()

    def c(v):
        return ("c", 0, v)

    for a in (1, 2):  # the squares {0, 1, 2, 3} and {0, 1, 4, 5}
        b = 1 << a
        named[("d", 0, b + 1)] = ((c(0), c(b + 1)), (c(0), c(b + 1)))
        named[("d", 1, b)] = ((c(1), c(b)), (c(1), c(b)))
        named[("c", 1 | b, 0)] = (
            (c(0), c(b), c(b + 1), c(1)),
            (("d", 0, b + 1), ("d", 1, b), ("c", b, 0), ("c", b, 1)),
        )
    return CubicalComplex.from_named_cells(named)


def test_edges_at_corner_and_links_on_twisted_facets():
    X = _cube_with_twisted_facets()
    (cube,) = X.by_dim[3]
    outcomes = [outcome(X.edges_at_corner, cube, b) for b in range(8)]
    assert outcomes == [
        outcome(reference.edges_at_corner_by_subcells, X, cube, b) for b in range(8)
    ]
    assert sum(isinstance(o, str) for o in outcomes) == 2  # the ends of {0, 1}
    _assert_subdivision_and_links_match(X)


TWISTED_CUBE = Path(__file__).parent / "data" / "twisted_cube.json"


def test_twisted_facet_frames_are_a_relaxed_validation_finding():
    X = _cube_with_twisted_facets()
    (cube,) = X.by_dim[3]
    got = verify_cw(X)
    assert [(f.kind, f.cells) for f in got.findings] == [("TwistedFacetFrame", (cube,))]
    assert got == reference.verify_cw(X)
    with pytest.raises(NotAdmissible):
        build_dual(X)


def _face_pairs(X):
    """The scanned pairs in which one cell is a face of the other that holds
    every corner they share: the pairs ``verify_cw`` passes over."""
    skipped = 0
    for a, b in complexes._pairs_sharing_two_corners(
        X.cells_at_vertex, {cid: c.corners for cid, c in X.cells.items()}
    ):
        ca, cb = set(X.cells[a].corners), set(X.cells[b].corners)
        skipped += a in X.subcells(b) and ca <= cb or b in X.subcells(a) and cb <= ca
    return skipped


def test_relaxed_validation_passing_over_face_pairs_matches_the_full_scan():
    inputs = [case(name)[0] for name in CASES]
    inputs += [_glued_by_corner_sets(doubled_square_lists()), _cube_with_twisted_facets()]
    skipped = 0
    for X in inputs:
        # the scan itself, not a verdict kept on the complex
        assert complexes._verify_cw(X) == reference.verify_cw(X)
        skipped += _face_pairs(X)
    assert skipped > 1000


def test_a_face_whose_corners_leave_its_cell_is_still_reported():
    # a solid cube whose bottom square trades a corner for a new vertex, built
    # without the local structure check: the square is a facet of the cube
    # that holds only three of the corners they share
    X = fixture("cube1").complex
    (cube,) = X.by_dim[3]
    sq = X.cells[cube].facets[0]
    v, zero = max(X.vertices) + 1, len(X.cells)
    corners = (*X.cells[sq].corners[:3], v)
    cells = [
        Cube(c.cid, corners if c.cid == sq else c.corners, c.facets) for c in X.cells.values()
    ]
    Y = CubicalComplex([*cells, Cube(zero, (v,), ())], kind="cw")
    assert sq in Y.subcells(cube)

    def two_corner_intersections(report):
        # the scan tests only pairs that share two corners
        return [
            f.cells
            for f in report.findings
            if f.kind == "NonFaceIntersection"
            and len(set(Y.cells[f.cells[0]].corners) & set(Y.cells[f.cells[1]].corners)) >= 2
        ]

    got = two_corner_intersections(verify_cw(Y))
    assert got == two_corner_intersections(reference.verify_cw(Y)) == [(sq, cube)]


def test_cli_refuses_the_dual_of_twisted_facet_frames(tmp_path):
    text = formats.serialize_complex(_cube_with_twisted_facets())
    assert TWISTED_CUBE.read_text() == text  # the file the console-script check reads
    path = tmp_path / "twisted.json"
    path.write_text(text)
    runner = CliRunner()
    r = runner.invoke(main, ["validate", "--in", str(path)], catch_exceptions=False)
    assert r.exit_code == 1
    doc = json.loads(r.output)
    assert doc["ok"] is False
    assert [f["kind"] for f in doc["findings"]] == ["TwistedFacetFrame"]
    r = runner.invoke(main, ["dual", "--in", str(path)], catch_exceptions=False)
    assert r.exit_code == 1
    assert json.loads(r.output)["error"] == "NotAdmissible"


def _cells(X):
    return [(c.cid, c.corners, c.facets) for c in (X.cells[i] for i in range(len(X.cells)))]


def _masks_as_edges(X, v):
    """link_masks with each face read back as its set of edge ids."""
    edges, faces, bigons = link_masks(X, v)
    return edges, {frozenset(edges[k] for k in mask_bits(f)) for f in faces}, bigons


def _reference_link_faces(X, v):
    faces, _maximal, vertices, bigons = reference.link(X, v)
    return list(vertices), set(faces), bigons


def _assert_subdivision_and_links_match(X):
    S = outcome(cubical_subdivision, X)
    got = _cells(S) if isinstance(S, CubicalComplex) else S
    assert got == outcome(reference.cubical_subdivision, X)
    for Y in (X, S) if isinstance(S, CubicalComplex) else (X,):
        for v in Y.vertices:
            want = outcome(_reference_link_faces, Y, v)
            assert outcome(_masks_as_edges, Y, v) == want, v


@pytest.mark.parametrize("name", CASES)
def test_subdivision_and_links_match_face_lookups(name):
    _assert_subdivision_and_links_match(case(name)[0])


def test_fixtures_with_doubled_edges_take_the_subcell_fallback():
    # edges sharing a corner pair are told apart by the cube's subcells
    doubled = {
        name: sum(len(es) > 1 for es in fixture(name).complex._edges_at_pair.values())
        for name in FIXTURE_NAMES
    }
    assert {name: n for name, n in doubled.items() if n} == {"gdelta2": 4, "sphere": 96}


@settings(max_examples=200)
@given(corner_list_families())
# cubes on one corner set in different frames, glued along equal corner sets:
# some facets take their own frame, and some cube edges are no subcells
@example([(0, 4, 1, 2, 6, 3, 7, 5), (0, 4, 2, 1, 3, 6, 7, 5), (2, 3, 7, 0, 4, 5, 1, 6)])
def test_subdivision_and_links_match_on_random_families(lists):
    lists = [arr for arr in lists if len(set(arr)) == len(arr)]
    assume(lists)
    _assert_subdivision_and_links_match(_glued_by_corner_sets(lists))


def test_subdivision_refuses_a_doubled_edge_like_face_of():
    X = _cube_with_a_doubled_edge()
    with pytest.raises(CellNotFound) as want:
        reference.cubical_subdivision(X)
    with pytest.raises(CellNotFound) as got:
        cubical_subdivision(X)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", CASES)
def test_hyperplane_carriers_match_the_subcell_scan(name):
    X, _labels = case(name)
    got = [(h.edges, h.carriers) for h in hyperplanes(X)]
    assert got == reference.hyperplane_carriers(X)


def test_every_mirror_of_a_32_by_32_grid_separates():
    n = 32
    X = CubicalComplex.from_maximal_cells(random.Random(0).sample(grid_squares(n), n * n))
    labels = find_folding(X)
    ms = mirrors(X, labels)
    counts = []
    for M in ms:
        rep = mirror_separates(X, M)
        assert rep.separates
        counts.append(rep.framing_count)
    # an interior line frames its n edges (edge and two ends) and the two
    # diagonal pairs at each of its n - 1 inner vertices: 5n - 2 cells
    assert sorted(counts) == [0] * 4 + [5 * n - 2] * (2 * (n - 1))
    ctx = surgery_context(build_dual(X), labels)
    assert ctx.refusal is None and len(ctx.mirrors) == len(ms) == 2 * (n + 1)


def _cuts(name):
    """Cuts of a case: each mirror's cells, the union of each coordinate's
    mirrors, the empty cut and a seeded random set of codimension-1 cells."""
    X, _labels = case(name)
    ms = case_mirrors(name)
    cuts = [M.cells for M in ms]
    for i in range(X.dim):
        cuts.append(frozenset().union(*(M.cells for M in ms if M.coordinate == i)))
    cuts.append(frozenset())
    codim1 = X.by_dim.get(X.dim - 1, [])
    rng = random.Random(name)
    cuts.append(frozenset(rng.sample(codim1, len(codim1) // 3)))
    return cuts


@pytest.mark.parametrize("name", CASES)
def test_chambers_match_the_union_find_definition(name):
    X, _labels = case(name)
    for cut in _cuts(name):
        want = reference.chambers_avoiding(X, cut)
        assert chambers_avoiding(X, cut) == want, name
        assert chambers_avoiding(X, cut) == want, name  # from the kept adjacency


def test_book_spine_joins_three_pages():
    # the spine edge of book3 has three top cofaces; they form a chain
    # through it, each page linked to its neighbours in id order
    X, _labels = case("book3")
    spine = [c for c in X.by_dim[1] if len(X.cofaces[c]) == 3]
    assert len(spine) == 1
    adj = X.top_adjacency()
    assert X.top_adjacency() is adj
    pages = X.cofaces[spine[0]]
    for k, p in enumerate(pages):
        neighbours = pages[max(k - 1, 0) : k] + pages[k + 1 : k + 2]
        assert [u for c, u in adj[p] if c == spine[0]] == neighbours
    assert len(chambers_avoiding(X, {spine[0]})) == 3


@pytest.mark.parametrize("name", CASES)
def test_cofaces_are_the_ids_of_the_cells_above(name):
    X, _labels = case(name)
    for c in X.cells:
        assert X.cofaces[c] == [p for p in sorted(X.cells) if c in X.cells[p].facets]


@pytest.mark.parametrize("name", CASES)
def test_specialness_matches_the_candidate_definition(name):
    X, _labels = case(name)
    assert check_special(X) == reference.check_special(X)


@pytest.mark.parametrize("name", CASES)
def test_link_condition_matches_the_direct_links(name):
    X = case(name)[0]
    for Y in (X, build_dual(X).complex):
        assert check_npc(Y) == reference.check_npc(Y)


@settings(max_examples=300)
@given(corner_list_families())
@example([(0, 1, 2, 3), (0, 1, 2, 3), (0, 4, 1, 5)])  # two squares on one corner set
@example([(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6)])  # a cube corner, hollow
# a square across a cube: at one vertex two crossing hyperplanes have two
# osculating edges each, and the first pair in scan order is not the first found
@example([(0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 5, 3)])
def test_link_condition_and_specialness_match_on_random_families(lists):
    lists = [arr for arr in lists if len(set(arr)) == len(arr)]
    assume(lists)
    X = _glued_by_corner_sets(lists)
    assert outcome(check_npc, X) == outcome(reference.check_npc, X)
    assert check_special(X) == reference.check_special(X)


def test_link_condition_witnesses_on_bigons_and_hollow_corners():
    X = _glued_by_corner_sets([(0, 1, 2, 3), (0, 1, 2, 3), (0, 4, 1, 5)])
    got = check_npc(X)
    assert got == reference.check_npc(X)
    assert [v.kind for v in got.violations].count("bigon") == 4
    X = _cube_boundary_dual([0] * 8).complex
    got = check_npc(X)
    assert got == reference.check_npc(X)
    assert [v.kind for v in got.violations] == ["not-flag"] * 8


@pytest.mark.parametrize("name", CASES)
def test_mirrors_match_the_scan_per_class(name):
    X, labels = case(name)
    assert case_mirrors(name) == tuple(reference.mirrors(X, labels))


@pytest.mark.parametrize("name", CASES)
def test_dual_axioms_match_the_definition(name):
    D = build_dual(case(name)[0])
    assert verify_dual_axioms(D) == reference.verify_dual_axioms(D)


def _cube_boundary_dual(heights):
    """The 2-skeleton of a 3-cube as a dual complex, vertex v at heights[v].

    Every vertex link is a hollow triangle, so no link is flag, and the
    sublinks are checked under each of them.
    """
    squares = []
    for axis in range(3):
        for side in (0, 1):
            free = [a for a in range(3) if a != axis]
            base = side << axis
            squares.append(
                tuple(base | (m & 1) << free[0] | (m >> 1) << free[1] for m in range(4))
            )
    X = CubicalComplex.from_maximal_cells(squares)
    return DualComplex(X, X, {v: heights[v] for v in X.vertices})


@pytest.mark.parametrize("seed", range(6))
def test_dual_axioms_match_on_links_that_are_not_flag(seed):
    if seed == 0:
        heights = [bin(v).count("1") for v in range(8)]
    else:
        rng = random.Random(seed)
        heights = [rng.randrange(3) for _ in range(8)]
    D = _cube_boundary_dual(heights)
    got = verify_dual_axioms(D)
    assert got == reference.verify_dual_axioms(D)
    checks = {n: (status, d) for n, status, d in got.checks}
    assert checks["links-flag"][0] == "fail"
    if seed == 0:
        # the bottom and top corners see three edges up (down): a hollow
        # triangle; the other six see two and one, both flag
        assert checks["sublinks-flag"] == ("fail", "2 violations, first [0, 7]")


# ---------------------------------------------------------------------------
# mirror separation: one pass per (coordinate, side) class against one
# chamber walk and the whole framing list per mirror

MIXED = (
    [(0, 1, 2, 3), (0, 4, 5, 6), (3, 7), (7, 6)],
    {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0), 5: (0, 1), 6: (1, 1), 7: (1, 0)},
)


def _assert_separation_matches(X, labels):
    """Every mirror of a kept list, and every mirror of the reference list (a
    class of its own each), gets the per-mirror report."""
    for M in mirrors(X, labels):
        assert mirror_separates(X, M) == reference.mirror_separates(X, M), M.index
    for M in reference.mirrors(X, labels):
        assert mirror_separates(X, M) == reference.mirror_separates(X, M), M.index


@lru_cache(maxsize=None)
def separation_case(name):
    if name in CASES:
        return case(name)
    if name == "mixed":
        return CubicalComplex.from_maximal_cells(MIXED[0]), MIXED[1]
    if name in STARS_AND_BOOKS:
        X = CubicalComplex.from_maximal_cells(STARS_AND_BOOKS[name])
    elif name == "annulus":
        X = annulus()
    elif name.startswith("grid"):
        X = CubicalComplex.from_maximal_cells(grid_squares(int(name[4:])))
    elif name.startswith("strip"):
        X = strip(int(name[5:]))
    elif name.startswith("cubes"):
        X = CubicalComplex.from_maximal_cells(cube_grid_cells(int(name[5:])))
    else:
        X = rose(int(name[4:]))
    return X, find_folding(X)


SEPARATION_CASES = (
    *CASES,
    "mixed",
    "star40",
    *(name for name in sorted(STARS_AND_BOOKS) if name.startswith("book") and "bad" not in name),
    "annulus",
    "grid4",
    "strip4",
    "cubes2",
    "rose2",
    "rose4",
)


@pytest.mark.parametrize("name", SEPARATION_CASES)
def test_separation_matches_the_per_mirror_definition(name):
    X, labels = separation_case(name)
    _assert_separation_matches(X, labels)


def test_every_mirror_of_the_mixed_complex_separates():
    X, labels = separation_case("mixed")
    assert all(mirror_separates(X, M).separates for M in mirrors(X, labels))


def _fold_or_none(X):
    try:
        return find_folding(X)
    except (NotFoldable, Unsupported):
        return None


@settings(max_examples=300, deadline=None)
@given(corner_list_families())
@example([(0, 1, 2, 3), (1, 0, 3, 2)])  # doubled squares
@example([(0, 1, 2, 3), (0, 4, 5, 3)])  # two squares on opposite corners
@example([(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7)])  # a book on one spine
def test_separation_matches_on_random_families(lists):
    # cells are embedded, so lists with a repeated corner are left out
    lists = [arr for arr in lists if len(set(arr)) == len(arr)]
    assume(lists)
    closures = [_glued_by_corner_sets(lists)]
    if validate_cubical(lists).ok:
        closures.append(CubicalComplex.from_maximal_cells(lists))
    for X in closures:
        labels = _fold_or_none(X)
        if labels is not None:
            _assert_separation_matches(X, labels)


# ---------------------------------------------------------------------------
# the relaxed verdict recorded on checked strict closures


def _assert_recorded_verdict_is_the_scan(lists):
    X = CubicalComplex.from_maximal_cells(lists)
    recorded, split = verify_cw(X), X.split_top_pairs()
    assert recorded.ok and split == ()
    assert recorded == reference.verify_cw(X)
    assert complexes._verify_cw(X) == recorded  # the scan the record stands for
    assert X.split_top_pairs() == split


@settings(max_examples=200, deadline=None)
@given(corner_list_families())
def test_recorded_strict_verdict_matches_on_random_families(lists):
    # the lists that keep the family strict, taken in order
    strict = []
    for arr in lists:
        if validate_cubical(strict + [arr]).ok:
            strict.append(arr)
    assume(strict)
    _assert_recorded_verdict_is_the_scan(strict)


@pytest.mark.parametrize(
    "lists",
    [
        *(cube_grid_cells(k) for k in (1, 2, 3)),
        grid_squares(5),
        *([tuple(range(1 << k))] for k in range(7)),
    ],
    ids=[*(f"cubes{k}" for k in (1, 2, 3)), "grid5", *(f"cube{k}" for k in range(7))],
)
def test_recorded_strict_verdict_matches_the_scan(lists):
    _assert_recorded_verdict_is_the_scan(lists)

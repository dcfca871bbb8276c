import dataclasses
import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference
from cubemill import formats
from cubemill.complexes import (
    Cube,
    CubicalComplex,
    SimplicialComplex,
    barsub,
    canonical_corner_array,
    canonicalize_cell,
    cubical_subdivision,
    face_array,
    link_masks,
    validate_cubical,
    verify_cw,
)
from cubemill.errors import CellNotFound, FormatError, NotAdmissible
from cubemill.fixtures import fixture
from helpers import doubled_square_lists, euler_characteristic


# ---------------------------------------------------------------------------
# canonical corner arrays


@st.composite
def cells_with_a_symmetry(draw):
    """An embedded k-cube (k <= 4) with facet ids, an axis permutation and a
    flip mask."""
    k = draw(st.integers(0, 4))
    ids = st.integers(0, 10**6)
    corners = draw(st.lists(ids, min_size=1 << k, max_size=1 << k, unique=True))
    facets = draw(st.lists(ids, min_size=2 * k, max_size=2 * k, unique=True))
    perm = draw(st.permutations(range(k)))
    mask = draw(st.integers(0, (1 << k) - 1))
    return tuple(corners), tuple(facets), perm, mask


def act(arr, facets, perm, mask):
    """The image of a cell under the cube symmetry ``b -> perm(b) xor mask``."""
    k = len(perm)
    moved = [None] * len(arr)
    for b, v in enumerate(arr):
        image = sum(1 << perm[i] for i in range(k) if (b >> i) & 1)
        moved[image ^ mask] = v
    moved_facets = [None] * (2 * k)
    for i in range(k):
        for s in (0, 1):
            moved_facets[2 * perm[i] + (s ^ ((mask >> perm[i]) & 1))] = facets[2 * i + s]
    return tuple(moved), tuple(moved_facets)


@given(cells_with_a_symmetry())
def test_canonical_array_is_symmetry_invariant(cell):
    arr, facets, perm, mask = cell
    k = len(perm)
    canon, canon_facets = canonicalize_cell(arr, facets)
    assert canonicalize_cell(*act(arr, facets, perm, mask)) == (canon, canon_facets)
    assert canonical_corner_array(arr) == canon
    # the least corner comes first and its axis neighbours increase
    assert canon[0] == min(arr)
    gens = [canon[1 << j] for j in range(k)]
    assert gens == sorted(gens)
    # each facet id still names the face with the same corners
    corners_of = {
        facets[2 * i + s]: set(face_array(arr, i, s)) for i in range(k) for s in (0, 1)
    }
    for j in range(k):
        for t in (0, 1):
            assert corners_of[canon_facets[2 * j + t]] == set(face_array(canon, j, t))


@given(st.permutations(range(8)))
def test_canonical_array_depends_only_on_corner_set(perm):
    arr = tuple(10 + i for i in perm)
    assert set(canonical_corner_array(arr)) == set(arr)
    assert canonical_corner_array(arr)[0] == 10


def test_canonical_array_least_corner_first_and_sorted_axes():
    arr = canonical_corner_array((5, 2, 9, 4))
    assert arr[0] == min(arr)
    # axis generators appear in increasing order
    k = 2
    gens = [arr[1 << j] for j in range(k)]
    assert gens == sorted(gens)


# ---------------------------------------------------------------------------
# strict validation


def test_doubled_square_fails_strict_validation():
    report = validate_cubical(doubled_square_lists())
    assert not report.ok
    assert {f.kind for f in report.findings} == {"NonFaceIntersection"}


def test_repeated_corner_detected():
    report = validate_cubical([(0, 1, 1, 2)])
    assert not report.ok
    assert report.findings[0].kind == "RepeatedCorner"


def test_two_squares_meeting_in_a_diagonal_rejected():
    # corner sets intersect in {0, 3}, a diagonal of the first square
    report = validate_cubical([(0, 1, 2, 3), (0, 4, 3, 5)])
    assert not report.ok
    assert any(f.kind == "NonFaceIntersection" for f in report.findings)


@pytest.mark.parametrize(
    "lists",
    [
        # two squares on the corners {0, 1, 2, 3}, with different diagonals
        [(0, 1, 2, 3), (0, 1, 3, 2)],
        # two 3-cubes whose shared square has its diagonals swapped
        [tuple(range(8)), (0, 1, 3, 2, 8, 9, 10, 11)],
    ],
)
def test_two_cells_on_one_corner_set_rejected(lists):
    report = validate_cubical(lists)
    assert [(f.kind, f.cells) for f in report.findings] == [("NonFaceIntersection", (0, 1))]
    assert report == reference.validate_cubical(lists)
    with pytest.raises(NotAdmissible):
        CubicalComplex.from_maximal_cells(lists)


def test_from_maximal_cells_raises_on_invalid():
    with pytest.raises(NotAdmissible):
        CubicalComplex.from_maximal_cells(doubled_square_lists())


@pytest.mark.parametrize("arr", [(), (0, 1, 2)], ids=["empty", "three"])
def test_a_corner_list_of_bad_length_is_a_format_error(arr):
    message = f"corner list length {len(arr)} is not a power of two"
    with pytest.raises(FormatError, match=message):
        validate_cubical([arr])
    with pytest.raises(FormatError, match=message):
        CubicalComplex.from_maximal_cells([arr], check=False)
    with pytest.raises(FormatError, match=message):
        canonical_corner_array(arr)


def test_cylinder_of_two_squares_passes_relaxed_check():
    # doubled side edges and doubled squares over one corner set; the two
    # squares meet in the disjoint top and bottom edges, a legal intersection
    named = {
        0: ((0,), ()),
        1: ((1,), ()),
        2: ((2,), ()),
        3: ((3,), ()),
        ("top",): ((0, 1), (0, 1)),
        ("bot",): ((2, 3), (2, 3)),
        ("a", 0): ((0, 2), (0, 2)),
        ("a", 1): ((0, 2), (0, 2)),
        ("b", 0): ((1, 3), (1, 3)),
        ("b", 1): ((1, 3), (1, 3)),
        ("sq", 0): ((0, 1, 2, 3), (("a", 0), ("b", 0), ("top",), ("bot",))),
        ("sq", 1): ((0, 1, 2, 3), (("a", 1), ("b", 1), ("top",), ("bot",))),
    }
    X = CubicalComplex.from_named_cells(named)
    assert X.counts() == {0: 4, 1: 6, 2: 2}
    assert euler_characteristic(X) == 0
    assert verify_cw(X).ok


def test_two_squares_glued_along_their_whole_boundary_fail_relaxed_check():
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
    X = CubicalComplex.from_named_cells(named)
    report = verify_cw(X)
    assert not report.ok
    assert report.findings[0].kind == "NonFaceIntersection"


# ---------------------------------------------------------------------------
# cube-level structure


def test_counts_and_euler_characteristic():
    X = fixture("cube1").complex
    assert X.counts() == {0: 8, 1: 12, 2: 6, 3: 1}
    assert euler_characteristic(X) == 1
    assert euler_characteristic(fixture("torus4").complex) == 0
    five = CubicalComplex.from_maximal_cells([tuple(range(32))])
    assert five.counts() == {0: 32, 1: 80, 2: 80, 3: 40, 4: 10, 5: 1}
    assert euler_characteristic(five) == 1


def test_subcells_and_face_of():
    X = fixture("cube1").complex
    (top,) = X.top_cells()
    assert len(X.subcells(top)) == 27
    v = X.face_of(top, {0: 0, 1: 0, 2: 0})
    assert X.cells[v].dim == 0
    e = X.face_of(top, {0: 1, 1: 0})
    assert X.cells[e].dim == 1


def test_cube_dim_is_stored_outside_identity():
    sq = Cube(4, (0, 1, 2, 3), (0, 1, 2, 3))  # positional, as before
    assert sq.dim == 2 and Cube(0, (5,), ()).dim == 0
    assert repr(sq) == "Cube(cid=4, corners=(0, 1, 2, 3), facets=(0, 1, 2, 3))"
    assert sq == Cube(4, (0, 1, 2, 3), (0, 1, 2, 3))
    assert sq != Cube(4, (0, 1, 2, 3), (0, 1, 3, 2))
    assert hash(sq) == hash((4, (0, 1, 2, 3), (0, 1, 2, 3)))
    edge = dataclasses.replace(sq, corners=(0, 1), facets=(0, 1))
    assert edge.dim == 1 and edge == Cube(4, (0, 1), (0, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sq.dim = 3


def test_face_array_reads_positions_per_size():
    arr = tuple(range(10, 18))
    for i in range(3):
        for s in (0, 1):
            want = tuple(a for b, a in enumerate(arr) if (b >> i) & 1 == s)
            assert face_array(arr, i, s) == want
            assert face_array(list(arr), i, s) == want  # any sequence
    assert face_array((7, 9), 0, 1) == (9,)


def test_face_of_out_of_range_constraint():
    X = fixture("sq1").complex
    (top,) = X.top_cells()
    with pytest.raises(CellNotFound):
        X.face_of(top, {5: 0})


def test_homogeneous():
    assert fixture("grid2").complex.is_homogeneous()
    bumpy = CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (3, 4)])
    assert not bumpy.is_homogeneous()


# ---------------------------------------------------------------------------
# links


def test_cube_vertex_links_are_triangles():
    X = fixture("cube1").complex
    for v in X.vertices:
        _edges, faces, bigons = link_masks(X, v)
        assert not bigons
        assert sorted(f.bit_count() for f in faces) == [1, 1, 1, 2, 2, 2, 3]


BIGON_SQUARES = Path(__file__).parent / "data" / "bigon_squares.json"


def test_bigon_link_detected():
    # two squares sharing two consecutive edges create a doubled link edge
    named = {
        0: ((0,), ()),
        1: ((1,), ()),
        2: ((2,), ()),
        3: ((3,), ()),
        4: ((4,), ()),
        ("a",): ((0, 1), (0, 1)),
        ("b",): ((0, 2), (0, 2)),
        ("c",): ((1, 3), (1, 3)),
        ("d",): ((2, 3), (2, 3)),
        ("c2",): ((1, 4), (1, 4)),
        ("d2",): ((2, 4), (2, 4)),
        ("s1",): ((0, 1, 2, 3), (("b",), ("c",), ("a",), ("d",))),
        ("s2",): ((0, 1, 2, 4), (("b",), ("c2",), ("a",), ("d2",))),
    }
    X = CubicalComplex.from_named_cells(named)
    _edges, _faces, bigons = link_masks(X, X.zero_cell[0])
    assert len(bigons) == 1
    assert BIGON_SQUARES.read_text() == formats.serialize_complex(X)  # read by the CLI tests


# ---------------------------------------------------------------------------
# simplicial complexes and barycentric subdivision


def test_simplicial_counts():
    K = SimplicialComplex([(0, 1, 2)])
    assert K.counts() == {0: 3, 1: 3, 2: 1}
    assert K.dim == 2
    assert K.is_pure()


# construction names of every kind that name_key orders, bools included
_names = st.recursive(
    st.integers(-3, 9) | st.booleans() | st.text("ab", max_size=2),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=2),
    max_leaves=4,
)


@st.composite
def face_lists(draw):
    """Faces over a few names, with some repeated and some listed before a
    face that contains them."""
    pool = draw(st.lists(_names, min_size=1, max_size=7, unique=True))
    face = st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
    faces = draw(st.lists(face, max_size=6))
    extra = [f[: draw(st.integers(1, len(f)))] for f in faces if draw(st.booleans())]
    return draw(st.permutations(extra + faces))


@given(face_lists())
def test_closure_and_vertex_order_match_every_subset(faces):
    K = SimplicialComplex(faces)
    want_faces, want_maximal, want_vertices = reference.closure(faces)
    assert K.faces == want_faces
    assert K.vertices == want_vertices
    assert K.maximal == want_maximal


def test_barsub_of_triangle():
    B = barsub(SimplicialComplex([(0, 1, 2)]))
    assert B.counts() == {0: 7, 1: 12, 2: 6}
    assert euler_characteristic(B) == 1


def test_barsub_counts_are_chain_counts():
    # faces of the subdivision are chains in the face poset
    K = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    B = barsub(K)
    faces = sorted(K.faces, key=len)
    chains = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations(faces, size):
            if all(combo[i] < combo[i + 1] for i in range(size - 1)):
                chains += 1
    assert sum(B.counts().values()) == chains


def test_barsub_of_cubical_complex():
    B = barsub(fixture("sq1").complex)
    assert B.counts() == {0: 9, 1: 16, 2: 8}
    assert euler_characteristic(B) == 1


@given(
    st.sets(
        st.frozensets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=5
    )
)
def test_barsub_preserves_euler_characteristic(maximal):
    K = SimplicialComplex(maximal)
    assert euler_characteristic(barsub(K)) == euler_characteristic(K)


# ---------------------------------------------------------------------------
# cubical subdivision


def test_cubical_subdivision_census():
    X = fixture("sq1").complex
    S = cubical_subdivision(X)
    assert S.counts() == {0: 9, 1: 12, 2: 4}
    cells = [(c.cid, c.corners, c.facets) for c in S.cells.values()]
    assert cells == reference.cubical_subdivision(X)

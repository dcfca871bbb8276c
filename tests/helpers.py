"""Cached per-fixture builders, extra shapes and test-only checks shared across test modules."""

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from cubemill.complexes import CubicalComplex, SimplicialComplex
from cubemill.curvature import flag_failure, hyperplane_coordinate
from cubemill.dual import build_dual
from cubemill.errors import CellNotFound, FormatError
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.folding import _label_of, find_folding, mirrors
from cubemill.surgery import Split, contract_loop, random_loop


@lru_cache(maxsize=None)
def dual_of(name):
    return build_dual(fixture(name).complex)


@lru_cache(maxsize=None)
def mirror_list(name):
    f = fixture(name)
    return tuple(mirrors(f.complex, f.labels))


def outcome(fn, *args):
    """The value, or the message of the CellNotFound raised instead."""
    try:
        return fn(*args)
    except CellNotFound as e:
        return str(e)


def reading(parse, text):
    """What ``parse`` makes of certificate text: the tree's nodes in depth
    first order, or the type, message, line and field of the ``FormatError``.

    The nodes are listed on an explicit stack, since ``==`` on a deep tree
    recurses once per level.
    """
    try:
        cert = parse(text)
    except FormatError as e:
        return type(e), str(e), e.line, e.field
    nodes = []
    todo = [cert]
    while todo:
        c = todo.pop()
        if isinstance(c, Split):
            nodes.append((Split, c.rotate, c.mirror_index, c.support_index, c.bridge, c.projected))
            todo += (c.right, c.left)
        else:
            nodes.append((type(c), c.moves))
    return nodes


LARGER_COMPLEXES = {
    "grid6x6": lambda: CubicalComplex.from_maximal_cells(grid_squares(6)),
    "cubes3x3x3": lambda: CubicalComplex.from_maximal_cells(cube_grid_cells(3)),
    "strip8": lambda: strip(8),
}


@lru_cache(maxsize=None)
def fuzz_contractions(name):
    """The dual of a complex in ``LARGER_COMPLEXES`` and the contraction fuzz
    on it: 300 seeded loops, each with its certificate."""
    X = LARGER_COMPLEXES[name]()
    labels = find_folding(X)
    D = build_dual(X)
    rng = random.Random(20261018)
    loops = [random_loop(D, rng, max_len=16) for _ in range(300)]
    return D, tuple((p, contract_loop(D, p, labels)) for p in loops)


def deep_certificate_text(p, inner, depth):
    """Certificate text for loop ``p`` whose splits nest ``depth`` deep.

    Each split cuts off the backtrack ``p[0], p[1], p[0]`` and hands ``p``
    itself on to the right; ``inner`` is the text of the innermost right
    child. Replay is valid exactly when ``inner`` contracts ``p``.
    """
    a, b = p[0], p[1]
    level = (
        f"split rotate 0 mirror 0 support 0\nbridge {a} {b}\nprojected {a} {b}\n"
        "left\nchain\nbacktrack 0\nend\nright\n"
    )
    return level * depth + inner + "end\n" * depth


def grid_squares(n):
    """Corner lists of an n by n grid of squares, in bitmask order.

    Vertex ids run along the first axis fastest, as in the benchmark's grids.
    """

    def v(x, y):
        return (n + 1) * y + x

    return [
        (v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1))
        for x in range(n)
        for y in range(n)
    ]


def annulus(n=5):
    """The n by n grid of squares without its centre square, for odd n: a
    foldable complex whose fundamental group is the integers."""
    c = n // 2
    squares = grid_squares(n)
    return CubicalComplex.from_maximal_cells(squares[: c * n + c] + squares[c * n + c + 1 :])


def winding_number(X, p, n=5):
    """How often the dual loop ``p`` of ``annulus(n)`` winds around the centre
    of the missing square. Each dual vertex sits at the barycentre of its
    source cell, and grid vertex v at (v mod (n + 1), v div (n + 1)); a dual
    edge stays in the closure of one cell, so no step passes the centre."""
    c = n / 2
    angles = []
    for v in p:
        corners = X.cells[v].corners
        x = sum(u % (n + 1) for u in corners) / len(corners)
        y = sum(u // (n + 1) for u in corners) / len(corners)
        angles.append(math.atan2(y - c, x - c))
    turn = 0.0
    for a, b in zip(angles, angles[1:]):
        turn += (b - a + math.pi) % (2 * math.pi) - math.pi
    return round(turn / (2 * math.pi))


def cube_grid_cells(k):
    """Corner lists of a k by k by k grid of cubes, in bitmask order."""

    def v(x, y, z):
        return (k + 1) ** 2 * z + (k + 1) * y + x

    return [
        tuple(v(x + (b & 1), y + (b >> 1 & 1), z + (b >> 2 & 1)) for b in range(8))
        for x, y, z in product(range(k), repeat=3)
    ]


def simply_connected_names():
    return tuple(n for n in FIXTURE_NAMES if fixture(n).simply_connected)


# ---------------------------------------------------------------------------
# extra shapes for exercising edge cases


def rose(m):
    """m squares around a center: a wedge pair for m = 2, a cyclic umbrella
    sharing consecutive spoke edges for m >= 3. Foldable exactly when m is
    even."""
    if m < 2:
        raise ValueError("need at least two squares")
    if m == 2:
        return CubicalComplex.from_maximal_cells([(0, 1, 2, 3), (0, 4, 5, 6)])
    c = 0
    u = [1 + i for i in range(m)]
    w = [1 + m + i for i in range(m)]
    squares = [(c, u[i], u[(i + 1) % m], w[i]) for i in range(m)]
    return CubicalComplex.from_maximal_cells(squares)


def tube(length):
    """A triangular prism tube of the given length; never foldable."""

    def v(i, j):
        return 3 * j + (i % 3)

    squares = [
        (v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))
        for j in range(length)
        for i in range(3)
    ]
    return CubicalComplex.from_maximal_cells(squares)


def strip(length):
    """A flat row of squares; the planar, foldable cousin of the tube."""

    def v(x, y):
        return (length + 1) * y + x

    squares = [(v(x, 0), v(x + 1, 0), v(x, 1), v(x + 1, 1)) for x in range(length)]
    return CubicalComplex.from_maximal_cells(squares)


def grid3():
    """A 3 by 3 grid of squares with its checkerboard folding."""

    def v(x, y):
        return 4 * y + x

    squares = [
        (v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1))
        for x in range(3)
        for y in range(3)
    ]
    X = CubicalComplex.from_maximal_cells(squares)
    labels = {v(x, y): (x % 2, y % 2) for x in range(4) for y in range(4)}
    return X, labels


def two_triangles():
    """Two triangles glued along an edge, with a folding reusing label 0."""
    K = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    return K, {0: 0, 1: 1, 2: 2, 3: 0}


def cone4():
    """A cone over a 4-cycle; the apex link is the full cycle."""
    K = SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)])
    return K, {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}


def doubled_square_lists():
    """Two squares with the same corner set; fails strict validation."""
    return [(0, 1, 2, 3), (1, 0, 3, 2)]


def euler_characteristic(X):
    """The alternating sum of the cell counts of a cubical or simplicial complex."""
    return sum((-1) ** d * n for d, n in X.counts().items())


def is_flag(S):
    """(True, None) when every clique of the 1-skeleton of the simplicial
    complex ``S`` spans a simplex; otherwise (False, witness) with a least
    minimal non-face in name order. Bit k is the k-th vertex in name order, so
    the bit tuples that ``flag_failure`` compares order as the names do."""
    bit = {v: 1 << k for k, v in enumerate(S.vertices)}
    witness = flag_failure({sum(bit[v] for v in f) for f in S.faces})
    return witness is None, witness and tuple(S.vertices[k] for k in witness)


# ---------------------------------------------------------------------------
# mirrors versus hyperplane sides


@dataclass(frozen=True)
class CarryReport:
    carried: bool
    consistent: bool
    side_faces: tuple


def mirror_carries_hyperplane_side(X, labels, mirror, hp, side):
    """Does the mirror contain the side-``side`` faces of the hyperplane's carrier?

    For each carrier cube the side face is the facet whose corners all fold to
    ``side`` in the hyperplane's coordinate. Containment is all-or-nothing for
    a genuine mirror; ``consistent`` reports that, and ``carried`` is true when
    every side face lies in the mirror (vacuously true when there are none).
    """
    n = X.dim
    coord = hyperplane_coordinate(X, labels, hp)
    lab = {v: _label_of(labels, v, n) for v in X.vertices}
    side_faces = set()
    for cid in hp.carriers:
        cube = X.cells[cid]
        # the cube coordinate that flips the folding coordinate of the class
        jflip = None
        for j in range(cube.dim):
            a = lab[cube.corners[0]]
            b = lab[cube.corners[1 << j]]
            if a[coord] != b[coord]:
                jflip = j
                break
        if jflip is None:
            continue
        base = lab[cube.corners[0]][coord]
        s = 0 if base == side else 1
        side_faces.add(cube.facets[2 * jflip + s])
    inside = side_faces & mirror.cells
    consistent = not inside or side_faces <= mirror.cells
    carried = not side_faces or side_faces <= mirror.cells
    return CarryReport(carried, consistent, tuple(sorted(side_faces)))

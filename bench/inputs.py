"""Seeded input generators with closed-form shapes.

Every box generator returns a :class:`Shape`: the maximal corner lists of a
complex together with everything the benchmark needs to check verdicts
without trusting the code under test. Given a ``random.Random``, the seed
relabels vertices and reorders the maximal cells; given None, the labeling
is the plain one. Either way cell counts, mirror and hyperplane counts follow
from the side lengths alone.

Corner lists are in bitmask order: corner ``b`` of a cube sits at offset
``(b >> axis) & 1`` along each axis.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import factorial


@dataclass(frozen=True)
class Shape:
    name: str
    cells: tuple  # maximal corner lists, bitmask order
    coords: dict  # vertex id -> integer coordinate tuple (grid shapes only)
    size: tuple  # side length per axis
    counts: dict  # dimension -> number of cells, from the closed form
    mirrors: int  # mirrors of any folding, from the closed form
    hyperplanes: int  # parallelism classes, from the closed form
    contractible: bool  # every mirror separates and every tree is a tree

    @property
    def n_cells(self):
        return sum(self.counts.values())


def _box(size, rng, wrap=False):
    """Maximal cubes of a box of unit cubes.

    Vertex ids run along the first axis fastest. With an ``rng`` the ids are
    relabeled by a seeded bijection and the cells are shuffled.
    """
    dim = len(size)
    extent = tuple(s if wrap else s + 1 for s in size)
    points = list(product(*(range(e) for e in reversed(extent))))
    points = [tuple(reversed(p)) for p in points]
    ids = list(range(len(points)))
    if rng is not None:
        rng.shuffle(ids)
    vid = dict(zip(points, ids))
    cells = []
    for base in product(*(range(s) for s in size)):
        corners = []
        for b in range(1 << dim):
            p = tuple(
                (base[a] + ((b >> a) & 1)) % extent[a] for a in range(dim)
            )
            corners.append(vid[p])
        cells.append(tuple(corners))
    if rng is not None:
        rng.shuffle(cells)
    coords = {} if wrap else {i: p for p, i in vid.items()}
    return tuple(cells), coords


def _box_counts(size):
    """Cells per dimension of a box of unit cubes with the given side lengths."""
    dim = len(size)
    counts = {}
    for k in range(dim + 1):
        total = 0
        for axes in combinations(range(dim), k):
            term = 1
            for a in range(dim):
                term *= size[a] if a in axes else size[a] + 1
            total += term
        counts[k] = total
    return counts


def rect(w, h, rng, name):
    """A w by h grid of squares; every coordinate line is one mirror."""
    size = (w, h)
    cells, coords = _box(size, rng)
    return Shape(
        name,
        cells,
        coords,
        size,
        _box_counts(size),
        mirrors=(w + 1) + (h + 1),
        hyperplanes=w + h,
        contractible=True,
    )


def grid(n, rng):
    return rect(n, n, rng, name=f"grid{n}")


def strip(length, rng):
    """A row of squares: ``cubemill.fixtures.strip`` up to relabeling."""
    return rect(length, 1, rng, name=f"strip{length}")


def cube_grid(k, rng):
    """A k by k by k block of solid cubes; mirrors are the coordinate planes."""
    size = (k, k, k)
    cells, coords = _box(size, rng)
    return Shape(
        f"cubes{k}",
        cells,
        coords,
        size,
        _box_counts(size),
        mirrors=3 * (k + 1),
        hyperplanes=3 * k,
        contractible=True,
    )


def torus(n, rng):
    """The flat n by n torus (n even, n >= 4): 2n circle mirrors, none of
    which separates."""
    if n < 4 or n % 2:
        raise ValueError("the torus needs an even side of at least 4")
    cells, _ = _box((n, n), rng, wrap=True)
    return Shape(
        f"torus{n}",
        cells,
        {},
        (n, n),
        {0: n * n, 1: 2 * n * n, 2: n * n},
        mirrors=2 * n,
        hyperplanes=2 * n,
        contractible=False,
    )


def simplex_boundary(m, rng):
    """Maximal faces of the boundary of the m-simplex on shuffled vertex ids."""
    ids = list(range(m + 1))
    rng.shuffle(ids)
    faces = [tuple(ids[i] for i in f) for f in combinations(range(m + 1), m)]
    rng.shuffle(faces)
    return faces


def barsub_top_faces(m):
    """Top faces of the barycentric subdivision of the boundary of the
    m-simplex: one per flag of faces below each facet, (m+1) * m!."""
    return (m + 1) * factorial(m)


# ---------------------------------------------------------------------------
# loops in the dual of a grid shape


def cell_boxes(X, coords):
    """Per source cell, the (lo, hi) coordinate interval along each axis."""
    boxes = {}
    for cid, cube in X.cells.items():
        pts = [coords[v] for v in cube.corners]
        boxes[cid] = tuple(
            (min(p[a] for p in pts), max(p[a] for p in pts))
            for a in range(len(pts[0]))
        )
    return boxes


def crossing_count(boxes, size, loop):
    """Mirror crossings of a dual loop, from coordinates alone.

    The mirrors of a box are its interior coordinate planes. A run of the
    loop inside a plane crosses it when the cells before and after the run
    lie on opposite sides. Used to give every seed the same mix of split
    depths; the code under test never sees this number.
    """
    core = loop[:-1]
    n = len(core)
    total = 0
    for axis, side_len in enumerate(size):
        for c in range(1, side_len):
            inside = [boxes[v][axis] == (c, c) for v in core]
            if all(inside) or not any(inside):
                continue
            start = inside.index(False)
            run_start = None
            for step in range(1, n + 1):
                i = (start + step) % n
                if inside[i] and run_start is None:
                    run_start = i
                elif not inside[i] and run_start is not None:
                    before = core[(run_start - 1) % n]
                    after = core[i]
                    if (boxes[before][axis][0] < c) != (boxes[after][axis][0] < c):
                        total += 1
                    run_start = None
    return total

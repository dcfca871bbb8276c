"""Cell-identity cubical complexes and simplicial complexes.

Cubes are stored with explicit identity: a cell is a ``Cube`` with an id, a
corner array, and a facet list, not a bare vertex set. Two admissibility levels
coexist:

* strict: cubes are embedded, any two cells meet in at most one common
  face, and cells meeting in a common face are one cube on it. Raw
  corner-list input is validated at this level (:func:`validate_cubical`)
  and cells are determined by their corner sets.
* relaxed: cubes are embedded and any two cells meet in a union of pairwise
  vertex-disjoint common faces (:func:`verify_cw`). Hyperbolization quotients
  live here; they contain doubled cells (distinct squares with identical
  corner sets), which is why cell identity is explicit.

Corner arrays are in bitmask position order: a k-cube's corner at index ``b``
sits at the cube corner whose i-th coordinate is bit i of ``b``. Facet lists
are in ``(coordinate, side)`` order: ``facets[2*i + s]`` is the face where
coordinate ``i`` equals ``s``. Vertex ids are opaque integers.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from math import factorial
from operator import itemgetter

from .errors import CellNotFound, FormatError, NotAdmissible, Unsupported

# Most maximal flags ``barsub`` builds. A face on n vertices has n! maximal
# flags and a top k-cube 2^k k!, and every flag is closed over its subsets,
# so one cell at the parse cap (a 9-vertex face: 362880 flags) could exhaust
# memory. The largest subdivided fixture, ``sphere``, has 2304.
MAX_BARSUB_FLAGS = 1 << 14

# ---------------------------------------------------------------------------
# ordering helper for heterogeneous construction names


def name_key(x):
    """Total order key for ints, strings, tuples and frozensets, recursively.

    Construction names mix all four; Python refuses to compare them directly.
    """
    if isinstance(x, bool):
        return (0, int(x))
    if isinstance(x, int):
        return (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, (frozenset, set)):
        return (2, tuple(sorted(name_key(e) for e in x)))
    if isinstance(x, tuple):
        return (3, tuple(name_key(e) for e in x))
    raise TypeError(f"unorderable name component: {x!r}")


# ---------------------------------------------------------------------------
# corner-array combinatorics


def array_dim(arr):
    n = len(arr)
    if not n or n & (n - 1):
        raise FormatError(f"corner list length {n} is not a power of two")
    return n.bit_length() - 1


# readers of the corners of the facet ``coordinate i = side s`` of a cube
# with n corners, keyed by (n, i, s)
_FACE_POSITIONS = {}


def face_array(arr, i, s):
    """Corner array of the facet ``coordinate i = side s``, bitmask order kept."""
    key = (len(arr), i, s)
    get = _FACE_POSITIONS.get(key)
    if get is None:
        pos = [b for b in range(len(arr)) if (b >> i) & 1 == s]
        # itemgetter of one position returns the item, not a 1-tuple
        get = itemgetter(*pos) if len(pos) > 1 else lambda a: tuple(a[b] for b in pos)
        _FACE_POSITIONS[key] = get
    return get(arr)


def _canonical_frame(arr):
    """The symmetry taking ``arr`` to its canonical form.

    Returns the old corner positions in canonical order, the old position of
    the least corner, and the old axes in canonical order.
    """
    k = array_dim(arr)
    b0 = arr.index(min(arr))
    axes = sorted(range(k), key=lambda i: arr[b0 ^ (1 << i)])
    positions = [b0]
    for i in axes:
        bit = 1 << i
        positions += [b ^ bit for b in positions]
    return positions, b0, axes


def canonical_corner_array(arr):
    """Lexicographically least corner array over all cube symmetries.

    The corners of an embedded cube are distinct, so the least array has a
    closed form: the least corner goes to position 0, and the axes are
    ordered by the value of that corner's neighbour along each of them. The
    cost is O(k 2^k) for a k-cube, not a search over its k! 2^k symmetries.
    """
    arr = tuple(arr)
    # vertices and edges, the most frequent calls, are valid and need no frame
    if len(arr) == 1:
        return arr
    if len(arr) == 2:
        return arr if arr[0] < arr[1] else (arr[1], arr[0])
    positions, _b0, _axes = _canonical_frame(arr)
    return tuple([arr[b] for b in positions])


def canonicalize_cell(arr, facets):
    """Canonicalize a corner array and reindex its facet list consistently.

    The symmetry moving ``arr`` to its canonical form sends the old facet
    ``(i, s)`` to the new facet ``(rank of axis i, s xor bit i of b0)``, where
    ``b0`` is the old position of the least corner.
    """
    arr = tuple(arr)
    facets = tuple(facets)
    if len(arr) == 1:
        return arr, facets
    positions, b0, axes = _canonical_frame(arr)
    new_facets = []
    for i in axes:
        s0 = (b0 >> i) & 1
        new_facets += [facets[2 * i + s0], facets[2 * i + 1 - s0]]
    return tuple([arr[b] for b in positions]), tuple(new_facets)


def _is_face(arr, corners):
    """Whether ``corners``, a nonempty subset of the corners of the cube
    ``arr``, is the corner set of one of its faces: their positions must fill
    the subcube that their XOR-spread from one of them spans."""
    pos = [b for b, v in enumerate(arr) if v in corners]
    spread = 0
    for b in pos:
        spread |= b ^ pos[0]
    return len(pos) == 1 << bin(spread).count("1")


# ---------------------------------------------------------------------------
# validation of raw corner lists (strict level)


@dataclass(frozen=True)
class Finding:
    kind: str  # RepeatedCorner | NonFaceIntersection | TwistedFacetFrame
    cells: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple

    @property
    def ok(self):
        return not self.findings

    def to_payload(self):
        return {
            "ok": self.ok,
            "findings": [
                {"kind": f.kind, "cells": list(f.cells), "detail": f.detail}
                for f in self.findings
            ],
        }


@dataclass(frozen=True)
class CheckReport:
    """Named structural checks, each with a status in pass|fail|n/a."""

    checks: tuple  # (name, status, detail)

    @property
    def ok(self):
        return all(status != "fail" for (_n, status, _d) in self.checks)

    def to_payload(self):
        return {
            "ok": self.ok,
            "checks": [
                {"name": n, "status": s, "detail": d} for (n, s, d) in self.checks
            ],
        }


def _pairs_sharing_two_corners(at_vertex, corners):
    """The pairs ``(a, b)``, ``a < b``, of cells that share at least two corners.

    ``at_vertex`` maps each vertex to the ascending ids of the cells at it and
    ``corners`` maps a cell id to its distinct corners. Two cells that meet in
    one corner have its 0-cell as their only common face, so neither
    validator can fail them. Pairs come once each, ordered by their least
    shared corner and then by ``(a, b)``: at each vertex ``v`` the cells are
    grouped by each of their corners above ``v``.
    """
    seen = set()
    for v in sorted(at_vertex):
        groups = {}
        for c in at_vertex[v]:
            for w in corners[c]:
                if w > v:
                    groups.setdefault(w, []).append(c)
        new = set()
        for group in groups.values():
            new.update(combinations(group, 2))
        new -= seen
        seen |= new
        yield from sorted(new)


def validate_cubical(corner_lists):
    """Check a family of corner lists at the strict admissibility level.

    The closure of the listed cells is implied, so only the listed cells are
    checked against each other. Returns a ValidationReport with
    RepeatedCorner and NonFaceIntersection findings; cells are referred to by
    their index in the input.
    """
    cells = [tuple(c) for c in corner_lists]
    findings = []
    clean = {}
    for idx, arr in enumerate(cells):
        array_dim(arr)
        if len(set(arr)) != len(arr):
            findings.append(Finding("RepeatedCorner", (idx,), f"corners {arr}"))
            continue
        clean[idx] = canonical_corner_array(arr)

    by_canon = {}
    for idx, canon in clean.items():
        by_canon.setdefault(canon, []).append(idx)
    for canon, idxs in sorted(by_canon.items()):
        if len(idxs) > 1:
            findings.append(
                Finding(
                    "NonFaceIntersection",
                    tuple(idxs),
                    "distinct cells share the corner set "
                    f"{sorted(set(canon))}",
                )
            )

    # single-common-face test on the pairs that share two corners; faces of
    # the listed cells inherit it
    at_corner = {}
    for idx, canon in clean.items():
        for v in canon:
            at_corner.setdefault(v, []).append(idx)
    for a, b in sorted(_pairs_sharing_two_corners(at_corner, clean)):
        A, B = clean[a], clean[b]
        if A == B:
            continue  # already reported as a duplicate pair
        inter = frozenset(A) & frozenset(B)
        if not (_is_face(A, inter) and _is_face(B, inter)) or (
            # a face on 4 or more corners is not fixed by its corner set; the
            # shared corners in position order list each cell's face in
            # bitmask order, and the two faces must be one cube
            len(inter) >= 4
            and canonical_corner_array([v for v in A if v in inter])
            != canonical_corner_array([v for v in B if v in inter])
        ):
            findings.append(
                Finding(
                    "NonFaceIntersection",
                    (a, b),
                    f"intersection {sorted(inter)} is not a common face",
                )
            )
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# the complex proper


@dataclass(frozen=True, slots=True, init=False)
class Cube:
    cid: int
    corners: tuple  # vertex ids, bitmask position order, canonical
    facets: tuple  # cell ids, (coordinate, side) order
    # read on every cell visit, so stored once rather than recomputed
    dim: int = field(init=False, repr=False, compare=False)

    def __init__(self, cid, corners, facets):
        # a frozen instance refuses attribute writes, so the slots are set
        # through their descriptors: one write each, no __post_init__ pass
        set_cid, set_corners, set_facets, set_dim = _SET_SLOTS
        set_cid(self, cid)
        set_corners(self, corners)
        set_facets(self, facets)
        set_dim(self, len(corners).bit_length() - 1)


_SET_SLOTS = tuple(Cube.__dict__[f].__set__ for f in ("cid", "corners", "facets", "dim"))


class CubicalComplex:
    """Immutable cubical complex with explicit cell identity.

    ``kind`` is "cubical" for strict corner-set-determined complexes and "cw"
    for relaxed complexes that may contain doubled cells. Cell ids are
    contiguous from zero in canonical order (dimension, canonical corner
    array, construction name).
    """

    def __init__(self, cubes, kind="cubical", names=None, vertex_names=None):
        self.cells = {c.cid: c for c in cubes}
        if sorted(self.cells) != list(range(len(self.cells))):
            raise ValueError("cell ids must be contiguous from zero")
        self.kind = kind
        self.names = dict(names) if names else None
        self.vertex_names = dict(vertex_names) if vertex_names else None
        # cell tables from outside are checked by from_named_cells; a closure
        # built by from_maximal_cells takes each facet as the canonical form
        # of a face of its own cube, so no frame is twisted
        self._twisted = ()
        self._index()

    # -- construction -------------------------------------------------

    @classmethod
    def from_maximal_cells(cls, corner_lists, check=True):
        """Build the closure of the given maximal cells as a strict complex."""
        lists = [tuple(c) for c in corner_lists]
        if check:
            report = validate_cubical(lists)
            if not report.ok:
                raise NotAdmissible(report)
        facets_of = {}  # canonical array -> canonical facet arrays
        for arr in lists:
            if len(set(arr)) != len(arr):
                raise NotAdmissible(f"repeated corners in {arr}")
            todo = [canonical_corner_array(arr)]
            while todo:
                a = todo.pop()
                if a not in facets_of:
                    k = len(a).bit_length() - 1
                    fs = tuple(
                        canonical_corner_array(face_array(a, i, s)) for i in range(k) for s in (0, 1)
                    )
                    facets_of[a] = fs
                    todo += fs
        return cls._from_facet_arrays(facets_of)

    @classmethod
    def _from_facet_arrays(cls, facets_of):
        """The strict complex whose cells are the keys of ``facets_of``, each a
        canonical corner array mapped to its facet arrays in facet order."""
        # a k-cube has 2^k corners, so (length, array) is (dimension, array) order
        order = sorted(facets_of, key=lambda a: (len(a), a))
        cid = {a: i for i, a in enumerate(order)}
        cubes = [Cube(cid[a], a, tuple([cid[f] for f in facets_of[a]])) for a in order]
        return cls(cubes, kind="cubical")

    @classmethod
    def from_named_cells(cls, named):
        """Finalize a named cell dictionary into a relaxed (cw) complex.

        ``named`` maps construction names to ``(corners, facets)`` where both
        reference other names; corners reference 0-cell names in bitmask
        order. Vertex ids and cell ids are assigned by canonical sort and the
        name tables are retained.
        """
        zero_names = sorted(
            (n for n, (co, fa) in named.items() if len(co) == 1), key=name_key
        )
        vid = {n: i for i, n in enumerate(zero_names)}
        for n, (co, fa) in named.items():
            if len(co) == 1 and co[0] != n:
                raise ValueError(f"a 0-cell must be its own corner: {n!r}")
        pre = {}
        for n, (co, fa) in named.items():
            arr = tuple(vid[c] for c in co)
            carr, cfacets = canonicalize_cell(arr, fa)
            pre[n] = (carr, cfacets)
        # a k-cube has 2^k corners, so (length, array) is (dimension, array)
        # order; names only break ties between equal arrays
        order = []
        for _arr, run in groupby(
            sorted(pre, key=lambda n: (len(pre[n][0]), pre[n][0])), key=lambda n: pre[n][0]
        ):
            run = list(run)
            if len(run) > 1:
                run.sort(key=name_key)
            order += run
        cid = {n: i for i, n in enumerate(order)}
        cubes = []
        for n in order:
            carr, cfacets = pre[n]
            cubes.append(Cube(cid[n], carr, tuple(cid[f] for f in cfacets)))
        names = {cid[n]: n for n in order}
        vertex_names = {v: n for n, v in vid.items()}
        X = cls(cubes, kind="cw", names=names, vertex_names=vertex_names)
        X._check_local_structure()
        return X

    # -- indexes ---------------------------------------------------------

    def _check_local_structure(self):
        # The cubes some facet of which takes a frame whose edges are not the
        # cube's; with none, each edge of a cube is a subcell. Only cw input
        # can have them (a square facet taken with its diagonals swapped).
        twisted = []
        for c in self.cells.values():
            k = c.dim
            if len(set(c.corners)) != len(c.corners):
                raise ValueError(f"cube {c.cid} is not embedded: {c.corners}")
            if len(c.facets) != 2 * k:
                raise ValueError(f"cube {c.cid} has {len(c.facets)} facets, wanted {2*k}")
            if len(set(c.facets)) != len(c.facets):
                raise ValueError(f"cube {c.cid} repeats a facet")
            for i in range(k):
                for s in (0, 1):
                    f = self.cells.get(c.facets[2 * i + s])
                    if f is None:
                        raise ValueError(f"cube {c.cid} references missing facet")
                    if set(f.corners) != set(face_array(c.corners, i, s)):
                        raise ValueError(
                            f"cube {c.cid} facet ({i},{s}) corners disagree"
                        )
            if k > 2:
                where = {v: b for b, v in enumerate(c.corners)}
                axes = {1 << i for i in range(k)}
                pos = [[where[v] for v in self.cells[f].corners] for f in c.facets]
                if not all(
                    (q[p] ^ q[p ^ (1 << j)]) in axes
                    for q in pos for p in range(len(q)) for j in range(k - 1)
                ):
                    twisted.append(c.cid)
        self._twisted = tuple(sorted(twisted))

    def _index(self):
        self.by_dim = {}
        for c in self.cells.values():
            self.by_dim.setdefault(c.dim, []).append(c.cid)
        for d in self.by_dim:
            self.by_dim[d].sort()
        self.vertices = sorted(v for (v,) in (self.cells[c].corners for c in self.by_dim.get(0, [])))
        self.zero_cell = {self.cells[c].corners[0]: c for c in self.by_dim.get(0, [])}
        self.cells_at_vertex = {v: [] for v in self.vertices}
        for c in sorted(self.cells):
            for v in set(self.cells[c].corners):
                self.cells_at_vertex[v].append(c)
        # the ids of the cells that have a cell as a facet, ascending
        self.cofaces = {c: [] for c in self.cells}
        for c in sorted(self.cells):
            for f in self.cells[c].facets:
                self.cofaces[f].append(c)
        # edges by sorted corner pair; only doubled edges share a pair
        self._edges_at_pair = {}
        for e in self.by_dim.get(1, []):
            self._edges_at_pair.setdefault(tuple(sorted(self.cells[e].corners)), []).append(e)
        self._subcells = {}
        self._cw_report = None  # verify_cw's verdict, computed on first request
        self._top_adjacency = None  # built by top_adjacency on first request

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self):
        return max(self.by_dim) if self.by_dim else -1

    def cell(self, cid):
        try:
            return self.cells[cid]
        except KeyError:
            raise CellNotFound(f"no cell {cid}") from None

    def counts(self):
        return {d: len(cs) for d, cs in sorted(self.by_dim.items())}

    def top_cells(self):
        return sorted(c for c in self.cells if not self.cofaces[c])

    def is_homogeneous(self):
        n = self.dim
        return all(self.cells[c].dim == n for c in self.top_cells())

    def is_boundaryless(self):
        # every codimension-1 cell bounds exactly two top cells; the cofaces
        # of a codimension-1 cell are cells of full dimension, so top cells
        return all(len(self.cofaces[c]) == 2 for c in self.by_dim.get(self.dim - 1, []))

    def top_adjacency(self):
        """Top cell -> (codimension-1 cell, neighbouring top cell) pairs, kept.

        Keys are every top cell in ascending order. The top cells on one
        codimension-1 face form a chain through it: each is linked to the
        next in id order, so a face of k top cells gives k - 1 links, each
        listed at both ends. A search that may cross the face still reaches
        every top cell on it.
        """
        if self._top_adjacency is None:
            adj = {t: [] for t in self.top_cells()}
            for c in self.by_dim.get(self.dim - 1, []):
                holders = self.cofaces[c]
                for a, b in zip(holders, holders[1:]):
                    adj[a].append((c, b))
                    adj[b].append((c, a))
            self._top_adjacency = adj
        return self._top_adjacency

    def subcells(self, cid):
        """All faces of a cell, itself included, as a frozenset of cell ids."""
        got = self._subcells.get(cid)
        if got is not None:
            return got
        cube = self.cell(cid)
        acc = {cid}
        for f in cube.facets:
            acc |= self.subcells(f)
        out = frozenset(acc)
        self._subcells[cid] = out
        return out

    def face_of(self, cid, constraints):
        """The face of ``cid`` with the given coordinates pinned to sides.

        ``constraints`` maps coordinate indexes of the cell to sides. Resolved
        by corner set rather than by facet-index descent: a facet cell's own
        canonical frame need not agree with the frame the parent induces on
        it, so chained facet lookups can silently flip sides. Within one
        embedded cube a face is determined by its corners.
        """
        cube = self.cell(cid)
        k = cube.dim
        want = frozenset(
            cube.corners[b]
            for b in range(1 << k)
            if all((b >> j) & 1 == s for j, s in constraints.items())
        )
        target = k - len(constraints)
        matches = [
            f
            for f in self.subcells(cid)
            if self.cells[f].dim == target and frozenset(self.cells[f].corners) == want
        ]
        if len(matches) != 1:
            raise CellNotFound(
                f"cell {cid} has {len(matches)} faces with corners {sorted(want)}"
            )
        return matches[0]

    def edges_at_corner(self, cid, b):
        """Cell ids of the cube's edges at corner position ``b``, one per coordinate.

        The edge along coordinate ``i`` is the 1-face whose corners are
        ``corners[b]`` and ``corners[b ^ (1 << i)]``, as :meth:`face_of`
        resolves it. Where every facet's frame agrees with its cube's (checked
        by :meth:`from_named_cells`, and true of every closure that
        :meth:`from_maximal_cells` builds), each such edge is a subcell of the
        cube, so an edge alone at its corner pair is that face. Otherwise, and
        for the edges of a doubled pair, the candidates are filtered by the
        cube's subcells.
        """
        return self._edges_at(self.cell(cid), b)

    def _edges_at(self, cube, b):
        # edges_at_corner for a cube at hand; link_masks calls it once per cell
        corners = cube.corners
        v = corners[b]
        out = []
        for i in range(cube.dim):
            w = corners[b ^ (1 << i)]
            matches = self._edges_at_pair.get((v, w) if v < w else (w, v), ())
            if len(matches) != 1 or self._twisted:
                matches = [e for e in matches if e in self.subcells(cube.cid)]
                if len(matches) != 1:
                    raise CellNotFound(
                        f"cell {cube.cid} has {len(matches)} faces with corners {sorted((v, w))}"
                    )
            out.append(matches[0])
        return out


# ---------------------------------------------------------------------------
# relaxed admissibility (embedded cubes, disjoint-unions-of-faces intersections)


def verify_cw(X):
    """Check the relaxed admissibility level on a cell-identity complex.

    Every cube must be embedded (checked when the complex is built), the
    edges of each facet in its own frame must be edges of its cube (else a
    TwistedFacetFrame finding), and every pair of cells must intersect in a
    union of pairwise vertex-disjoint common faces: the maximal common faces
    are vertex-disjoint and their corners cover the corner-set intersection.
    Only pairs that share two corners are scanned. The complex is immutable,
    so the report is kept on it and a second call returns the first verdict.
    """
    if X._cw_report is None:
        X._cw_report = _verify_cw(X)
    return X._cw_report


def _verify_cw(X):
    twisted = "a facet takes its own frame, in which an edge is a diagonal of the cube"
    findings = [Finding("TwistedFacetFrame", (c,), twisted) for c in X._twisted]
    corners = {cid: c.corners for cid, c in X.cells.items()}
    for a, b in _pairs_sharing_two_corners(X.cells_at_vertex, corners):
        ca, cb = X.cells[a], X.cells[b]
        inter = set(ca.corners) & set(cb.corners)
        sa, sb = X.subcells(a), X.subcells(b)
        # a face of the other cell that holds every shared corner is their
        # only maximal common face, and its corners are the intersection
        if a in sb and len(inter) == len(ca.corners) or b in sa and len(inter) == len(cb.corners):
            continue
        common = sa & sb
        # common faces are closed under faces, so a face below another
        # is a facet of some common face
        maximal = common - {f for d in common for f in X.cells[d].facets}
        covered = set()
        disjoint = True
        for c in maximal:
            cs = set(X.cells[c].corners)
            if covered & cs:
                disjoint = False
            covered |= cs
        if not disjoint or covered != inter:
            findings.append(
                Finding(
                    "NonFaceIntersection",
                    (a, b),
                    "maximal common faces "
                    f"{sorted(maximal)} do not tile the corner intersection",
                )
            )
    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# links


def mask_bits(mask):
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def link_masks(X, v):
    """The link of a vertex as ``(edges, faces, bigons)``, faces as bitmasks.

    Bit k stands for ``edges[k]``, the edges at ``v`` in id order. Each edge
    is its own single-bit face (a doubled twin is not one of its subcells),
    each cube of dimension >= 2 at ``v`` gives the mask of its edges at
    ``v``, and ``faces`` is closed under nonempty subsets. Cells giving one
    mask form a bigon; ``bigons`` lists their cell ids, ordered by edge ids.
    """
    if v not in X.zero_cell:
        raise CellNotFound(f"no vertex {v}")
    cells = X.cells
    edges = [c for c in X.cells_at_vertex[v] if cells[c].dim == 1]
    bit = {e: 1 << k for k, e in enumerate(edges)}
    induced = {}
    for cid in X.cells_at_vertex[v]:
        cube = cells[cid]
        if cube.dim < 2:
            continue
        # every cell at v has v as a corner
        mask = sum(bit[e] for e in X._edges_at(cube, cube.corners.index(v)))
        induced.setdefault(mask, []).append(cid)
    faces, level = set(bit.values()), set(induced)
    while level:  # a level at a time: the facets of the faces new to the last
        faces |= level
        below = set()
        for f in level:
            rest = f
            while rest:
                below.add(f ^ (rest & -rest))
                rest &= rest - 1
        level = below - faces
    doubled = sorted((mask_bits(m), cids) for m, cids in induced.items() if len(cids) > 1)
    return edges, faces, tuple(tuple(cids) for _bits, cids in doubled)


def flag_failure(faces):
    """None when every clique of the 1-skeleton of ``faces`` (bitmasks closed
    under nonempty subsets) spans a face; else the least minimal non-face, as
    its ascending bit positions. Faces grow level by level from the edges, each
    by the AND of one mask of later neighbours per bit."""
    later = {}  # by the single bit of each vertex
    edges = [f for f in faces if f.bit_count() == 2]
    for f in edges:
        later[f & -f] = later.get(f & -f, 0) | f & (f - 1)
    level = [(f, later[f & -f] & later.get(f & (f - 1), 0)) for f in edges]
    while level:
        grown, failures = [], []
        for f, common in level:
            rest = common
            while rest:
                w = rest & -rest
                rest ^= w
                if (f | w) in faces:
                    grown.append((f | w, common & later.get(w, 0)))
                else:
                    failures.append(f | w)
        if failures:
            return min(map(mask_bits, failures))
        level = grown
    return None


# ---------------------------------------------------------------------------
# simplicial complexes


class SimplicialComplex:
    """Finite simplicial complex over hashable vertex labels.

    Built from maximal faces; the closure under nonempty subsets is stored.
    """

    def __init__(self, maximal_faces):
        # closure by facets: a face already present came with all its subsets
        faces = set()
        stack = [frozenset(f) for f in maximal_faces]
        while stack:
            f = stack.pop()
            if f and f not in faces:
                faces.add(f)
                if len(f) > 1:
                    stack.extend(f - {v} for v in f)
        self.faces = frozenset(faces)
        vertices = [v for f in faces if len(f) == 1 for v in f]
        # name_key orders plain ints (not bools) numerically
        if all(type(v) is int for v in vertices):
            vertices.sort()
        else:
            vertices.sort(key=name_key)
        self.vertices = vertices

    @cached_property
    def maximal(self):
        # faces are closed under subsets, so a face lies in a larger one
        # exactly when it is a facet of one
        covered = {g - {v} for g in self.faces if len(g) > 1 for v in g}
        return tuple(sorted(self.faces - covered, key=lambda f: (len(f), name_key(f))))

    @property
    def dim(self):
        return max((len(f) - 1 for f in self.faces), default=-1)

    def is_pure(self):
        n = self.dim
        return all(len(f) - 1 == n for f in self.maximal)

    def counts(self):
        out = {}
        for f in self.faces:
            out[len(f) - 1] = out.get(len(f) - 1, 0) + 1
        return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# barycentric subdivision (order complex of the face poset)


def barsub(X):
    """Barycentric subdivision with provenance.

    For a simplicial complex the new vertices are the faces themselves
    (frozensets); simplices are chains under inclusion. For a cubical complex
    the new vertices are cell ids and simplices are chains in the face poset.
    Either way the result is simplicial of the same dimension. Inputs with
    more than ``MAX_BARSUB_FLAGS`` maximal flags are refused as Unsupported.
    """
    if isinstance(X, SimplicialComplex):
        flags = sum(factorial(len(f)) for f in X.maximal)
    elif isinstance(X, CubicalComplex):
        flags = sum((1 << k) * factorial(k) for k in (X.cells[t].dim for t in X.top_cells()))
    else:
        raise TypeError("barsub expects a simplicial or cubical complex")
    if flags > MAX_BARSUB_FLAGS:
        raise Unsupported(
            f"barycentric subdivision needs {flags} maximal flags, over the cap {MAX_BARSUB_FLAGS}"
        )
    if isinstance(X, SimplicialComplex):
        tops = X.maximal

        def facets(f):
            return [f - {v} for v in f] if len(f) > 1 else ()

    else:
        tops = X.top_cells()

        def facets(cid):
            return set(X.cells[cid].facets)

    # flags grow down one facet at a time; one that reaches a vertex is maximal
    chains = []
    for t in tops:
        todo = [(t,)]
        while todo:
            chain = todo.pop()
            below = facets(chain[-1])
            if not below:
                chains.append(frozenset(chain))
            todo += [chain + (f,) for f in below]
    return SimplicialComplex(chains)


# ---------------------------------------------------------------------------
# cubical subdivision


# the intervals of the face poset of a k-cube, by k; see _cube_intervals
_INTERVALS = {}


def _cube_intervals(k):
    """The intervals [rho, tau] of the face poset of a k-cube, fewest free
    coordinates first, each as ``(corners, halves)``.

    A face with free mask m and the other coordinates pinned to the bits p is
    named by the index ``m << k | p``. An interval has one axis per
    coordinate free in tau and pinned in rho; ``corners[s]`` names its corner
    with the axes picked by the bits of ``s`` freed, so ``corners[0]`` is rho
    and ``corners[1 << q]`` covers rho along axis q. ``halves[q]`` holds the
    positions in this list of its two facets along axis q: [rho, tau - q]
    and [rho + q, tau].
    """
    got = _INTERVALS.get(k)
    if got is None:
        full = (1 << k) - 1
        keys = []  # (m, M, p): rho is (m, p), tau is (M, p & ~M)
        for m in range(1 << k):
            for p in range(1 << k):
                if p & m:
                    continue
                rest = full & ~m
                sub = rest
                while True:  # every subset of the coordinates outside m
                    keys.append((m, m | sub, p))
                    if not sub:
                        break
                    sub = (sub - 1) & rest
        keys.sort(key=lambda key: (key[1] ^ key[0]).bit_count())
        at = {key: n for n, key in enumerate(keys)}
        got = []
        for m, M, p in keys:
            axes = [1 << i for i in range(k) if (M & ~m) >> i & 1]
            corners = []
            for s in range(1 << len(axes)):
                f = m | sum(a for q, a in enumerate(axes) if s >> q & 1)
                corners.append(f << k | p & ~f)
            halves = [(at[m, M & ~a, p], at[m | a, M, p & ~a]) for a in axes]
            got.append((tuple(corners), tuple(halves)))
        _INTERVALS[k] = got
    return got


def cubical_subdivision(X):
    """Standard cubical subdivision: one vertex per cell, one k-cube per
    (corner, k-cell) pair. Vertex ids of the result are cell ids of ``X``.

    The result is always strict, even when the source is a relaxed complex
    with doubled cells, because subdivision cubes are poset intervals and an
    interval is determined by its corner set.

    Every cell is an interval [rho, tau] of the faces of a top cell, written
    straight in canonical form: cell ids are in dimension order, so rho is
    the least corner, and the axes go in the order of the ids of the cells
    that cover rho in the interval. An interval that two top cells share is
    written once, by its corner array; the same pair (rho, tau) can give two
    arrays where a top cell takes a facet in a twisted frame.
    """
    facets_of = {}  # canonical array -> canonical facet arrays
    getters = {}  # axis order -> reader of the corners in canonical order
    for t in X.top_cells():
        cube = X.cells[t]
        k = cube.dim
        # faces of t by (free mask, pinned bits) of their corner positions: the
        # face with the coordinates outside m pinned to b is faces[m << k | b & ~m]
        where = {v: b for b, v in enumerate(cube.corners)}
        faces = [None] * (1 << 2 * k)
        for f in X.subcells(t):
            pos = [where[v] for v in X.cells[f].corners]
            free = 0
            for p in pos:
                free |= p ^ pos[0]
            if len(pos) != 1 << free.bit_count():
                continue  # a face of a facet in its own frame, not one of t
            key = free << k | pos[0] & ~free
            faces[key] = f if faces[key] is None else -1  # -1: doubled, refused below
        if sum(f is not None and f >= 0 for f in faces) != 3**k:
            for b in range(1 << k):
                for m in range(1 << k):
                    f = faces[m << k | b & ~m]
                    if f is None or f < 0:  # raises CellNotFound with face_of's message
                        X.face_of(t, {j: (b >> j) & 1 for j in range(k) if not (m >> j) & 1})
        arrays = []  # by position in the interval list
        for corners, halves in _cube_intervals(k):
            ids = [faces[c] for c in corners]
            j = len(halves)
            if j < 2:
                arr = tuple(ids)
                order = range(j)
            else:
                covers = [ids[1 << q] for q in range(j)]
                order = tuple(sorted(range(j), key=covers.__getitem__))
                get = getters.get(order)
                if get is None:
                    pos = [0]
                    for q in order:
                        pos += [b | 1 << q for b in pos]
                    get = getters[order] = itemgetter(*pos)
                arr = get(ids)
            arrays.append(arr)
            if arr not in facets_of:
                facets_of[arr] = tuple([arrays[h] for q in order for h in halves[q]])
    return CubicalComplex._from_facet_arrays(facets_of)


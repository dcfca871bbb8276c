"""Foldings of cubical complexes, mirrors, framings, and separation.

A folding of an n-dimensional cubical complex labels every vertex with a
corner of the n-cube so that every cell maps injectively onto a face of the
target cube. Equivalently every edge flips exactly one coordinate and the
corner labels of every k-cube form a k-face. Graphs fold onto the interval,
so a graph is foldable exactly when it is bipartite.

A mirror is a connected component of the preimage of a codimension-1 face of
the target cube: the full subcomplex of cells all of whose vertices carry a
fixed value in one coordinate. Mirrors are closed subcomplexes.
"""

from dataclasses import dataclass
from itertools import combinations

from .complexes import SimplicialComplex, mask_bits
from .errors import InternalError, NotFoldable, UnlabeledVertex, Unsupported

# Most back-ups the folding search makes in one connected component. The
# search assigns each parallelism class one of n coordinates, so a component
# whose every assignment fails only at the parity check (an odd triangle with
# k pendant edges on one vertex) takes time exponential in k; past the cap it
# is refused as Unsupported. The fixtures and the grids, tori, cube grids and
# stars of the tests and the benchmark fold without one back-up.
MAX_FOLDING_BACKUPS = 1 << 14

# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class FoldingObstruction:
    kind: str  # edge | cube
    cell: int
    detail: str


def _label_of(labels, v, n):
    try:
        lab = labels[v]
    except KeyError:
        raise UnlabeledVertex(f"vertex {v} has no label") from None
    try:
        lab = tuple(lab)
    except TypeError:  # an integer label, as a simplicial folding has
        pass
    else:
        if len(lab) == n and all(x in (0, 1) for x in lab):
            return lab
    raise UnlabeledVertex(f"vertex {v} label {lab} is not a corner of the {n}-cube")


def verify_folding(X, labels):
    """First obstruction to ``labels`` being a folding of ``X``, or None.

    Cells are scanned in canonical id order so the witness is deterministic.
    Missing or malformed labels raise UnlabeledVertex; semantic failures are
    returned as a FoldingObstruction.
    """
    n = X.dim
    lab = {v: _label_of(labels, v, n) for v in X.vertices}
    # a label as an int, coordinate i at bit i
    bit = {v: sum(1 << i for i, x in enumerate(c) if x) for v, c in lab.items()}
    for cid in sorted(X.cells):
        cube = X.cells[cid]
        k = cube.dim
        if k == 0:
            continue
        if k == 1:
            a, b = (lab[v] for v in cube.corners)
            if sum(x != y for x, y in zip(a, b)) != 1:
                return FoldingObstruction(
                    "edge", cid, f"endpoint labels {a} and {b} do not flip exactly one coordinate"
                )
            continue
        bits = [bit[v] for v in cube.corners]
        if len(set(bits)) != len(bits):
            return FoldingObstruction("cube", cid, "corner labels repeat")
        base = bits[0]
        xors = {b ^ base for b in bits}
        span = 0
        for x in xors:
            span |= x
        if bin(span).count("1") != k or len(xors) != 1 << k:
            return FoldingObstruction(
                "cube", cid, f"corner labels do not form a {k}-face of the target cube"
            )
    return None


def assert_folding(X, labels):
    ob = verify_folding(X, labels)
    if ob is not None:
        raise NotFoldable("invalid folding", ob)
    return True


# ---------------------------------------------------------------------------
# search


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the least representative so class order is canonical
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def parallelism_classes(X):
    """Edge classes under square opposition, keyed by least edge id."""
    dsu = _DSU(X.by_dim.get(1, []))
    for sq in X.by_dim.get(2, []):
        f = X.cells[sq].facets
        dsu.union(f[0], f[1])
        dsu.union(f[2], f[3])
    classes = {}
    for e in X.by_dim.get(1, []):
        classes.setdefault(dsu.find(e), []).append(e)
    return {root: tuple(sorted(es)) for root, es in sorted(classes.items())}


def find_folding(X):
    """Search for a folding of ``X`` onto the cube of its dimension.

    Each connected component is searched on its own. Its parallelism classes
    are assigned coordinates by backtracking in canonical class order,
    pruning when a cube would see the same coordinate twice; at complete
    assignments each coordinate must admit a side potential (an even parity
    condition checked by BFS). The first success in search order is
    returned: least vertex of every component gets the all-zeros label.

    Raises NotFoldable when the search is exhausted, and Unsupported when a
    component needs more than ``MAX_FOLDING_BACKUPS`` back-ups.
    """
    n = X.dim
    if n <= 0:
        return {v: () for v in X.vertices}
    classes = parallelism_classes(X)
    root_of = {}
    for r, es in classes.items():
        for e in es:
            root_of[e] = r

    # each cube of dim >= 2 lists the classes of its coordinate directions
    cube_dirs = []
    for cid in sorted(X.cells):
        cube = X.cells[cid]
        if cube.dim < 2:
            continue
        dirs = [root_of[e] for e in X.edges_at_corner(cid, 0)]
        if len(set(dirs)) != len(dirs):
            raise NotFoldable(
                "two directions of one cube lie in the same parallelism class",
                FoldingObstruction("cube", cid, "parallel directions collide"),
            )
        cube_dirs.append(tuple(dirs))

    watching = {r: [] for r in classes}
    for idx, dirs in enumerate(cube_dirs):
        for r in dirs:
            watching[r].append(idx)

    assign = {}
    taken = [set() for _ in cube_dirs]  # coordinates already used per cube

    adj = {v: [] for v in X.vertices}
    for e in X.by_dim.get(1, []):
        a, b = X.cells[e].corners
        adj[a].append((b, e))
        adj[b].append((a, e))

    def parity_labels(start):
        # one BFS labels the component of start; per edge only the edge's
        # coordinate may flip, all others must agree
        lab = {start: (0,) * n}
        queue = [start]
        for v in queue:
            for w, e in adj[v]:
                i = assign[root_of[e]]
                lv = lab[v]
                want = lv[:i] + (lv[i] ^ 1,) + lv[i + 1 :]
                if w in lab:
                    if lab[w] != want:
                        return None
                else:
                    lab[w] = want
                    queue.append(w)
        return lab

    def search(roots, start):
        # depth first on an explicit stack: chosen[pos] is the coordinate of
        # roots[pos], and coord the next one to try at the first open class
        chosen = []
        coord = 0
        backups = 0
        while True:
            pos = len(chosen)
            if pos == len(roots):
                got = parity_labels(start)
                if got is not None:
                    return got
            else:
                r = roots[pos]
                while coord < n and any(coord in taken[idx] for idx in watching[r]):
                    coord += 1
                if coord < n:
                    assign[r] = coord
                    for idx in watching[r]:
                        taken[idx].add(coord)
                    chosen.append(coord)
                    coord = 0
                    continue
            # back up: undo the last choice and try the coordinate after it
            if not chosen:
                return None
            backups += 1
            if backups > MAX_FOLDING_BACKUPS:
                raise Unsupported(
                    f"the folding search backs up more than {MAX_FOLDING_BACKUPS} times"
                    f" in the component of vertex {start}"
                )
            coord = chosen.pop()
            r = roots[len(chosen)]
            for idx in watching[r]:
                taken[idx].discard(coord)
            del assign[r]
            coord += 1

    # Connected components share no cube and no cycle, so the first joint
    # assignment is the product of their first assignments: each component is
    # searched on its own, in order of its least vertex.
    labels = {}
    for start in X.vertices:
        if start in labels:
            continue
        comp, seen, mine = [start], {start}, set()
        for v in comp:
            for w, e in adj[v]:
                mine.add(root_of[e])
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        got = search(sorted(mine), start)
        if got is None:
            raise NotFoldable(
                "no coordinate assignment of the parallelism classes satisfies parity"
            )
        labels.update(got)
    if verify_folding(X, labels) is not None:
        raise InternalError("the folding search returned labels that are not a folding")
    return labels


# ---------------------------------------------------------------------------
# simplicial foldings (used by hyperbolization inputs)


def verify_simplicial_folding(S, labels):
    """Check a vertex labeling of a pure n-complex onto the n-simplex.

    Every maximal face must carry all n+1 labels exactly once. Returns None
    or a human-readable obstruction string.
    """
    if not isinstance(S, SimplicialComplex):
        raise TypeError("expected a simplicial complex")
    n = S.dim
    for v in S.vertices:
        if v not in labels:
            raise UnlabeledVertex(f"vertex {v!r} has no label")
        if labels[v] not in range(n + 1):
            raise UnlabeledVertex(f"vertex {v!r} label {labels[v]!r} outside 0..{n}")
    if not S.is_pure():
        return "complex is not homogeneous"
    for f in S.maximal:
        got = sorted(labels[v] for v in f)
        if got != list(range(n + 1)):
            return f"maximal face {sorted(f, key=str)} carries labels {got}"
    return None


def canonical_barsub_folding(S):
    """Dimension labels of a barycentric subdivision: face -> len(face)-1.

    This is always a valid simplicial folding of ``barsub`` output.
    """
    return {v: len(v) - 1 for v in S.vertices}


# ---------------------------------------------------------------------------
# mirrors


@dataclass(frozen=True)
class Mirror:
    index: int
    coordinate: int
    side: int
    cells: frozenset  # cell ids, a closed connected subcomplex

    def to_payload(self):
        return {
            "index": self.index,
            "coordinate": self.coordinate,
            "side": self.side,
            "cells": sorted(self.cells),
        }


def mirrors(X, labels):
    """All mirrors of the folding, in canonical (coordinate, side, least cell) order."""
    n = X.dim
    full = (1 << max(n, 0)) - 1
    bits = {v: sum(1 << i for i, x in enumerate(_label_of(labels, v, n)) if x) for v in X.vertices}
    # one pass over the cells: the coordinates where all corners of a cell
    # read 1 (or 0) name every (coordinate, side) class that holds it
    members = {}
    for cid in sorted(X.cells):
        ones = zeros = full
        for v in X.cells[cid].corners:
            ones &= bits[v]
            zeros &= ~bits[v]
        for side, m in ((0, zeros), (1, ones)):
            for i in mask_bits(m):
                members.setdefault((i, side), []).append(cid)
    out = []
    for (i, side), member in members.items():
        dsu, member_set = _DSU(member), set(member)
        for c in member:  # the vertices of the class are its 0-cells
            if X.cells[c].dim == 0:
                at = [d for d in X.cells_at_vertex[X.cells[c].corners[0]] if d in member_set]
                for d in at[1:]:
                    dsu.union(at[0], d)
        comps = {}
        for c in member:
            comps.setdefault(dsu.find(c), []).append(c)
        out += [(i, side, root, frozenset(cells)) for root, cells in comps.items()]
    out.sort(key=lambda entry: entry[:3])
    return [
        Mirror(idx, i, side, cells) for idx, (i, side, _root, cells) in enumerate(out)
    ]


def framings(X, M):
    """All framings of a mirror: (cell, (C1, C2)) with C1 < C2 top cells whose
    whole intersection lies inside the mirror and contains the cell.

    A nonempty common face contains a 0-cell, which then lies in the mirror,
    so only pairs of top cells meeting at a vertex of the mirror are tested.
    """
    pairs = set()
    for c in M.cells:
        cube = X.cells[c]
        if cube.dim:
            continue
        at = [t for t in X.cells_at_vertex[cube.corners[0]] if not X.cofaces[t]]
        pairs.update(combinations(at, 2))
    out = []
    for a, b in sorted(pairs):
        common = X.subcells(a) & X.subcells(b)
        if not common <= M.cells:
            continue
        for sigma in sorted(common):
            out.append((sigma, (a, b)))
    return out


@dataclass(frozen=True)
class SeparationReport:
    separates: bool
    n_components: int
    framing_count: int


def chambers_avoiding(X, cut):
    """Chambers of ``X`` cut along the cells in ``cut``.

    Chambers are the components of the top-cube adjacency graph in which two
    top cells are adjacent when they share a codimension-1 face outside
    ``cut``. Each chamber is a sorted tuple of top cell ids; chambers are
    ordered by their least top cell. The adjacency is built once per complex
    (``CubicalComplex.top_adjacency``) and each cut is one search over it.
    """
    adj = X.top_adjacency()
    seen = set()
    out = []
    for start in adj:  # ascending, so each chamber starts at its least top cell
        if start in seen:
            continue
        seen.add(start)
        chamber = [start]
        for t in chamber:
            for c, u in adj[t]:
                if u not in seen and c not in cut:
                    seen.add(u)
                    chamber.append(u)
        out.append(tuple(sorted(chamber)))
    return tuple(out)


def mirror_separates(X, M):
    """Does the mirror separate all of its framings?

    Components are the chambers of ``X`` cut along the mirror's cells.
    """
    comps = chambers_avoiding(X, M.cells)
    comp_of = {t: idx for idx, comp in enumerate(comps) for t in comp}
    fr = framings(X, M)
    separated = all(comp_of[c1] != comp_of[c2] for (_s, (c1, c2)) in fr)
    return SeparationReport(separated, len(comps), len(fr))

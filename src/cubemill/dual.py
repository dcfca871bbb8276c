"""The dual cubical complex of an admissible complex, with its height function.

Dual vertices are the cells of the source; the height of a dual vertex is the
dimension of its cell. Dual cubes are intervals of the face poset: the
interval from a vertex-cell to a top cell spans a maximal dual cube, and every
dual cell is an interval [a, b] of dimension dim(b) - dim(a). Structurally
the dual complex is the cubical subdivision, which is why it exists (and is
strictly embedded) even when the source has doubled cells.

Where the cells at a dual vertex pair off as (cell below, cell above), its
link is the join of the two parts and only they are searched for flagness;
elsewhere the whole link is read.
"""

from dataclasses import dataclass, field

from .complexes import (
    CheckReport,
    CubicalComplex,
    cubical_subdivision,
    flag_failure,
    link_masks,
    verify_cw,
)
from .errors import NotAdmissible


@dataclass
class DualComplex:
    complex: CubicalComplex
    source: CubicalComplex
    heights: dict  # dual vertex id (= source cell id) -> dimension of that cell
    _graph: dict = field(default=None, repr=False, compare=False)
    _square_index: dict = field(default=None, repr=False, compare=False)
    _tops_at: dict = field(default=None, repr=False, compare=False)
    # surgery contexts, one per folding, filled by surgery.surgery_context
    _surgery: list = field(default_factory=list, repr=False, compare=False)

    def skeleton(self):
        """The dual 1-skeleton as an adjacency dict ``{v: {w: None}}``, cached.

        Neighbours keep the order in which their edges appear in the cell
        table, which fixes the paths breadth-first searches return.
        """
        if self._graph is None:
            adj = {v: {} for v in self.complex.vertices}
            for cube in self.complex.cells.values():
                if cube.dim == 1:
                    a, b = cube.corners
                    adj[a][b] = None
                    adj[b][a] = None
            self._graph = adj
        return self._graph

    def adjacent(self, u, v):
        return v in self.skeleton().get(u, ())

    def square_by_corners(self, corners):
        """The dual square with the given corner set, or None."""
        if self._square_index is None:
            idx = {}
            for cid, cube in self.complex.cells.items():
                if cube.dim == 2:
                    idx[frozenset(cube.corners)] = cid
            self._square_index = idx
        return self._square_index.get(frozenset(corners))

    def to_payload(self):
        return {
            "counts": {str(d): n for d, n in sorted(self.complex.counts().items())},
            "heights": {str(v): h for v, h in sorted(self.heights.items())},
        }


def build_dual(X):
    """The dual complex of an admissible cubical complex.

    Refuses inadmissible input: the dual's cells are poset intervals and the
    height axioms below are only meaningful over a complex whose cells meet
    along common faces.
    """
    rep = verify_cw(X)
    if not rep.ok:
        raise NotAdmissible(f"{len(rep.findings)} admissibility findings")
    D = cubical_subdivision(X)
    heights = {v: X.cells[v].dim for v in D.vertices}
    return DualComplex(D, X, heights)


def tops_containing(D, dual_vertices):
    """Source top cells whose tile contains every one of the dual vertices.

    Reads a dual vertex -> top cells index built on first use, so the cost
    follows the number of vertices asked about, not the size of the complex.
    """
    vs = set(dual_vertices)
    if not vs:
        return D.source.top_cells()
    if D._tops_at is None:
        at = {}
        for t in D.source.top_cells():
            for v in D.source.subcells(t):
                at.setdefault(v, []).append(t)
        D._tops_at = at
    return [t for t in D._tops_at.get(next(iter(vs)), ()) if vs <= D.source.subcells(t)]


# ---------------------------------------------------------------------------
# axioms


def verify_dual_axioms(D):
    """Exhaustively check the height axioms of a dual complex.

    Edges change height by one; squares carry heights h, h+1, h+1, h+2 with
    the extremes on one diagonal; every cube is a poset interval with a unique
    lowest and highest corner; vertex links are flag with flag ascending and
    descending full sublinks (checked only under links that fail, since a
    full subcomplex of a flag complex is flag); and every 4-cycle of the
    skeleton with a unique height minimum and maximum spans a stored square.

    One pass over the cells serves the first three checks, which a graded
    cell (heights rising by one per coordinate from its corner 0) passes but
    for its face relations, and files each graded cell under its lowest and
    its highest corner. The link of a vertex is the join of its descending
    and ascending parts (the cells it tops, the cells it bottoms) when every
    cell at it is graded, no two share both extreme corners, each part gives
    distinct masks, and (n + 1)(m + 1) cells meet it for parts of n and m
    cells. A doubled edge is two cells on one pair of extreme corners, and a
    facet frame twisted against its cube takes a diagonal of the cube for an
    edge and so is not graded: neither needs a test of its own. A join is
    flag exactly when both parts are, so only the parts are searched, read
    from the extreme corners of their cells. Elsewhere, and where a part is
    not flag, the whole link is read. The interval-complete check looks a
    4-cycle up among the graded squares by its extreme corners first.
    """
    X = D.complex
    h = D.heights
    subcells = D.source.subcells
    bad_edges, bad_squares, bad_cubes = [], [], []
    above = {v: {} for v in X.vertices}  # lowest corner -> highest corner -> graded cell
    below = {v: [] for v in X.vertices}  # highest corner -> graded cells
    tangled = set()  # vertices whose link is not read as a join
    for cube in X.cells.values():
        k = cube.dim
        if k == 0:
            continue  # a single corner is its own interval
        c = cube.corners
        hs = [h[u] for u in c]
        h0 = hs[0]
        if [x - h0 for x in hs] == _ranks(k):
            lo, hi = c[0], c[-1]
            twin = above[lo].setdefault(hi, cube)
            if twin is not cube:
                tangled.update(c, twin.corners)
            below[hi].append(cube)
        else:
            tangled.update(c)
            if k == 1 and abs(hs[0] - hs[1]) != 1:
                bad_edges.append(cube.cid)
            elif k == 2:
                d1 = sorted((hs[0], hs[3]))
                d2 = sorted((hs[1], hs[2]))
                flat, split = (d1, d2) if d1[0] == d1[1] else (d2, d1)
                if flat[0] != flat[1] or split != [flat[0] - 1, flat[0] + 1]:
                    bad_squares.append(cube.cid)
            low, high = min(hs), max(hs)
            if hs.count(low) != 1 or hs.count(high) != 1 or high - low != k:
                bad_cubes.append(cube.cid)
                continue
            lo, hi = c[hs.index(low)], c[hs.index(high)]
        sub_hi = subcells(hi)
        for v in c:
            if v not in sub_hi or lo not in subcells(v):
                bad_cubes.append(cube.cid)
                break
    checks = [
        _verdict("edge-heights", bad_edges),
        _verdict("square-heights", bad_squares),
        _verdict("cube-intervals", bad_cubes),
    ]

    bad_links = []
    bad_sublinks = []
    for v in X.vertices:
        if v not in tangled:
            ups = above[v].values()
            downs = below[v]
            if len(X.cells_at_vertex[v]) == (len(ups) + 1) * (len(downs) + 1):
                parts = (_join_factor(ups, False), _join_factor(downs, True))
                if all(p is not None and flag_failure(p) is None for p in parts):
                    continue
        link_fails, sublink_fails = _link_verdict(X, h, v)
        if link_fails:
            bad_links.append(v)
        if sublink_fails:
            bad_sublinks.append(v)
    checks.append(_verdict("links-flag", bad_links))
    checks.append(_verdict("sublinks-flag", bad_sublinks))

    adj = D.skeleton()
    bad = []
    for w in sorted(X.vertices):
        down_w = [u for u in adj[w] if h[u] == h[w] - 1]
        for i in range(len(down_w)):
            for j in range(i + 1, len(down_w)):
                a, b = down_w[i], down_w[j]
                commons = [u for u in adj[a].keys() & adj[b] if h[u] == h[w] - 2]
                for u in commons:
                    sq = above[u].get(w)  # a graded square, filed by its extreme corners
                    if sq is not None and sq.dim == 2 and {a, b} == {sq.corners[1], sq.corners[2]}:
                        continue
                    if D.square_by_corners({u, a, b, w}) is None:
                        bad.append((u, a, b, w))
    checks.append(_verdict("interval-complete", bad))

    return CheckReport(tuple(checks))


def _verdict(name, bad):
    if not bad:
        return (name, "pass", "")
    return (name, "fail", f"{len(bad)} violations, first {sorted(bad)[:3]}")


# by k, the heights of the corners of a graded k-cube above its corner 0
_RANKS = {}


def _ranks(k):
    got = _RANKS.get(k)
    if got is None:
        got = _RANKS[k] = [b.bit_count() for b in range(1 << k)]
    return got


def _join_factor(cells, top):
    """The masks of one part of a vertex link: each cell gives the corners next
    to its highest (``top``) or lowest corner, one bit per corner. None when
    two cells give one mask."""
    bit = {}
    masks = set()
    for cube in cells:
        c = cube.corners
        n = len(c) - 1 if top else 0
        mask = 0
        for i in range(cube.dim):
            w = c[n ^ 1 << i]
            b = bit.get(w)
            if b is None:
                b = bit[w] = 1 << len(bit)
            mask |= b
        masks.add(mask)
    return masks if len(masks) == len(cells) else None


def _link_verdict(X, h, v):
    """Whether the link of ``v`` fails, and whether one of its full ascending
    and descending sublinks does, read from the whole link."""
    edges, faces, bigons = link_masks(X, v)
    if bigons:
        return True, False
    if flag_failure(faces) is None:
        # the sublinks are full subcomplexes of a flag link, so flag too
        return False, False
    # an edge at v goes up when its other end is above v
    up = sum(1 << k for k, e in enumerate(edges) if h[sum(X.cells[e].corners) - v] > h[v])
    for side in (up, (1 << len(edges)) - 1 ^ up):
        sub = {f for f in faces if f & ~side == 0}
        if sub and flag_failure(sub) is not None:
            return True, True
    return True, False


# ---------------------------------------------------------------------------
# mirrors on the dual side


def dual_mirror(D, M):
    """Side labels of the flank vertices of a mirror region.

    The region's vertices are the mirror's cells themselves, and its flank
    vertices are the dual vertices outside it that a dual edge joins to it.
    Two flank vertices get the same label exactly when a dual path outside
    the region joins them; the label is the least flank vertex so joined.
    The search stops as soon as every flank vertex has its label.
    """
    region = M.cells
    adj = D.skeleton()
    flank = {w for v in region for w in adj[v] if w not in region}
    sides = {}
    seen = set()
    for start in sorted(flank):
        if start in sides:
            continue
        seen.add(start)
        todo = [start]
        while todo and len(sides) < len(flank):
            v = todo.pop()
            if v in flank:
                sides[v] = start
            for w in adj[v]:
                if w not in region and w not in seen:
                    seen.add(w)
                    todo.append(w)
    return sides

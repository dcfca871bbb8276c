"""Edge paths in the dual complex and the surgery calculus on loops.

Paths live on dual vertices; every step crosses a dual edge, so heights
change by exactly one. Loops repeat their basepoint. The calculus rewrites
a loop by height-raising square slides and backtrack removals inside a single
tile, and splits loops that cross framed mirrors into strictly shorter
pieces by projecting a minimal bridge onto its supporting mirror region.
Every operation emits replayable moves; ``verify_certificate`` replays them
against the dual complex without trusting the producer.

The mirror-side data surgery reads is built once per dual complex and
folding by ``surgery_context`` and kept on the dual complex, so after that
first call the cost of contracting a loop follows the loop. It is the
mirrors of the folding, the first mirror that does not separate (separation
is checked no further), for each mirror that separates the side labels of
its flank vertices (None for the others; each built on its first read), an
index from each dual vertex to the mirrors whose region holds it, and a
table of projected images that bridges fill as they first visit each vertex;
a mirror's region is its own cell set. A loop crosses, and a path bridges,
only mirrors it touches, so the crossing scan, the bridge search and the
projection read only the mirrors the index names for the vertices at hand.
A kept context is found by comparing the caller's labels with its stored
copy.

Determinism: mirrors are scanned in their canonical order, gaps and bridges
break ties toward the least start index and least length, slides raise all
interior minima of a sweep together, and a slide's new vertex is the least
fourth corner completing a stored dual square.
"""

from dataclasses import dataclass, replace

from .dual import dual_mirror, tops_containing
from .errors import (
    CarrierViolation,
    CellNotFound,
    InternalError,
    NoCrossing,
    NonSeparatingMirror,
    NotABridge,
    NotInTile,
    Unsupported,
)
from .folding import mirror_separates, mirrors


# ---------------------------------------------------------------------------
# the prepared context


@dataclass(frozen=True)
class SurgeryContext:
    """Mirror-side data of surgery on one dual complex under one folding.

    Per-mirror sequences are indexed by ``Mirror.index``; ``sides`` builds
    each entry on its first read. ``holding`` is the index built with them:
    each dual vertex that lies in a mirror region maps to the ascending
    indices of the mirrors whose region holds it.
    ``images`` starts empty and is filled by ``project_bridge``: for each
    mirror index, the image of every dual vertex a bridge has carried to
    that mirror's region so far.
    """

    D: object  # the DualComplex
    labels: dict  # a copy of the folding, vertex -> label tuple
    mirrors: tuple  # the canonical mirror list of the folding
    sides: object  # per mirror, its flank side labels if it separates its framings, else None
    refusal: object  # the first mirror that does not separate, or None
    holding: dict  # dual vertex -> ascending indices of the mirrors holding it
    images: dict  # mirror index -> {dual vertex -> its projected face}


class _Sides:
    """Per mirror index, the flank side labels of a mirror that separates its
    framings, else None. An entry is built on its first read, from a
    separation verdict the context already holds where it has one."""

    def __init__(self, D, ml, separates):
        self._D = D
        self._mirrors = ml
        self._separates = separates  # mirror index -> verdict, as far as known
        self._built = {}

    def __len__(self):
        return len(self._mirrors)

    def __getitem__(self, i):
        try:
            return self._built[i]
        except KeyError:
            pass
        M = self._mirrors[i]  # an IndexError ends iteration
        sep = self._separates.get(M.index)
        if sep is None:
            sep = self._separates[M.index] = mirror_separates(self._D.source, M).separates
        self._built[i] = side = dual_mirror(self._D, M) if sep else None
        return side


def surgery_context(D, labels):
    """The surgery context of ``D`` under ``labels``, built on first use.

    ``labels`` maps vertices to label tuples. Contexts are kept on ``D`` and
    found by equality of the labels with each one's stored copy, so equal
    foldings share one, a different folding of the same complex gets its
    own, and a later change to the caller's dict does not reach a kept one.

    Separation is checked in canonical mirror order and stops at the first
    mirror that does not separate, the refusal; the sides of a mirror are
    built when ``crossings`` first reads them.
    """
    ctx = next((c for c in D._surgery if c.labels == labels), None)
    if ctx is None:
        ml = tuple(mirrors(D.source, labels))
        separates = {}
        refusal = None
        for M in ml:
            separates[M.index] = mirror_separates(D.source, M).separates
            if not separates[M.index]:
                refusal = M
                break
        sides = _Sides(D, ml, separates)
        holding = {}
        for M in ml:
            for c in M.cells:
                holding.setdefault(c, []).append(M.index)
        ctx = SurgeryContext(D, dict(labels), ml, sides, refusal, holding, {})
        D._surgery.append(ctx)
    return ctx


# ---------------------------------------------------------------------------
# paths


def check_edge_path(D, vertices):
    """Validate a dual vertex sequence as an edge path and return it."""
    p = tuple(vertices)
    if not p:
        raise ValueError("a path needs at least one vertex")
    for v in p:
        if v not in D.heights:
            raise CellNotFound(f"{v} is not a dual vertex")
    for a, b in zip(p, p[1:]):
        if not D.adjacent(a, b):
            raise ValueError(f"{a} -> {b} is not a dual edge")
        if abs(D.heights[a] - D.heights[b]) != 1:
            raise ValueError(f"{a} -> {b} does not change height by one")
    return p


def is_loop(p):
    return len(p) >= 1 and p[0] == p[-1]


def rotate_loop(p, k):
    """Move the basepoint of a loop forward by ``k`` positions."""
    if not is_loop(p):
        raise ValueError("only loops rotate")
    core = p[:-1] if len(p) > 1 else p
    k %= len(core)
    if k == 0:
        return p
    out = core[k:] + core[:k]
    return out + (out[0],)


def tile_of(D, p):
    """The least source top cell whose tile contains the whole path."""
    tops = tops_containing(D, set(p))
    if not tops:
        raise NotInTile("no tile contains the path")
    return min(tops)


def random_loop(D, rng, max_len=12):
    """A random loop of length at most ``max_len`` in the dual skeleton.

    A random walk spends half the budget, then a shortest path closes the
    loop; heights alternate parity along edges, so the closing path cannot
    overrun the remaining half. A start without neighbours gives the
    constant loop.
    """
    if max_len < 2:
        raise ValueError("loops need length at least 2")
    if not D.complex.vertices:
        raise CellNotFound("the dual complex has no vertex")
    adj = D.skeleton()
    start = rng.choice(D.complex.vertices)
    walk = [start]
    for _ in range(max_len // 2 if adj[start] else 0):
        walk.append(rng.choice(sorted(adj[walk[-1]])))
    back = _shortest_path(adj, walk[-1], start)
    return tuple(walk + back[1:])


def _shortest_path(adj, source, target):
    """A shortest path by bidirectional breadth-first search.

    The search is networkx's ``bidirectional_shortest_path``: the smaller
    fringe grows by one level (the forward one on ties), neighbours are
    taken in adjacency order, and it stops at the first vertex both sides
    have reached, so both return the same path.
    """
    pred = {source: None}
    succ = {target: None}
    meet = source if source == target else _meet(adj, pred, succ, source, target)
    path = []
    w = meet
    while w is not None:
        path.append(w)
        w = pred[w]
    path.reverse()
    w = succ[meet]
    while w is not None:
        path.append(w)
        w = succ[w]
    return path


def _meet(adj, pred, succ, source, target):
    forward = [source]
    reverse = [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in adj[v]:
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return w
        else:
            level, reverse = reverse, []
            for v in level:
                for w in adj[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return w
    raise ValueError(f"no path from {source} to {target}")


# ---------------------------------------------------------------------------
# crossings


@dataclass(frozen=True)
class CrossingProfile:
    mirror_index: int
    runs: tuple  # per run: tuple of loop positions inside the mirror region
    crossing_flags: tuple  # per run: whether its flanks lie on different sides
    count: int


def crossings(ctx, p, M):
    """The crossing profile of a loop against a separating framed mirror.

    ``M`` is one of ``ctx.mirrors``. A run is a maximal stretch of the loop
    inside the mirror region; it is a crossing when its two flanking vertices
    lie on different sides of the region. The loop is scanned cyclically so
    a run through the basepoint counts once. A flank that no dual edge joins
    to its run is a ``ValueError``: the loop is not an edge path.
    """
    region, sides = M.cells, ctx.sides[M.index]
    if sides is None:
        raise NonSeparatingMirror(f"mirror {M.index} does not separate")
    if not is_loop(p):
        raise ValueError("crossings are counted on loops")
    core = p[:-1] or p
    n = len(core)
    inside = [v in region for v in core]
    if all(inside) or not any(inside):
        return CrossingProfile(M.index, (), (), 0)
    start = next(i for i in range(n) if not inside[i])
    runs = []
    run = []
    for step in range(1, n + 1):
        i = (start + step) % n
        if inside[i]:
            run.append(i)
        elif run:
            runs.append(tuple(run))
            run = []
    try:
        flags = tuple(
            sides[core[(r[0] - 1) % n]] != sides[core[(r[-1] + 1) % n]] for r in runs
        )
    except KeyError as e:
        raise ValueError(f"{e.args[0]} is not joined to the mirror region") from None
    return CrossingProfile(M.index, tuple(runs), flags, sum(flags))


def touched_mirrors(ctx, p):
    """The ascending indices of the mirrors whose region holds a vertex of
    ``p``; every other mirror has no crossing and no bridge on it."""
    held = ctx.holding
    return sorted({i for v in p if v in held for i in held[v]})


def _first_crossing(ctx, p):
    """The first mirror in canonical order that the loop crosses, with its
    crossing profile, or None.

    Only the mirrors the loop touches are scanned, and the first mirror that
    does not separate, so a refused context raises as a scan of every mirror
    would."""
    scan = touched_mirrors(ctx, p)
    if ctx.refusal is not None:
        scan = sorted({*scan, ctx.refusal.index})
    for i in scan:
        M = ctx.mirrors[i]
        prof = crossings(ctx, p, M)
        if prof.count > 0:
            return M, prof
    return None


# ---------------------------------------------------------------------------
# moves and certificates


@dataclass(frozen=True)
class BacktrackRemoval:
    j: int  # requires p[j] == p[j+2]; removes positions j+1 and j+2


@dataclass(frozen=True)
class SquareSlide:
    j: int  # replaces p[j]
    w: int  # the new vertex
    square: int  # dual square with corners {p[j-1], p[j], p[j+1], w}


@dataclass(frozen=True)
class Rotate:
    k: int  # loops only: move the basepoint forward by k


@dataclass(frozen=True)
class MoveChain:
    moves: tuple  # in-place moves ending at a constant loop


@dataclass(frozen=True)
class Split:
    """A surgery split. In a certificate the children are certificates; from
    ``surgery_step`` they are the two loops themselves."""

    rotate: int  # rotation bringing the bridge to the basepoint
    mirror_index: int  # the crossed mirror that triggered surgery
    support_index: int  # the support mirror of the projected bridge
    bridge: tuple  # q1, a prefix of the rotated loop
    projected: tuple  # the bridge projected into the support region
    left: object  # for bridge . reversed(projected)
    right: object  # for projected . rest-of-loop


def _apply_backtrack(p, j):
    if j < 0 or j + 2 >= len(p) or p[j] != p[j + 2]:
        return None
    return p[: j + 1] + p[j + 3 :]


def _apply_slide(D, p, j, w, square):
    if j <= 0 or j >= len(p) - 1:
        return None
    sq = D.complex.cells.get(square)
    if sq is None or sq.dim != 2:
        return None
    if frozenset(sq.corners) != frozenset({p[j - 1], p[j], p[j + 1], w}):
        return None
    if len({p[j - 1], p[j], p[j + 1], w}) != 4:
        return None
    return p[:j] + (w,) + p[j + 1 :]


def _strip_backtracks(p, moves=None):
    """Remove backtracks leftmost-first, recording moves when asked."""
    changed = True
    while changed:
        changed = False
        for j in range(len(p) - 2):
            if p[j] == p[j + 2]:
                p = _apply_backtrack(p, j)
                if moves is not None:
                    moves.append(BacktrackRemoval(j))
                changed = True
                break
    return p


# ---------------------------------------------------------------------------
# efficiency inside a tile


def _slide_target(D, prev, cur, nxt):
    """The least vertex completing {prev, cur, nxt} to a stored dual square."""
    adj = D.skeleton()
    h = D.heights
    cands = []
    for w in adj[prev].keys() & adj[nxt]:
        if h[w] != h[cur] + 2:
            continue
        sq = D.square_by_corners({cur, prev, nxt, w})
        if sq is not None:
            cands.append((w, sq))
    if not cands:
        raise InternalError(
            f"no dual square raises the local minimum {prev}, {cur}, {nxt}"
        )
    return min(cands)


def _raise_minima_once(D, p, moves):
    """One sweep: slide every interior strict local minimum that is not a
    backtrack. Minima are never adjacent, so the batch is safe."""
    h = D.heights
    spots = [
        j
        for j in range(1, len(p) - 1)
        if h[p[j - 1]] == h[p[j]] + 1
        and h[p[j + 1]] == h[p[j]] + 1
        and p[j - 1] != p[j + 1]
    ]
    for j in spots:
        w, sq = _slide_target(D, p[j - 1], p[j], p[j + 1])
        moves.append(SquareSlide(j, w, sq))
        p = p[:j] + (w,) + p[j + 1 :]
    return p, bool(spots)


def make_efficient(D, p):
    """Raise every interior local minimum of a path lying in a tile.

    Returns the rewritten path together with the move list. The result has no
    interior strict local minima and no backtracks; heights climb to a single
    peak and descend. Paths outside every tile are refused.
    """
    p = check_edge_path(D, p)
    tile_of(D, p)
    moves = []
    guard = 4 * (len(p) + 2) * (D.source.dim + 2) + 16
    while True:
        guard -= 1
        if guard < 0:
            raise InternalError("efficiency sweep failed to terminate")
        p, raised = _raise_minima_once(D, p, moves)
        before = len(p)
        p = _strip_backtracks(p, moves)
        if not raised and len(p) == before:
            break
    return p, tuple(moves)


def contract_in_tile(D, p):
    """Contract a loop lying in a tile to its basepoint, emitting moves.

    Each round rotates a height maximum to the basepoint, raises all interior
    minima, and strips backtracks; heights are bounded by the tile dimension,
    so the loop shrinks to a point.
    """
    p = check_edge_path(D, p)
    if not is_loop(p):
        raise ValueError("only loops contract")
    tile_of(D, p)
    h = D.heights
    moves = []
    guard = 8 * (len(p) + 2) * (D.source.dim + 2) + 16
    while len(p) > 1:
        guard -= 1
        if guard < 0:
            raise InternalError("contraction failed to terminate")
        core = p[:-1]
        top = max(h[v] for v in core)
        if h[p[0]] != top:
            k = next(i for i, v in enumerate(core) if h[v] == top)
            moves.append(Rotate(k))
            p = rotate_loop(p, k)
        p, _raised = _raise_minima_once(D, p, moves)
        p = _strip_backtracks(p, moves)
    return p, tuple(moves)


# ---------------------------------------------------------------------------
# bridges


@dataclass(frozen=True)
class Bridge:
    start: int  # position in the ambient path
    path: tuple
    support_index: int  # least mirror the subpath bridges


def minimal_bridge(ctx, p):
    """The least minimal bridge of a path: no proper subpath is a bridge;
    ties break to the least start, then the least length.

    Over one mirror the minimal bridges join consecutive visits of its region
    with a step outside between them, and a bridge minimal over all mirrors
    is minimal over every mirror it bridges. Any other minimal bridge that
    starts earlier ends later, so the least one ends first and, among those,
    starts last; its support is the least mirror it bridges.
    """
    p = tuple(p)
    visits = {}
    for i, v in enumerate(p):
        for m in ctx.holding.get(v, ()):
            visits.setdefault(m, []).append(i)
    found = []
    for m, at in visits.items():
        for a, b in zip(at, at[1:]):
            if b > a + 1:
                found.append((b, -a, m))
                break
    if not found:
        raise NotABridge("the path has no bridge subpath")
    end, neg_start, support = min(found)
    start = -neg_start
    return Bridge(start, p[start : end + 1], support)


def _axes(cube, labels):
    """Map each folding coordinate a cube flips to its local axis and the
    coordinate value at corner zero."""
    lab0 = labels[cube.corners[0]]
    axis_of = {}
    for j in range(cube.dim):
        labj = labels[cube.corners[1 << j]]
        diffs = [c for c in range(len(lab0)) if lab0[c] != labj[c]]
        if len(diffs) != 1:
            raise InternalError("cube corners disagree in more than one label")
        axis_of[diffs[0]] = (j, lab0[diffs[0]])
    return axis_of


def _image(ctx, M, v):
    """The face of the least tile that meets ``M`` and carries ``v``, pinned
    at ``M`` and at every other mirror that holds ``v`` and meets ``M``."""
    D = ctx.D
    region = M.cells
    carriers = [t for t in tops_containing(D, {v}) if D.source.subcells(t) & region]
    if not carriers:
        raise NotInTile(f"no tile meeting mirror {M.index} carries the visited cell {v}")
    tau = min(carriers)
    axis_of = _axes(D.source.cells[tau], ctx.labels)

    def pin(N, constraints):
        if N.coordinate not in axis_of:
            raise CarrierViolation("the carrier does not flip a pinned coordinate")
        j, bit0 = axis_of[N.coordinate]
        side = bit0 ^ N.side
        if constraints.setdefault(j, side) != side:
            raise InternalError("inconsistent projection constraints")

    constraints = {}
    pin(M, constraints)
    for i in ctx.holding.get(v, ()):
        N = ctx.mirrors[i]
        if i != M.index and not N.cells.isdisjoint(region):
            pin(N, constraints)
    return D.source.face_of(tau, constraints)


def project_bridge(ctx, q, M):
    """Project a minimal bridge onto the region of its supporting mirror.

    Every cell a minimal bridge visits on a simply connected complex lies in
    some tile that meets the mirror; the cell's image is the face of the
    least such tile pinned at the mirror coordinate and at the coordinate of
    every other mirror that contains the cell and meets the mirror. The image
    does not depend on the tile chosen, consecutive images are equal or
    adjacent, and the endpoints are fixed. Repeats and backtracks are
    stripped from the image. A bridge that leaves every tile meeting the
    mirror, as one around a hole does, is refused with ``NotInTile``.

    The image of a cell depends only on the context, the mirror and the
    cell, so it is computed once and kept in ``ctx.images``; a mirror that is
    not the context's own of its index neither reads nor fills that table.
    """
    D = ctx.D
    q = check_edge_path(D, q)
    region = M.cells
    if q[0] not in region or q[-1] not in region:
        raise NotABridge("bridge endpoints must lie in the mirror region")
    if all(v in region for v in q):
        raise NotABridge("the path lies inside the mirror region")

    own = 0 <= M.index < len(ctx.mirrors) and ctx.mirrors[M.index] is M
    table = ctx.images.setdefault(M.index, {}) if own else {}
    image = []
    for v in q:
        face = table.get(v)
        if face is None:
            face = table[v] = _image(ctx, M, v)
        image.append(face)

    for a, b in zip(image, image[1:]):
        if a != b and not D.adjacent(a, b):
            raise InternalError("projection steps are neither equal nor adjacent")
    for v in image:
        if v not in region:
            raise InternalError("projection left the mirror region")
    if image[0] != q[0] or image[-1] != q[-1]:
        raise InternalError("projection moved a bridge endpoint")

    out = [image[0]]
    for v in image[1:]:
        if v != out[-1]:
            out.append(v)
    return _strip_backtracks(tuple(out))


# ---------------------------------------------------------------------------
# surgery


def surgery_step(ctx, p):
    """One splitting step on a loop that crosses a framed mirror.

    Scans mirrors in canonical order for the first with crossings, picks the
    shortest cyclic gap between consecutive crossing runs, takes the least
    minimal bridge inside the gap, projects it, and returns the split with the
    two strictly shorter loops as its ``left`` and ``right``.
    """
    p = check_edge_path(ctx.D, p)
    if not is_loop(p) or len(p) < 2:
        raise ValueError("surgery applies to loops of positive length")
    hit = _first_crossing(ctx, p)
    if hit is None:
        raise NoCrossing("the loop crosses no framed mirror")
    return _split(ctx, p, *hit)


def _split(ctx, p, M, prof):
    """The surgery step on a loop crossing ``M`` with profile ``prof``: a
    ``Split`` whose children are the two loops still to contract."""
    n = len(p) - 1
    runs = [r for r, flag in zip(prof.runs, prof.crossing_flags) if flag]
    gaps = []
    for i, r in enumerate(runs):
        nxt = runs[(i + 1) % len(runs)]
        start = r[-1]
        end = nxt[0]
        length = (end - start) % n
        if length == 0:
            length = n
        gaps.append((length, start, end))
    length, start, end = min(gaps)

    rotated = rotate_loop(p, start)
    gap_path = rotated[: length + 1]

    br = minimal_bridge(ctx, gap_path)
    N = ctx.mirrors[br.support_index]
    projected = project_bridge(ctx, br.path, N)

    rot = (start + br.start) % n
    rotated = rotate_loop(p, rot)
    q1 = br.path
    if rotated[: len(q1)] != q1:
        raise InternalError("bridge is not a prefix of the rotated loop")
    q2 = rotated[len(q1) - 1 :]

    left = q1 + tuple(reversed(projected))[1:]
    right = projected + q2[1:]

    if len(left) > len(p) - 2:
        raise InternalError("left loop failed to shrink")
    if len(right) > len(p) - 2:
        raise InternalError("right loop failed to shrink")
    return Split(rot, M.index, br.support_index, q1, projected, left, right)


def contract_loop(D, p, labels):
    """Contract a loop to a point, producing a replayable certificate tree.

    Requires every framed mirror of the folding to separate; otherwise the
    contraction is refused as unsupported. Loops inside a tile contract by
    moves; crossing loops split by surgery and recurse on strictly shorter
    pieces.
    """
    p = check_edge_path(D, p)
    if not is_loop(p):
        raise ValueError("only loops contract")
    ctx = surgery_context(D, labels)
    if ctx.refusal is not None:
        raise Unsupported(f"mirror {ctx.refusal.index} does not separate")
    return _contract(ctx, p)


def _contract(ctx, p):
    """Contract depth first, left before right, on an explicit stack, so long
    loops are bounded by memory and not by the recursion limit. A split waits
    under its two child loops and takes their certificates once both are
    done."""
    todo = [p]
    done = []
    while todo:
        item = todo.pop()
        if isinstance(item, Split):
            right = done.pop()
            done.append(replace(item, left=done.pop(), right=right))
            continue
        hit = _first_crossing(ctx, item)
        if hit is None:
            _final, moves = contract_in_tile(ctx.D, item)
            done.append(MoveChain(moves))
        else:
            split = _split(ctx, item, *hit)
            todo += (split, split.right, split.left)
    return done.pop()


# ---------------------------------------------------------------------------
# replay


def verify_certificate(D, p, cert):
    """Replay a certificate against the dual complex; True when every move is
    legal and every leaf ends constant. Nothing from the certificate is
    trusted: squares are looked up, adjacency is rechecked, prefixes are
    compared."""
    try:
        p = check_edge_path(D, p)
    except (ValueError, CellNotFound):
        return False
    if not is_loop(p):
        return False
    return _replay(D, p, cert)


def _replay(D, p, cert):
    """Replay depth first, left before right, on an explicit stack, so deep
    certificates are bounded by memory and not by the recursion limit."""
    todo = [(p, cert)]
    while todo:
        p, cert = todo.pop()
        if isinstance(cert, MoveChain):
            for mv in cert.moves:
                p = _replay_move(D, p, mv)
                if p is None:
                    return False
            if len(p) != 1:
                return False
        elif isinstance(cert, Split):
            if len(p) < 2:
                return False
            core_len = len(p) - 1
            if not (0 <= cert.rotate < core_len):
                return False
            rotated = rotate_loop(p, cert.rotate)
            q1 = tuple(cert.bridge)
            if len(q1) < 2 or rotated[: len(q1)] != q1:
                return False
            proj = tuple(cert.projected)
            if len(proj) < 1 or proj[0] != q1[0] or proj[-1] != q1[-1]:
                return False
            try:
                check_edge_path(D, proj)
            except (ValueError, CellNotFound):
                return False
            q2 = rotated[len(q1) - 1 :]
            todo.append((proj + q2[1:], cert.right))
            todo.append((q1 + tuple(reversed(proj))[1:], cert.left))
        else:
            return False
    return True


def _replay_move(D, p, mv):
    if isinstance(mv, BacktrackRemoval):
        return _apply_backtrack(p, mv.j)
    if isinstance(mv, SquareSlide):
        return _apply_slide(D, p, mv.j, mv.w, mv.square)
    if isinstance(mv, Rotate):
        if not is_loop(p) or len(p) < 2 or not (0 <= mv.k < len(p) - 1):
            return None
        return rotate_loop(p, mv.k)
    return None

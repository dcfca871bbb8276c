"""The direct definitions that the library's local scans and plain graph code replace.

Each function is the earlier, direct reading of its definition: every pair of
top cells for framings, every pair of listed cells for strict validation, a
pairwise containment test for the maximal common faces of relaxed
validation, one corner-set face lookup per coordinate for the edges at a
corner (or one scan of the cube's subcells), one corner-set face lookup per
corner of each subdivision cube, closed with every facet array
canonicalized again, links and simplicial complexes closed over every
subset of each face with their maximal faces by pairwise containment, every
cell's subcells for hyperplane carriers, every osculating pair of
hyperplanes kept as a specialness candidate, networkx clique enumeration for
flagness (over the direct links for the link condition and the dual
axioms), hyperbolized links smoothed and compared by networkx isomorphism,
one scan of every cell per (coordinate, side) class for mirrors,
the mirror/chamber incidences tested pair by pair and networkx
verdicts on that graph, one union-find pass over every codimension-1 cell
per cut for chambers, every complement component of a mirror region over
every dual vertex, each tile as the dual cells over faces of its top
cell, the sublinks of every dual vertex checked for
flagness, the folding search recursing once per parallelism class,
folding verification reading each corner's label bits from its string,
loop surgery scanning every mirror for the first crossing and pinning
every mirror that meets the support in a projection, and the certificate
reader taking one method call per line and building every move it reads.
Differential tests compare the library against them.
"""

from functools import lru_cache
from itertools import combinations

import networkx as nx

from cubemill.complexes import (
    CheckReport,
    Finding,
    SimplicialComplex,
    ValidationReport,
    array_dim,
    canonical_corner_array,
    face_array,
    name_key,
)
from cubemill.curvature import NpcReport, NpcViolation, PathologyReport
from cubemill.dual import _verdict, tops_containing
from cubemill.errors import (
    CarrierViolation,
    CellNotFound,
    FormatError,
    InternalError,
    NotABridge,
    NotInTile,
)
from cubemill.folding import _DSU, FoldingObstruction, Mirror, _label_of, parallelism_classes
from cubemill.surgery import (
    BacktrackRemoval,
    MoveChain,
    Rotate,
    SquareSlide,
    Split,
    _axes,
    _strip_backtracks,
    check_edge_path,
    crossings,
)


def framings(X, M):
    tops = X.top_cells()
    out = []
    for a in range(len(tops)):
        for b in range(a + 1, len(tops)):
            common = X.subcells(tops[a]) & X.subcells(tops[b])
            if not common or not common <= M.cells:
                continue
            for sigma in sorted(common):
                out.append((sigma, (tops[a], tops[b])))
    return out


@lru_cache(maxsize=None)
def _subfaces(arr):
    """The faces of the cube with corner array ``arr`` (itself included): each
    face's corner set mapped to its canonical corner array."""
    out = {frozenset(arr): canonical_corner_array(arr)}
    for i in range(array_dim(arr)):
        for s in (0, 1):
            out.update(_subfaces(face_array(arr, i, s)))
    return out


def validate_cubical(corner_lists):
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

    for a, b in combinations(sorted(clean), 2):
        A, B = clean[a], clean[b]
        if A == B:
            continue
        inter = frozenset(A) & frozenset(B)
        if not inter:
            continue
        face = _subfaces(A).get(inter)
        if face is None or face != _subfaces(B).get(inter):
            findings.append(
                Finding(
                    "NonFaceIntersection",
                    (a, b),
                    f"intersection {sorted(inter)} is not a common face",
                )
            )
    return ValidationReport(tuple(findings))


def edges_at_corner(X, cid, b):
    cube = X.cell(cid)
    out = []
    for i in range(cube.dim):
        constraints = {j: (b >> j) & 1 for j in range(cube.dim) if j != i}
        out.append(X.face_of(cid, constraints))
    return out


def edges_at_corner_by_subcells(X, cid, b):
    cube = X.cell(cid)
    v = cube.corners[b]
    ends = {}  # other end -> 1-faces from v to it
    for f in X.subcells(cid):
        pair = X.cells[f].corners
        if len(pair) == 2 and v in pair:
            ends.setdefault(pair[1] if pair[0] == v else pair[0], []).append(f)
    out = []
    for i in range(cube.dim):
        w = cube.corners[b ^ (1 << i)]
        matches = ends.get(w, [])
        if len(matches) != 1:
            raise CellNotFound(
                f"cell {cid} has {len(matches)} faces with corners {sorted((v, w))}"
            )
        out.append(matches[0])
    return out


def closure_cells(corner_lists):
    """(cid, corners, facets) of the closure of the lists, in cid order."""
    canon = {}

    def add(arr):
        a = canonical_corner_array(arr)
        if a in canon:
            return
        canon[a] = None
        for i in range(array_dim(a)):
            for s in (0, 1):
                add(face_array(a, i, s))

    for arr in corner_lists:
        add(tuple(arr))
    order = sorted(canon, key=lambda a: (array_dim(a), a))
    for cid, a in enumerate(order):
        canon[a] = cid
    return [
        (
            canon[a],
            a,
            tuple(
                canon[canonical_corner_array(face_array(a, i, s))]
                for i in range(array_dim(a))
                for s in (0, 1)
            ),
        )
        for a in order
    ]


def cubical_subdivision(X):
    """(cid, corners, facets) of every cell of the cubical subdivision."""
    maximal = []
    for t in X.top_cells():
        k = X.cells[t].dim
        for b in range(1 << k):
            arr = []
            for m in range(1 << k):
                constraints = {j: (b >> j) & 1 for j in range(k) if not (m >> j) & 1}
                arr.append(X.face_of(t, constraints))
            maximal.append(tuple(arr))
    return closure_cells(maximal)


def link(X, v):
    """(faces, maximal faces, vertices, bigons) of the link of ``v``."""
    induced = {}
    for cid in X.cells_at_vertex[v]:
        cube = X.cells[cid]
        if cube.dim == 0:
            continue
        simplex = frozenset(edges_at_corner_by_subcells(X, cid, cube.corners.index(v)))
        induced.setdefault(simplex, []).append(cid)
    bigons = tuple(
        tuple(sorted(cids))
        for simplex, cids in sorted(induced.items(), key=lambda kv: name_key(kv[0]))
        if len(simplex) >= 2 and len(cids) > 1
    )
    return (*closure(induced), bigons)


def closure(maximal_faces):
    """(faces, maximal faces, vertices) of the closure under nonempty subsets."""
    faces = set()
    for f in maximal_faces:
        for r in range(1, len(f) + 1):
            for sub in combinations(sorted(f, key=name_key), r):
                faces.add(frozenset(sub))
    maximal = sorted(
        (f for f in faces if not any(f < g for g in faces)),
        key=lambda f: (len(f), name_key(f)),
    )
    vertices = sorted({v for f in faces for v in f}, key=name_key)
    return frozenset(faces), tuple(maximal), vertices


def hyperplane_carriers(X):
    """(edges, carriers) per parallelism class, in class order."""
    out = []
    for edges in parallelism_classes(X).values():
        eset = set(edges)
        carriers = sorted(
            cid
            for cid in X.cells
            if X.cells[cid].dim >= 2 and any(f in eset for f in X.subcells(cid))
        )
        out.append((edges, tuple(carriers)))
    return out


def check_special(X):
    """Hyperplane pathologies with every osculating pair of hyperplanes kept
    as a candidate, filtered by the crossing pairs afterwards."""
    hp_of = {
        e: idx
        for idx, edges in enumerate(parallelism_classes(X).values())
        for e in edges
    }

    self_int = []
    crossing_pairs = {}
    for sq in X.by_dim.get(2, []):
        f = X.cells[sq].facets
        h_a = hp_of[f[0]]
        h_b = hp_of[f[2]]
        if h_a == h_b:
            self_int.append((h_a, sq))
        else:
            crossing_pairs.setdefault(tuple(sorted((h_a, h_b))), sq)

    self_osc = []
    inter_osc_candidates = {}
    for v in X.vertices:
        edges_at = [c for c in X.cells_at_vertex[v] if X.cells[c].dim == 1]
        for i in range(len(edges_at)):
            for j in range(i + 1, len(edges_at)):
                e, e2 = edges_at[i], edges_at[j]
                sq_e = set(X.cofaces[e])
                sq_e2 = set(X.cofaces[e2])
                if sq_e & sq_e2:
                    continue
                if hp_of[e] == hp_of[e2]:
                    self_osc.append((hp_of[e], v, e, e2))
                else:
                    key = tuple(sorted((hp_of[e], hp_of[e2])))
                    inter_osc_candidates.setdefault(key, (v, e, e2))

    inter = []
    for key in sorted(inter_osc_candidates):
        if key in crossing_pairs:
            v, e, e2 = inter_osc_candidates[key]
            inter.append((key[0], key[1], crossing_pairs[key], v, e, e2))

    return PathologyReport(
        tuple(sorted(self_int)), tuple(sorted(self_osc)), tuple(sorted(inter))
    )


def _edge_pairs(arr):
    """The corner pairs of the edges of a cube in the frame of ``arr``."""
    return {
        frozenset((arr[b], arr[b ^ (1 << i)]))
        for b in range(len(arr))
        for i in range(array_dim(arr))
    }


def verify_cw(X):
    findings = [
        Finding(
            "TwistedFacetFrame",
            (c,),
            "a facet takes its own frame, in which an edge is a diagonal of the cube",
        )
        for c in sorted(X.cells)
        if any(
            not _edge_pairs(X.cells[f].corners) <= _edge_pairs(X.cells[c].corners)
            for f in X.cells[c].facets
        )
    ]
    seen = set()
    for v in X.vertices:
        at = X.cells_at_vertex[v]
        for a, b in combinations(at, 2):
            if (a, b) in seen:
                continue
            seen.add((a, b))
            ca, cb = X.cells[a], X.cells[b]
            inter = set(ca.corners) & set(cb.corners)
            common = X.subcells(a) & X.subcells(b)
            maximal = [
                c
                for c in common
                if not any(c != d and c in X.subcells(d) for d in common)
            ]
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


def is_flag(S):
    """Cliques in increasing size; the least failing clique of least size."""
    g = nx.Graph()
    g.add_nodes_from(S.vertices)
    g.add_edges_from(tuple(f) for f in S.faces if len(f) == 2)
    failures = []
    failing_size = None
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) < 3:
            continue
        if failing_size is not None and len(clique) > failing_size:
            break
        if frozenset(clique) not in S.faces:
            failing_size = len(clique)
            failures.append(tuple(sorted(clique, key=name_key)))
    if not failures:
        return True, None
    return False, min(failures, key=name_key)


def check_npc(X):
    """The link condition from the direct link and clique enumeration."""
    violations = []
    for v in X.vertices:
        faces, _maximal, _vertices, bigons = link(X, v)
        violations += [NpcViolation(v, "bigon", pair) for pair in bigons]
        flag_ok, witness = is_flag(SimplicialComplex(faces))
        if not flag_ok:
            violations.append(NpcViolation(v, "not-flag", witness))
    return NpcReport(tuple(violations))


def mirrors(X, labels):
    """Mirrors from one scan of every cell per (coordinate, side) class."""
    n = X.dim
    lab = {v: _label_of(labels, v, n) for v in X.vertices}
    out = []
    for i in range(n):
        for side in (0, 1):
            member = [
                cid
                for cid in sorted(X.cells)
                if all(lab[v][i] == side for v in X.cells[cid].corners)
            ]
            if not member:
                continue
            dsu = _DSU(member)
            member_set = set(member)
            for v in X.vertices:
                at = [c for c in X.cells_at_vertex[v] if c in member_set]
                for c in at[1:]:
                    dsu.union(at[0], c)
            comps = {}
            for c in member:
                comps.setdefault(dsu.find(c), []).append(c)
            for root in sorted(comps):
                out.append((i, side, root, frozenset(comps[root])))
    out.sort(key=lambda entry: entry[:3])
    return [Mirror(idx, i, side, cells) for idx, (i, side, _root, cells) in enumerate(out)]


def incidence_graph(t):
    """The mirror/chamber incidence graph of a decomposition tree."""
    g = nx.Graph()
    g.add_nodes_from(("mirror", m) for m in t.mirror_indices)
    g.add_nodes_from(("chamber", k) for k in range(len(t.chambers)))
    g.add_edges_from((("mirror", m), ("chamber", k)) for m, k in t.edges)
    return g


def tree_verdicts(t):
    """(connected, acyclic, leafless) of the incidence graph, by networkx."""
    g = incidence_graph(t)
    if not g.number_of_nodes():
        return True, True, True
    return nx.is_connected(g), nx.is_forest(g), all(d >= 2 for _n, d in g.degree)


def chambers_avoiding(X, cut):
    tops = X.top_cells()
    dsu = _DSU(tops)
    for cid in X.by_dim.get(X.dim - 1, []):
        if cid in cut:
            continue
        holder = [p for p in X.cofaces[cid] if not X.cofaces[p]]
        for other in holder[1:]:
            dsu.union(holder[0], other)
    grouped = {}
    for t in tops:
        grouped.setdefault(dsu.find(t), []).append(t)
    return tuple(tuple(grouped[root]) for root in sorted(grouped))


def complement_components(D, M):
    """The complement components of a mirror region in the dual skeleton.

    Returns the components, frozensets of the dual vertices outside the
    region joined by dual edges with both ends outside, numbered by their
    least vertex, and the map from every such vertex to its component.
    """
    adj = D.skeleton()
    components = []
    component_of = {}
    for start in sorted(D.complex.vertices):
        if start in M.cells or start in component_of:
            continue
        component_of[start] = len(components)
        comp = [start]
        for v in comp:
            for w in adj[v]:
                if w not in M.cells and w not in component_of:
                    component_of[w] = len(components)
                    comp.append(w)
        components.append(frozenset(comp))
    return tuple(components), component_of


def dual_tile(D, top):
    """All dual cells lying over faces of the source top cell ``top``.

    A dual cell [a, b] belongs to the tile of ``top`` exactly when b is a face
    of ``top``, equivalently when every corner of the dual cell is one.
    """
    sub = D.source.subcells(top)
    return frozenset(cid for cid, cube in D.complex.cells.items() if set(cube.corners) <= sub)


def tree_edges(Y, mirror_list, i):
    """(mirror index, chamber position) incidences of coordinate ``i``, pair by pair."""
    mine = [M for M in mirror_list if M.coordinate == i]
    chambers = chambers_avoiding(Y, set().union(*(M.cells for M in mine)))
    return tuple(
        (M.index, k)
        for M in mine
        for k, chamber in enumerate(chambers)
        if any(Y.subcells(t) & M.cells for t in chamber)
    )


def verify_dual_axioms(D):
    X = D.complex
    h = D.heights
    checks = []

    bad = [
        cube.cid
        for cube in X.cells.values()
        if cube.dim == 1 and abs(h[cube.corners[0]] - h[cube.corners[1]]) != 1
    ]
    checks.append(_verdict("edge-heights", bad))

    bad = []
    for cube in X.cells.values():
        if cube.dim != 2:
            continue
        c = cube.corners
        d1 = sorted((h[c[0]], h[c[3]]))
        d2 = sorted((h[c[1]], h[c[2]]))
        flat, split = (d1, d2) if d1[0] == d1[1] else (d2, d1)
        if flat[0] != flat[1] or split != [flat[0] - 1, flat[0] + 1]:
            bad.append(cube.cid)
    checks.append(_verdict("square-heights", bad))

    bad = []
    for cube in X.cells.values():
        k = cube.dim
        low = min(h[u] for u in cube.corners)
        high = max(h[u] for u in cube.corners)
        lows = [v for v in cube.corners if h[v] == low]
        highs = [v for v in cube.corners if h[v] == high]
        if len(lows) != 1 or len(highs) != 1:
            bad.append(cube.cid)
            continue
        lo, hi = lows[0], highs[0]
        if h[hi] - h[lo] != k:
            bad.append(cube.cid)
            continue
        sub_hi = D.source.subcells(hi)
        for v in cube.corners:
            if v not in sub_hi or lo not in D.source.subcells(v):
                bad.append(cube.cid)
                break
    checks.append(_verdict("cube-intervals", bad))

    bad_links = []
    bad_sublinks = []
    for v in sorted(X.vertices):
        faces, _maximal, vertices, bigons = link(X, v)
        if bigons:
            bad_links.append(v)
            continue
        flag_ok, _w = is_flag(SimplicialComplex(faces))
        if not flag_ok:
            bad_links.append(v)
        up = {e for e in vertices if max(h[w] for w in X.cells[e].corners) > h[v]}
        down = {e for e in vertices if e not in up}
        for side in (up, down):
            sub = [f for f in faces if f <= side]
            if sub and not is_flag(SimplicialComplex(sub))[0]:
                bad_sublinks.append(v)
                break
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
                    if D.square_by_corners({u, a, b, w}) is None:
                        bad.append((u, a, b, w))
    checks.append(_verdict("interval-complete", bad))

    return CheckReport(tuple(checks))


def verify_folding(X, labels):
    """First obstruction to a folding, with each cube corner's label read as
    a binary string (coordinate 0 least significant)."""
    for cid in sorted(X.cells):
        cube = X.cells[cid]
        k = cube.dim
        if k == 0:
            continue
        corner_labels = [tuple(labels[v]) for v in cube.corners]
        if k == 1:
            a, b = corner_labels
            if sum(x != y for x, y in zip(a, b)) != 1:
                return FoldingObstruction(
                    "edge", cid, f"endpoint labels {a} and {b} do not flip exactly one coordinate"
                )
            continue
        bits = [int("".join(map(str, reversed(c))), 2) for c in corner_labels]
        if len(set(bits)) != len(bits):
            return FoldingObstruction("cube", cid, "corner labels repeat")
        xors = {b ^ bits[0] for b in bits}
        span = 0
        for x in xors:
            span |= x
        if bin(span).count("1") != k or len(xors) != 1 << k:
            return FoldingObstruction(
                "cube", cid, f"corner labels do not form a {k}-face of the target cube"
            )
    return None


def find_folding(X):
    """The first folding in search order, or None; one recursion level per
    parallelism class, so only for complexes with few classes."""
    n = X.dim
    if n <= 0:
        return {v: () for v in X.vertices}
    classes = parallelism_classes(X)
    roots = sorted(classes)
    root_of = {e: r for r, es in classes.items() for e in es}
    cube_dirs = [
        [root_of[e] for e in X.edges_at_corner(cid, 0)]
        for cid in sorted(X.cells)
        if X.cells[cid].dim >= 2
    ]
    if any(len(set(dirs)) != len(dirs) for dirs in cube_dirs):
        return None
    watching = {r: [i for i, dirs in enumerate(cube_dirs) if r in dirs] for r in roots}
    taken = [set() for _ in cube_dirs]
    assign = {}

    def parity_labels():
        lab = {}
        for start in X.vertices:
            if start in lab:
                continue
            lab[start] = (0,) * n
            queue = [start]
            for v in queue:
                for e in X.cells_at_vertex[v]:
                    if X.cells[e].dim != 1:
                        continue
                    (w,) = set(X.cells[e].corners) - {v}
                    i = assign[root_of[e]]
                    want = tuple(x ^ 1 if j == i else x for j, x in enumerate(lab[v]))
                    if w not in lab:
                        lab[w] = want
                        queue.append(w)
                    elif lab[w] != want:
                        return None
        return lab

    def search(pos):
        if pos == len(roots):
            return parity_labels()
        r = roots[pos]
        for coord in range(n):
            if any(coord in taken[i] for i in watching[r]):
                continue
            assign[r] = coord
            for i in watching[r]:
                taken[i].add(coord)
            got = search(pos + 1)
            if got is not None:
                return got
            for i in watching[r]:
                taken[i].discard(coord)
            del assign[r]
        return None

    return search(0)


def _smoothed(g):
    """Smooth away degree-2 vertices of a multigraph (loops stop smoothing)."""
    g = nx.MultiGraph(g)
    changed = True
    while changed:
        changed = False
        for v in list(g.nodes):
            if g.degree(v) != 2:
                continue
            ends = [b if a == v else a for a, b, _k in g.edges(v, keys=True)]
            if len(ends) != 2 or v in ends:
                continue  # a loop at v; leave it
            g.remove_node(v)
            g.add_edge(ends[0], ends[1])
            changed = True
            break
    return g


def _vertex_link_multigraph(X, v):
    """The link of a vertex as a true multigraph (bigons kept as parallel edges)."""
    g = nx.MultiGraph()
    for cid in X.cells_at_vertex[v]:
        cube = X.cells[cid]
        if cube.dim == 1:
            g.add_node(cid)
        elif cube.dim == 2:
            e1, e2 = X.edges_at_corner(cid, cube.corners.index(v))
            g.add_edge(e1, e2)
    return g


def _source_link_multigraph(K, v):
    g = nx.MultiGraph()
    for f in K.faces:
        if v not in f:
            continue
        rest = sorted(f - {v}, key=name_key)
        if len(rest) == 1:
            g.add_node(rest[0])
        elif len(rest) == 2:
            g.add_edge(rest[0], rest[1])
    return g


def links_differ(result):
    """The source vertices of a hyperbolization of dimension 1 or 2 whose
    link is not homeomorphic to the link of their image: both links smoothed
    and compared by networkx isomorphism."""
    X, K = result.complex, result.source
    image = {}
    for cid, nm in X.names.items():
        if X.cells[cid].dim == 0 and nm[0] == "f" and len(nm[1]) == 1:
            (src_v,) = tuple(nm[1])
            image[src_v] = X.cells[cid].corners[0]
    bad = []
    for v in sorted(K.vertices, key=name_key):
        img = image.get(v)
        if img is None or not nx.is_isomorphic(
            _smoothed(_source_link_multigraph(K, v)), _smoothed(_vertex_link_multigraph(X, img))
        ):
            bad.append(v)
    return bad


def first_crossing(ctx, p):
    """The first mirror in canonical order that the loop crosses, with its
    crossing profile, or None, testing every mirror."""
    for M in ctx.mirrors:
        prof = crossings(ctx, p, M)
        if prof.count > 0:
            return M, prof
    return None


def project_bridge(ctx, q, M):
    """The projection of a bridge onto the region of ``M``, pinning each
    visited cell at ``M`` and at every mirror holding the cell among all the
    mirrors that meet ``M``."""
    D = ctx.D
    q = check_edge_path(D, q)
    region = M.cells
    if q[0] not in region or q[-1] not in region:
        raise NotABridge("bridge endpoints must lie in the mirror region")
    if all(v in region for v in q):
        raise NotABridge("the path lies inside the mirror region")
    relevant = [N for N in ctx.mirrors if N.index != M.index and N.cells & M.cells]
    image = []
    for v in q:
        carriers = [t for t in tops_containing(D, {v}) if D.source.subcells(t) & M.cells]
        if not carriers:
            raise NotInTile(f"no tile meeting mirror {M.index} carries the visited cell {v}")
        tau = min(carriers)
        axis_of = _axes(D.source.cells[tau], ctx.labels)
        constraints = {}
        for N in [M] + [N for N in relevant if v in N.cells]:
            if N.coordinate not in axis_of:
                raise CarrierViolation("the carrier does not flip a pinned coordinate")
            j, bit0 = axis_of[N.coordinate]
            if constraints.setdefault(j, bit0 ^ N.side) != bit0 ^ N.side:
                raise InternalError("inconsistent projection constraints")
        image.append(D.source.face_of(tau, constraints))
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


class _Lines:
    def __init__(self, text):
        self.rows = []
        for n, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((n, body))
        self.pos = 0

    def peek(self):
        if self.pos >= len(self.rows):
            raise FormatError("unexpected end of certificate")
        return self.rows[self.pos]

    def take(self):
        row = self.peek()
        self.pos += 1
        return row

    def expect(self, word):
        n, body = self.take()
        if body != word:
            raise FormatError(f"expected {word!r}", line=n)
        return n


def _ints(parts, n):
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise FormatError("expected integers", line=n) from None


def parse_certificate(text):
    """Parse certificate text. Open splits wait on an explicit stack, so the
    nesting depth is bounded by memory and not by the recursion limit."""
    lines = _Lines(text)
    pending = []  # open splits: [header fields, left child or None]
    while True:
        n, body = lines.take()
        head = body.split()
        if head[0] == "split":
            pending.append([_parse_split_head(lines, n, head), None])
            lines.expect("left")
            continue
        node = _parse_chain(lines, n, head)
        while pending and pending[-1][1] is not None:
            fields, left = pending.pop()
            lines.expect("end")
            node = Split(*fields, left, node)
        if not pending:
            break
        pending[-1][1] = node
        lines.expect("right")
    if lines.pos != len(lines.rows):
        n, _body = lines.peek()
        raise FormatError("trailing content after certificate", line=n)
    return node


def _parse_chain(lines, n, head):
    if head[0] != "chain":
        raise FormatError(f"expected 'chain' or 'split', got {head[0]!r}", line=n)
    if len(head) != 1:
        raise FormatError("chain takes no arguments", line=n)
    moves = []
    while True:
        n, body = lines.take()
        parts = body.split()
        if parts[0] == "end":
            if len(parts) != 1:
                raise FormatError("end takes no arguments", line=n)
            return MoveChain(tuple(moves))
        if parts[0] == "backtrack" and len(parts) == 2:
            (j,) = _ints(parts[1:], n)
            moves.append(BacktrackRemoval(j))
        elif parts[0] == "slide" and len(parts) == 4:
            j, w, sq = _ints(parts[1:], n)
            moves.append(SquareSlide(j, w, sq))
        elif parts[0] == "rotate" and len(parts) == 2:
            (k,) = _ints(parts[1:], n)
            moves.append(Rotate(k))
        else:
            raise FormatError(f"unknown move {body!r}", line=n)


def _parse_split_head(lines, n, head):
    """The rotate, mirror, support, bridge and projected fields of a split."""
    if (
        len(head) != 7
        or head[1] != "rotate"
        or head[3] != "mirror"
        or head[5] != "support"
    ):
        raise FormatError(
            "expected 'split rotate K mirror M support S'", line=n
        )
    rot, mirror, support = _ints([head[2], head[4], head[6]], n)
    n2, body2 = lines.take()
    parts = body2.split()
    if parts[0] != "bridge" or len(parts) < 2:
        raise FormatError("expected a bridge line", line=n2)
    bridge = tuple(_ints(parts[1:], n2))
    n3, body3 = lines.take()
    parts = body3.split()
    if parts[0] != "projected" or len(parts) < 2:
        raise FormatError("expected a projected line", line=n3)
    projected = tuple(_ints(parts[1:], n3))
    return rot, mirror, support, bridge, projected

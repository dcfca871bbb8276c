"""The direct definitions that the library's local scans and plain graph code replace.

Each function is the earlier, direct reading of its definition: every pair of
top cells for framings, every pair of listed cells for strict validation, a
pairwise containment test for the maximal common faces of relaxed
validation, one corner-set face lookup per coordinate for the edges at a
corner (or one scan of the cube's subcells), one corner-set face lookup per
corner of each subdivision cube, closed with every facet array
canonicalized again, links with every induced simplex sorted and their
maximal faces by pairwise containment, every cell's subcells for hyperplane
carriers, networkx clique enumeration for flagness, and networkx verdicts on
the mirror/chamber incidence graph. Differential tests compare the library
against them.
"""

from functools import lru_cache
from itertools import combinations

import networkx as nx

from cubemill.complexes import (
    Finding,
    ValidationReport,
    array_dim,
    canonical_corner_array,
    face_array,
    name_key,
)
from cubemill.errors import CellNotFound
from cubemill.folding import parallelism_classes


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
def _subface_sets(arr):
    """All corner sets of faces of the cube with corner array ``arr`` (itself included)."""
    k = array_dim(arr)
    out = {frozenset(arr)}
    for i in range(k):
        for s in (0, 1):
            out |= _subface_sets(face_array(arr, i, s))
    return frozenset(out)


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
        if inter not in _subface_sets(A) or inter not in _subface_sets(B):
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
    faces = set()
    for f in induced:
        for r in range(1, len(f) + 1):
            for sub in combinations(sorted(f, key=name_key), r):
                faces.add(frozenset(sub))
    maximal = sorted(
        (f for f in faces if not any(f < g for g in faces)),
        key=lambda f: (len(f), name_key(f)),
    )
    vertices = sorted({v for f in faces for v in f}, key=name_key)
    return frozenset(faces), tuple(maximal), vertices, bigons


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


def verify_cw(X):
    findings = []
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

"""The all-pairs and all-cells definitions that the library's local scans replace.

Each function is the earlier, direct reading of its definition: every pair of
top cells for framings, every pair of listed cells for strict validation, one
corner-set face lookup per coordinate for the edges at a corner, and every
cell's subcells for hyperplane carriers. Differential tests compare the
library against them.
"""

from itertools import combinations

from cubemill.complexes import (
    Finding,
    ValidationReport,
    _subface_sets,
    array_dim,
    canonical_corner_array,
    face_array,
)
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


def validate_cubical(corner_lists, explicit=False):
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

    if explicit:
        present = set(by_canon)
        for idx, canon in sorted(clean.items()):
            k = array_dim(canon)
            for i in range(k):
                for s in (0, 1):
                    sub = canonical_corner_array(face_array(canon, i, s))
                    if sub not in present:
                        findings.append(
                            Finding(
                                "MissingFace",
                                (idx,),
                                f"facet with corners {sorted(set(sub))} absent",
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

"""Curvature and hyperplane hygiene for cubical complexes.

Nonpositive curvature is the Gromov link condition: every vertex link is a
flag simplicial complex. Links that fail to be simplicial (doubled simplices
from two cells inducing the same edge set) are reported alongside flag
failures. Hyperplanes are parallelism classes of edges under square
opposition; the specialness check reports self-intersections,
self-osculations and inter-osculations.
"""

from dataclasses import dataclass
from itertools import combinations

from .complexes import flag_failure, link_masks
from .folding import _label_of, parallelism_classes


@dataclass(frozen=True)
class NpcViolation:
    vertex: int
    kind: str  # bigon | not-flag
    detail: tuple


@dataclass(frozen=True)
class NpcReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def to_payload(self):
        return {
            "ok": self.ok,
            "violations": [
                {"vertex": v.vertex, "kind": v.kind, "detail": list(v.detail)}
                for v in self.violations
            ],
        }


def check_npc(X):
    """Gromov link condition: every vertex link simplicial and flag."""
    violations = []
    for v in X.vertices:
        edges, faces, bigons = link_masks(X, v)
        for pair in bigons:
            violations.append(NpcViolation(v, "bigon", pair))
        witness = flag_failure(faces)
        if witness is not None:
            violations.append(NpcViolation(v, "not-flag", tuple(edges[k] for k in witness)))
    return NpcReport(tuple(violations))


# ---------------------------------------------------------------------------
# hyperplanes


@dataclass(frozen=True)
class Hyperplane:
    index: int
    edges: tuple  # sorted edge cell ids
    carriers: tuple  # sorted ids of cells of dim >= 2 containing a class edge

    def to_payload(self):
        return {"index": self.index, "edges": list(self.edges), "carriers": list(self.carriers)}


def hyperplanes(X):
    """Edge classes under square opposition, with their carrier cells."""
    out = []
    for idx, edges in enumerate(parallelism_classes(X).values()):
        # the cells containing a class edge are its upward closure
        above = set(edges)
        stack = list(edges)
        while stack:
            for p in X.cofaces[stack.pop()]:
                if p not in above:
                    above.add(p)
                    stack.append(p)
        carriers = sorted(c for c in above if X.cells[c].dim >= 2)
        out.append(Hyperplane(idx, edges, tuple(carriers)))
    return out


def hyperplane_coordinate(X, labels, hp):
    """The single folding coordinate flipped by every edge of the hyperplane.

    Returns the coordinate index; raises ValueError when the class mixes
    coordinates (that would contradict the folding).
    """
    n = X.dim
    coords = set()
    for e in hp.edges:
        a, b = (
            _label_of(labels, v, n) for v in X.cells[e].corners
        )
        diff = [i for i in range(n) if a[i] != b[i]]
        if len(diff) != 1:
            raise ValueError(f"edge {e} flips {len(diff)} coordinates")
        coords.add(diff[0])
    if len(coords) != 1:
        raise ValueError(f"hyperplane mixes folding coordinates {sorted(coords)}")
    return coords.pop()


# ---------------------------------------------------------------------------
# specialness


@dataclass(frozen=True)
class PathologyReport:
    self_intersections: tuple  # (hyperplane index, square id)
    self_osculations: tuple  # (hyperplane index, vertex, edge, edge)
    inter_osculations: tuple  # (h1, h2, crossing square, vertex, edge, edge)

    @property
    def ok(self):
        return not (self.self_intersections or self.self_osculations or self.inter_osculations)

    def to_payload(self):
        return {
            "ok": self.ok,
            "self_intersections": [list(x) for x in self.self_intersections],
            "self_osculations": [list(x) for x in self.self_osculations],
            "inter_osculations": [list(x) for x in self.inter_osculations],
        }


def check_special(X):
    """Detect hyperplane pathologies.

    Self-intersection: one hyperplane carries both opposition pairs of a
    square. Self-osculation: two distinct edges of one hyperplane share a
    vertex without a common square. Inter-osculation: two hyperplanes both
    cross a common square and osculate at a vertex.
    """
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

    crosses = {}  # each hyperplane to the later ones that cross it in a square
    for a, b in crossing_pairs:
        crosses.setdefault(a, set()).add(b)
    squares = {e: set(X.cofaces[e]) for e in hp_of}

    # osculation: same-vertex edge pairs with no common square. Only pairs of
    # one hyperplane, or of two that cross a square, can give a row, so the
    # edges at a vertex are grouped by hyperplane; an inter-osculation keeps
    # the first pair in (vertex, edge, edge) order
    self_osc = []
    inter = {}
    for v in X.vertices:
        groups = {}
        for c in X.cells_at_vertex[v]:
            if c in hp_of:
                groups.setdefault(hp_of[c], []).append(c)
        for h, es in groups.items():
            for e, e2 in combinations(es, 2):
                if squares[e].isdisjoint(squares[e2]):
                    self_osc.append((h, v, e, e2))
            # the intersection walks the smaller of the two sides
            for h2 in groups.keys() & crosses.get(h, ()):
                if (h, h2) in inter:
                    continue
                pairs = [
                    (min(e, e2), max(e, e2))
                    for e in es
                    for e2 in groups[h2]
                    if squares[e].isdisjoint(squares[e2])
                ]
                if pairs:
                    inter[h, h2] = (h, h2, crossing_pairs[h, h2], v, *min(pairs))

    return PathologyReport(
        tuple(sorted(self_int)), tuple(sorted(self_osc)), tuple(sorted(inter.values()))
    )

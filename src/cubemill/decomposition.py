"""Decomposition of a foldable complex along one folding coordinate.

Fixing a coordinate, the mirrors of that coordinate slice the complex into
chambers: components of the top-cube adjacency graph once adjacencies through
the sliced cells are deleted. The bipartite incidence graph between mirrors
and chambers is a tree exactly on simple enough sources, so its verdicts
(connected, acyclic, leafless) are reported rather than enforced; a cycle
diagnoses a non-simply-connected source and a leaf diagnoses boundary.
"""

from dataclasses import dataclass

from .folding import _DSU, chambers_avoiding, mirrors


@dataclass(frozen=True)
class TreeOfSpaces:
    coordinate: int
    mirror_indices: tuple  # positions in the canonical mirror list
    chambers: tuple  # per chamber: sorted tuple of top cell ids
    edges: tuple  # (mirror index, chamber position) incidences
    connected: bool
    acyclic: bool
    leafless: bool

    @property
    def is_tree(self):
        return self.connected and self.acyclic

    def to_payload(self):
        return {
            "coordinate": self.coordinate,
            "mirrors": list(self.mirror_indices),
            "chambers": [list(c) for c in self.chambers],
            "edges": [list(e) for e in self.edges],
            "connected": self.connected,
            "acyclic": self.acyclic,
            "leafless": self.leafless,
        }


def build_tree(Y, labels, i):
    """The mirror/chamber incidence graph for folding coordinate ``i``.

    Mirrors of both sides of the coordinate become one vertex class; the
    chambers are components of top-cube adjacency avoiding those mirrors'
    cells. One edge joins a mirror and a chamber when some cell of the mirror
    is a face of a top cube of the chamber.
    """
    if not 0 <= i < Y.dim:
        raise ValueError(f"coordinate {i} out of range for dimension {Y.dim}")
    mine = [M for M in mirrors(Y, labels) if M.coordinate == i]
    # the mirrors of one coordinate are disjoint: no cell has every vertex
    # labelled both 0 and 1, and mirrors of one side are distinct components
    mirror_of = {c: M.index for M in mine for c in M.cells}

    chambers = chambers_avoiding(Y, mirror_of)

    edges = set()
    for k, chamber in enumerate(chambers):
        for t in chamber:
            for c in Y.subcells(t):
                m = mirror_of.get(c)
                if m is not None:
                    edges.add((m, k))
    edges = sorted(edges)

    # a simple graph is a forest exactly when |E| = |V| - components
    nodes = [("mirror", M.index) for M in mine]
    nodes += [("chamber", k) for k in range(len(chambers))]
    dsu = _DSU(nodes)
    degree = dict.fromkeys(nodes, 0)
    for m, k in edges:
        dsu.union(("mirror", m), ("chamber", k))
        degree[("mirror", m)] += 1
        degree[("chamber", k)] += 1
    components = len({dsu.find(x) for x in nodes})
    connected = components <= 1
    acyclic = len(edges) == len(nodes) - components
    leafless = all(d >= 2 for d in degree.values())

    return TreeOfSpaces(
        i,
        tuple(M.index for M in mine),
        chambers,
        tuple(edges),
        connected,
        acyclic,
        leafless,
    )


def build_all_trees(Y, labels):
    """One decomposition per folding coordinate, each from the mirror list
    that ``mirrors`` keeps on ``Y``."""
    return tuple(build_tree(Y, labels, i) for i in range(Y.dim))

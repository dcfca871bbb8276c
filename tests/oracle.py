"""Independent null-homotopy oracle for loops in a dual complex.

Nothing here consults the surgery calculus. The fundamental group of the
dual 2-skeleton is presented off a breadth-first spanning tree (generators
the non-tree edges, relators the square boundaries with tree edges erased),
then a Todd-Coxeter coset enumeration over the trivial subgroup is run to
completion. Cosets are created and processed in breadth-first order, so the
finished table is the 1-skeleton of the universal cover collapsed along the
tree; a loop is null-homotopic exactly when its word traces back to the
base coset. One coset means trivial group, the simply connected case.

For spaces that are not simply connected the enumeration need not halt, so
the negative control goes through the abelianization instead: if the
relator matrix has rank below the generator count, H_1 is infinite and the
group cannot be trivial.
"""

from fractions import Fraction

import networkx as nx


# ---------------------------------------------------------------------------
# presentation of pi_1 of the dual 2-skeleton


class Presentation:
    def __init__(self, ngens, relators, letter):
        self.ngens = ngens
        self.relators = relators  # words in signed letters, +k/-k for gen k-1
        self.letter = letter  # (u, v) -> signed letter or None on tree edges

    def word(self, path):
        out = []
        for u, v in zip(path, path[1:]):
            lt = self.letter(u, v)
            if lt is not None:
                out.append(lt)
        return out


def dual_graph(D):
    """The dual 1-skeleton as a networkx graph, built from the cell table
    rather than from the skeleton under test."""
    g = nx.Graph()
    g.add_nodes_from(D.complex.vertices)
    for cube in D.complex.cells.values():
        if cube.dim == 1:
            g.add_edge(*cube.corners)
    return g


def dual_presentation(D):
    g = dual_graph(D)
    root = min(g.nodes)
    parent = dict(nx.bfs_predecessors(g, root))
    tree = {frozenset((c, p)) for c, p in parent.items()}
    gens = {}
    for u, v in sorted(tuple(sorted(e)) for e in g.edges):
        e = frozenset((u, v))
        if e not in tree:
            gens[e] = len(gens) + 1

    def letter(u, v):
        k = gens.get(frozenset((u, v)))
        if k is None:
            return None
        return k if u < v else -k

    relators = []
    for sq in D.complex.by_dim.get(2, ()):
        c = D.complex.cells[sq].corners
        cycle = (c[0], c[1], c[3], c[2], c[0])
        word = [letter(a, b) for a, b in zip(cycle, cycle[1:])]
        relators.append([lt for lt in word if lt is not None])
    return Presentation(len(gens), relators, letter)


# ---------------------------------------------------------------------------
# Todd-Coxeter over the trivial subgroup


class CosetTable:
    """Breadth-first coset enumeration; direction 2g walks generator g+1
    forward, 2g+1 walks it backward."""

    def __init__(self, ngens, relators, max_cosets=100_000):
        self.ngens = ngens
        self.labels = []
        self.nbr = []
        self._new()
        rows = [self._directions(r) for r in relators]
        scan = 0
        while scan < len(self.labels):
            c = scan
            scan += 1
            if self._find(c) != c:
                continue
            for row in rows:
                cur = c
                for d in row:
                    cur = self._follow(cur, d)
                self._unify(cur, c)
                if len(self.labels) > max_cosets:
                    raise RuntimeError("coset enumeration budget exceeded")
        self.size = len({self._find(c) for c in range(len(self.labels))})

    def _directions(self, word):
        return [2 * (lt - 1) if lt > 0 else 2 * (-lt - 1) + 1 for lt in word]

    def _new(self):
        c = len(self.labels)
        self.labels.append(c)
        self.nbr.append([None] * (2 * self.ngens))
        return c

    def _find(self, c):
        while self.labels[c] != c:
            self.labels[c] = self.labels[self.labels[c]]
            c = self.labels[c]
        return c

    def _follow(self, c, d):
        c = self._find(c)
        if self.nbr[c][d] is None:
            n = self._new()
            self.nbr[c][d] = n
            self.nbr[n][d ^ 1] = c
        return self._find(self.nbr[c][d])

    def _unify(self, a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = self._find(a), self._find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.labels[b] = a
            for d in range(2 * self.ngens):
                n = self.nbr[b][d]
                if n is None:
                    continue
                if self.nbr[a][d] is None:
                    self.nbr[a][d] = n
                else:
                    stack.append((self.nbr[a][d], n))

    def trace(self, word):
        cur = 0
        for d in self._directions(word):
            cur = self._follow(cur, d)
        return cur


_tables = {}


def pi1_table(name, D):
    """The presentation and finished coset table for a named dual complex."""
    if name not in _tables:
        pres = dual_presentation(D)
        _tables[name] = (pres, CosetTable(pres.ngens, pres.relators))
    return _tables[name]


def pi1_trivial(name, D):
    _pres, table = pi1_table(name, D)
    return table.size == 1


def null_homotopic(name, D, loop):
    pres, table = pi1_table(name, D)
    return table.trace(pres.word(loop)) == 0


# ---------------------------------------------------------------------------
# abelianization rank bound, for spaces where enumeration would not halt


def h1_is_infinite(D):
    """True when rank(relator matrix) < generator count, so H_1 has a free
    summand and pi_1 cannot be trivial."""
    pres = dual_presentation(D)
    if len(pres.relators) < pres.ngens:
        return True
    rows = []
    for rel in pres.relators:
        row = [Fraction(0)] * pres.ngens
        for lt in rel:
            row[abs(lt) - 1] += 1 if lt > 0 else -1
        rows.append(row)
    rank = 0
    for col in range(pres.ngens):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank < pres.ngens

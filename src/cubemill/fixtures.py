"""Built-in complexes used by the command line tools and the test suite.

The registry carries each fixture's complex together with the folding labels
it ships with. Simply connected fixtures are the ones whose loops the
contraction calculus must handle end to end; the torus is the standard
non-separating counterexample, and the two hyperbolized fixtures have
nontrivial loops by construction.
"""

from dataclasses import dataclass
from functools import lru_cache

from .complexes import CubicalComplex, SimplicialComplex, barsub


@dataclass(frozen=True)
class Fixture:
    name: str
    complex: CubicalComplex
    labels: dict  # vertex id -> coordinate bit tuple
    simply_connected: bool
    description: str


def _sq1():
    X = CubicalComplex.from_maximal_cells([(0, 1, 2, 3)])
    labels = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    return X, labels, True, "a single square"


def _grid2():
    def v(x, y):
        return 3 * y + x

    squares = [
        (v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1))
        for x in range(2)
        for y in range(2)
    ]
    X = CubicalComplex.from_maximal_cells(squares)
    labels = {v(x, y): (x % 2, y % 2) for x in range(3) for y in range(3)}
    return X, labels, True, "a 2 by 2 grid of squares"


def _book3():
    squares = [(0, 1, 2 * i + 2, 2 * i + 3) for i in range(3)]
    X = CubicalComplex.from_maximal_cells(squares)
    labels = {0: (0, 0), 1: (1, 0)}
    for i in range(3):
        labels[2 * i + 2] = (0, 1)
        labels[2 * i + 3] = (1, 1)
    return X, labels, True, "three squares sharing a spine edge"


def _cube1():
    X = CubicalComplex.from_maximal_cells([tuple(range(8))])
    labels = {v: ((v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1) for v in range(8)}
    return X, labels, True, "a single solid cube"


def _torus4():
    def v(x, y):
        return 4 * (y % 4) + (x % 4)

    squares = [
        (v(x, y), v(x + 1, y), v(x, y + 1), v(x + 1, y + 1))
        for x in range(4)
        for y in range(4)
    ]
    X = CubicalComplex.from_maximal_cells(squares)
    labels = {v(x, y): (x % 2, y % 2) for x in range(4) for y in range(4)}
    return X, labels, False, "a flat 4 by 4 torus"


# The hyperbolized fixtures import hyperbolization when they are built, so the
# other fixtures do not load it.


def _gdelta2():
    from .gromov import gromov_hyperbolize

    K = SimplicialComplex([(0, 1, 2)])
    r = gromov_hyperbolize(K, {0: 0, 1: 1, 2: 2})
    return r.complex, r.folding, False, "the hyperbolized triangle"


def _sphere():
    from .folding import canonical_barsub_folding
    from .gromov import boundary_complex, gromov_hyperbolize

    S = barsub(boundary_complex(3))
    r = gromov_hyperbolize(S, canonical_barsub_folding(S))
    return (
        r.complex,
        r.folding,
        False,
        "the hyperbolized barycentric boundary of the 3-simplex",
    )


_REGISTRY = {
    "sq1": _sq1,
    "grid2": _grid2,
    "book3": _book3,
    "cube1": _cube1,
    "torus4": _torus4,
    "gdelta2": _gdelta2,
    "sphere": _sphere,
}

FIXTURE_NAMES = tuple(sorted(_REGISTRY))


@lru_cache(maxsize=None)
def fixture(name):
    builder = _REGISTRY.get(name)
    if builder is None:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    X, labels, sc, desc = builder()
    return Fixture(name, X, labels, sc, desc)


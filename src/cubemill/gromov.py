"""Hyperbolization of simplicial complexes by cylinder models.

Every folded n-simplex is replaced by a copy of a fixed model complex; copies
are glued along boundary strata purely by name equality. The model of
dimension m is built recursively:

* dimension 0: a point, dimension 1: an edge;
* dimension m >= 2: let B_m be the hyperbolized barycentric subdivision of
  the boundary of the m-simplex (itself an assembly of (m-1)-models). The
  label swap 0 <-> 1 induces an involution sigma of B_m whose fixed cells are
  those with componentwise invariant chains. B_m splits as U union sigma(U)
  with intersection Fix (a closed half, extracted as the incidence component
  of the vertex over the face {0}, plus Fix); the model is the cylinder
  B_m x [-1,1] with (u,1) glued to (u,-1) for u in U. Its boundary is the
  double of sigma(U) along Fix, again a copy of B_m, and boundary cells are
  named by B_m cells directly, which is what makes assembly gluing by name
  sound.

The construction keeps the halving property as runtime checks: if the
complement of the fixed locus ever fails to split into two swapped halves,
the build aborts rather than producing a wrong complex.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .complexes import (
    CheckReport,
    CubicalComplex,
    SimplicialComplex,
    barsub,
    name_key,
    verify_cw,
)
from .errors import InternalError, NotFoldable, UnsupportedDimension
from .folding import canonical_barsub_folding, verify_folding, verify_simplicial_folding

MAX_MODEL_DIM = 3


@dataclass(frozen=True)
class Model:
    cells: dict  # name -> (corner names bitmask order, facet names (axis, side) order)
    boundary: dict  # boundary cell name -> (face label frozenset, strat name)
    folding: dict  # vertex name -> m-bit tuple
    # cell names in name order, sorted once per model rather than per tile
    order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(sorted(self.cells, key=name_key)))


@dataclass(frozen=True)
class Assembly:
    cells: dict  # name -> (corners, facets)
    folding: dict  # vertex name -> bit tuple
    tiles: dict  # source top simplex -> tuple of cell names


def boundary_complex(m):
    """The boundary of the m-simplex on vertex set 0..m."""
    return SimplicialComplex(combinations(range(m + 1), m))


def assemble(K, labels):
    """Glue one model copy per maximal face of the folded complex ``K``.

    ``labels`` must be a simplicial folding: every maximal face carries each
    of the labels 0..dim exactly once. Interior model cells of the copy over
    face ``s`` are named ("i", s, cell); boundary cells over the subface with
    label set F are shared between copies and named ("f", subface, strat).
    A collision check guards the gluing: equal names must carry equal
    local structure.
    """
    err = verify_simplicial_folding(K, labels)
    if err is not None:
        raise NotFoldable(err)
    n = K.dim
    mdl = model(n)
    cells = {}
    folding = {}
    tiles = {}
    for s in sorted(K.maximal, key=name_key):
        by_label = {labels[v]: v for v in s}

        def glue(x, _by_label=by_label, _s=s):
            entry = mdl.boundary.get(x)
            if entry is None:
                return ("i", _s, x)
            face, y = entry
            tau = frozenset(_by_label[j] for j in face)
            return ("f", tau, y)

        names = []
        for x in mdl.order:
            co, fa = mdl.cells[x]
            nm = glue(x)
            names.append(nm)
            entry = (tuple(glue(c) for c in co), tuple(glue(f) for f in fa))
            if nm in cells:
                if cells[nm] != entry:
                    raise InternalError(f"gluing collision at {nm!r}")
            else:
                cells[nm] = entry
                if len(entry[0]) == 1:
                    src = x if nm[0] == "i" else ("b", nm[2])
                    folding[nm] = mdl.folding[src]
        tiles[s] = tuple(names)
    return Assembly(cells, folding, tiles)


# ---------------------------------------------------------------------------
# the recursive models

_models = {}


def _swap_subset(S):
    table = {0: 1, 1: 0}
    return frozenset(table.get(x, x) for x in S)


def _swap_chain(chain):
    return frozenset(_swap_subset(S) for S in chain)


def _sigma_name(name):
    kind = name[0]
    if kind in ("i", "f"):
        return (kind, _swap_chain(name[1]), name[2])
    raise InternalError(f"unexpected cell name {name!r}")


def _face_label(name):
    # the open face of the target simplex a B_m cell sits over: the largest
    # subset in its chain
    return max(name[1], key=len)


def _extract_half(cells):
    """Split B_m as U union sigma(U) with intersection Fix, or abort."""
    sigma = {nm: _sigma_name(nm) for nm in cells}
    for nm, im in sigma.items():
        if im not in cells:
            raise InternalError(f"label swap leaves the complex at {nm!r}")
        if sigma[im] != nm:
            raise InternalError("label swap is not an involution")
    for nm, (co, fa) in cells.items():
        co2, fa2 = cells[sigma[nm]]
        if {sigma[c] for c in co} != set(co2) or {sigma[f] for f in fa} != set(fa2):
            raise InternalError(f"label swap is not an automorphism at {nm!r}")
    fix = frozenset(nm for nm in cells if sigma[nm] == nm)
    for nm in fix:
        if nm[0] == "i":
            raise InternalError("a top-chain cell is fixed by the label swap")

    adj = {nm: [] for nm in cells if nm not in fix}
    for nm, nbrs in adj.items():
        for f in cells[nm][1]:
            if f not in fix:
                nbrs.append(f)
                adj[f].append(nm)
    seeds = [
        nm
        for nm, (co, _fa) in cells.items()
        if len(co) == 1 and nm not in fix and _face_label(nm) == frozenset({0})
    ]
    if len(seeds) != 1:
        raise InternalError(f"expected one vertex over the face {{0}}, got {len(seeds)}")
    queue = [seeds[0]]
    half = set(queue)
    for nm in queue:
        for y in adj[nm]:
            if y not in half:
                half.add(y)
                queue.append(y)
    U = frozenset(half) | fix
    V = frozenset(sigma[nm] for nm in U)
    if U | V != set(cells) or U & V != fix:
        raise InternalError("the fixed locus does not halve the complex")
    return sigma, fix, U


def model(m):
    """The hyperbolizing model of the m-simplex, memoized per process."""
    if m in _models:
        return _models[m]
    if m < 0:
        raise ValueError("negative dimension")
    if m > MAX_MODEL_DIM:
        raise UnsupportedDimension(
            f"hyperbolization models are built up to dimension {MAX_MODEL_DIM}"
        )
    if m == 0:
        point = ("o",)
        mdl = Model({point: ((point,), ())}, {}, {point: ()})
    elif m == 1:
        S = barsub(boundary_complex(1))
        B = assemble(S, canonical_barsub_folding(S))
        y0 = next(nm for nm in B.cells if _face_label(nm) == frozenset({0}))
        y1 = next(nm for nm in B.cells if _face_label(nm) == frozenset({1}))
        v0, v1 = ("b", y0), ("b", y1)
        edge = ("e",)
        cells = {
            v0: ((v0,), ()),
            v1: ((v1,), ()),
            edge: ((v0, v1), (v0, v1)),
        }
        boundary = {v0: (frozenset({0}), y0), v1: (frozenset({1}), y1)}
        mdl = Model(cells, boundary, {v0: (0,), v1: (1,)})
    else:
        S = barsub(boundary_complex(m))
        B = assemble(S, canonical_barsub_folding(S))
        sigma, fix, U = _extract_half(B.cells)
        bcells = B.cells

        def top_name(b, t):
            if b in fix:
                return ("b", b)
            if b in U:
                return ("g", b)
            return ("b", b) if t == 1 else ("b", sigma[b])

        cells = {}
        for b, (co, fa) in bcells.items():
            d = len(co).bit_length() - 1
            cells[("c", b, 0)] = (
                tuple(("c", z, 0) for z in co),
                tuple(("c", f, 0) for f in fa),
            )
            for t in (1, -1):
                corners = tuple(("c", z, 0) for z in co) + tuple(
                    top_name(z, t) for z in co
                )
                facets = tuple(("c", f, t) for f in fa) + (("c", b, 0), top_name(b, t))
                if len(facets) != 2 * (d + 1):
                    raise InternalError(f"cylinder cell over {b!r} has {len(facets)} facets")
                cells[("c", b, t)] = (corners, facets)
        for u in sorted(U - fix, key=name_key):
            co, fa = bcells[u]
            cells[("g", u)] = (
                tuple(top_name(z, 1) for z in co),
                tuple(top_name(f, 1) for f in fa),
            )
        boundary = {}
        for y, (co, fa) in bcells.items():
            cells[("b", y)] = (
                tuple(("b", z) for z in co),
                tuple(("b", f) for f in fa),
            )
            boundary[("b", y)] = (_face_label(y), y)

        # Vertices fold to their B_m label with the cylinder coordinate
        # appended: 0 on the middle copy, 1 on the glued top and on the
        # boundary. The boundary label is independent of which cylinder end a
        # name came from because strat labels ignore the chain component.
        folding = {}
        for b, lab in B.folding.items():
            folding[("c", b, 0)] = lab + (0,)
            folding[top_name(b, 1)] = lab + (1,)
        for nm, (co, _fa) in cells.items():
            if len(co) == 1 and nm not in folding:
                if nm[0] != "b":
                    raise InternalError(f"unlabelled model vertex {nm!r}")
                folding[nm] = B.folding[nm[1]] + (1,)
        mdl = Model(cells, boundary, folding)
    _models[m] = mdl
    return mdl


# ---------------------------------------------------------------------------
# public construction


@dataclass(frozen=True)
class GromovResult:
    complex: CubicalComplex
    folding: dict  # vertex id -> bit tuple
    tiles: dict  # source top simplex (frozenset) -> tuple of cell ids
    source: SimplicialComplex


def gromov_hyperbolize(K, labels=None):
    """Hyperbolize a simplicial complex of dimension <= 3.

    With ``labels`` a simplicial folding the complex is assembled directly;
    without one the barycentric subdivision with its dimension labels is used
    (always a folding). Returns the cubical complex, its induced cube
    folding and the tile map; its ``names`` give each cell's source face, as
    ``assemble`` names them.
    """
    if not isinstance(K, SimplicialComplex):
        raise TypeError("expected a simplicial complex")
    if K.dim < 0:
        raise UnsupportedDimension("the empty complex has no hyperbolization")
    if K.dim > MAX_MODEL_DIM:
        raise UnsupportedDimension(
            f"dimension {K.dim} exceeds the model cap {MAX_MODEL_DIM}"
        )
    if labels is None:
        K = barsub(K)
        labels = canonical_barsub_folding(K)
    asm = assemble(K, labels)
    X = CubicalComplex.from_named_cells(asm.cells)
    cid_of = {nm: cid for cid, nm in X.names.items()}
    folding = {vid: asm.folding[nm] for vid, nm in X.vertex_names.items()}
    tiles = {
        s: tuple(sorted(cid_of[nm] for nm in names)) for s, names in asm.tiles.items()
    }
    return GromovResult(X, folding, tiles, K)


# ---------------------------------------------------------------------------
# verification


def _links_differ(X, K):
    """The source vertices whose link the hyperbolization does not carry, read
    along the names of the cells at their images.

    At the image of a source vertex v, an edge over the source edge {v, w} is
    the link node w. Every other edge there must lie in exactly two squares,
    so the squares at the image chain the other edges into paths between
    nodes. The link is carried when the nodes are the neighbours of v, once
    each, the paths join w and u once per triangle {v, w, u}, and they pass
    through every other edge: the link of the image is then the link of v
    with its edges subdivided.
    """
    nbrs = {v: [] for v in K.vertices}
    triangles = {v: Counter() for v in K.vertices}  # (w, u) -> triangles {v, w, u}
    for f in K.faces:
        if len(f) == 2:
            a, b = f
            nbrs[a].append(b)
            nbrs[b].append(a)
        elif len(f) == 3:
            for v in f:
                a, b = f - {v}
                triangles[v].update(((a, b), (b, a)))
    image = {}
    for vid, nm in X.vertex_names.items():
        if nm[0] == "f" and len(nm[1]) == 1:
            (v,) = nm[1]
            image[v] = vid
    bad = []
    for v in K.vertices:
        img = image.get(v)
        if img is None:
            bad.append(v)
            continue
        node = {}  # edge at img over a source edge {v, w} -> w
        squares = {}  # edge at img -> its (square, other edge at img) pairs
        # cell ids run in dimension order, so the edges come before the squares
        for cid in X.cells_at_vertex[img]:
            cube = X.cells[cid]
            if cube.dim == 1:
                squares[cid] = []
                rest = X.names[cid][1] - {v}
                if len(rest) == 1:
                    (node[cid],) = rest
            elif cube.dim == 2:
                e1, e2 = X.edges_at_corner(cid, cube.corners.index(img))
                squares[e1].append((cid, e2))
                squares[e2].append((cid, e1))
        if Counter(node.values()) != Counter(nbrs[v]) or any(
            len(sq) != 2 for e, sq in squares.items() if e not in node
        ):
            bad.append(v)
            continue
        paths = Counter()
        passed = set()
        for e, w in node.items():
            for sq, f in squares[e]:
                while f not in node:
                    passed.add(f)
                    (s1, f1), (s2, f2) = squares[f]
                    sq, f = (s2, f2) if s1 == sq else (s1, f1)
                paths[w, node[f]] += 1
        if paths != triangles[v] or len(passed) + len(node) != len(squares):
            bad.append(v)
    return bad


def verify_gromov_properties(result):
    """Run every applicable structural check on a hyperbolization result.

    Checks: relaxed admissibility of the output, dimension and homogeneity,
    foldability of the induced labeling, per-tile isomorphism with the model,
    link preservation at source vertices (each image link a subdivision of
    the source link, matched by the cell names; applicable for sources of
    dimension <= 2), and
    boundarylessness preservation when the source is boundaryless.
    """
    X = result.complex
    K = result.source
    n = K.dim
    checks = []

    def check(name, ok, failure):
        checks.append((name, "pass" if ok else "fail", "" if ok else failure))

    rep = verify_cw(X)
    check("cw-admissible", rep.ok, f"{len(rep.findings)} bad pairs")
    ok_dim = X.dim == n and X.is_homogeneous()
    checks.append(("dimension-homogeneous", "pass" if ok_dim else "fail", f"dim {X.dim}"))

    ob = verify_folding(X, result.folding)
    check("foldable", ob is None, str(ob))

    mdl = model(n)
    bad_tiles = []
    for s, cids in sorted(result.tiles.items(), key=lambda kv: name_key(kv[0])):
        by_model = {}
        for cid in cids:
            nm = X.names[cid]
            key = nm[2] if nm[0] == "i" else ("b", nm[2])
            by_model[key] = cid
        if set(by_model) != set(mdl.cells):
            bad_tiles.append(s)
            continue
        good = True
        for key, cid in by_model.items():
            mco, mfa = mdl.cells[key]
            cube = X.cells[cid]
            if {by_model[f] for f in mfa} != set(cube.facets):
                good = False
                break
            if {by_model[c] for c in mco} != {X.zero_cell[v] for v in cube.corners}:
                good = False
                break
        if not good:
            bad_tiles.append(s)
    check("tiles-isomorphic", not bad_tiles, f"{len(bad_tiles)} tiles differ from the model")

    if n == 0:
        checks.append(("links-preserved", "pass", "links are empty"))
    elif n <= 2:
        bad_links = _links_differ(X, K)
        check("links-preserved", not bad_links, f"{len(bad_links)} vertices differ")
    else:
        checks.append(("links-preserved", "n/a", "source links are not graphs"))

    if _simplicial_boundaryless(K):
        check("boundaryless-preserved", X.is_boundaryless(), "")
    else:
        checks.append(("boundaryless-preserved", "n/a", "source has boundary"))

    return CheckReport(tuple(checks))


def _simplicial_boundaryless(K):
    n = K.dim
    if n == 0:
        return True
    if not K.is_pure():
        return False
    # the complex is pure, so every (n-1)-face is a facet of some maximal face
    holders = Counter(g - {v} for g in K.maximal for v in g)
    return all(count == 2 for count in holders.values())

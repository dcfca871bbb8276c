"""File formats: JSON documents for complexes and foldings, a line-oriented
move format for certificates, and canonical JSON report dumping.

Every serializer is deterministic: repeated calls on equal inputs emit
identical bytes, and parsing a serialized document and serializing it again
reproduces the canonical form of the original. Parse failures raise
:class:`FormatError` carrying a line or field diagnostic.

Certificates are read in one pass over their non-blank lines; a deep
certificate costs memory, not recursion.
"""

import json

from .complexes import CubicalComplex, SimplicialComplex, name_key
from .errors import FormatError
from .surgery import BacktrackRemoval, MoveChain, Rotate, SquareSlide, Split

# Largest cell dimension a parsed complex may have. A k-cube's closure has
# 3^k faces and a simplex on n vertices has 2^n - 1 faces, so one oversized
# cell in a small file could otherwise exhaust memory.
MAX_CELL_DIM = 8


# ---------------------------------------------------------------------------
# json helpers


def dumps_json(payload):
    """Canonical JSON text for a report payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno) from None


def _expect(doc, field, types, where=""):
    if field not in doc:
        raise FormatError("missing field", field=where + field)
    value = doc[field]
    if not isinstance(value, types):
        raise FormatError(
            f"expected {' or '.join(t.__name__ for t in types)}",
            field=where + field,
        )
    return value


def _check_corner_count(corners, field):
    if len(corners) == 0 or len(corners) & (len(corners) - 1):
        raise FormatError("corner count must be a power of two", field=field)
    if len(corners) > 1 << MAX_CELL_DIM:
        raise FormatError(f"cell dimension exceeds the cap {MAX_CELL_DIM}", field=field)


def _int_list(value, field):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise FormatError("expected a list of integers", field=field)
    return value


# ---------------------------------------------------------------------------
# complexes


def serialize_complex(X):
    """Canonical JSON text for a complex.

    Strict cubical complexes serialize by their maximal corner arrays, relaxed
    cw complexes by their full cell table, and simplicial complexes by their
    maximal faces over vertices relabeled canonically to 0..n-1.
    """
    if isinstance(X, SimplicialComplex):
        index = {v: i for i, v in enumerate(X.vertices)}
        maximal = sorted(
            sorted(index[v] for v in f) for f in X.maximal
        )
        return dumps_json({"kind": "simplicial", "maximal": maximal})
    if X.kind == "cubical":
        maximal = [list(X.cells[t].corners) for t in X.top_cells()]
        return dumps_json({"kind": "cubical", "maximal": maximal})
    cells = [
        {"corners": list(c.corners), "facets": list(c.facets)}
        for c in (X.cells[i] for i in sorted(X.cells))
    ]
    return dumps_json({"kind": "cw", "cells": cells})


def parse_complex(text):
    """Parse a complex document, canonicalizing cell order and frames."""
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object", line=1)
    kind = _expect(doc, "kind", (str,))
    if kind == "simplicial":
        maximal = _expect(doc, "maximal", (list,))
        faces = []
        for i, f in enumerate(maximal):
            faces.append(tuple(_int_list(f, f"maximal[{i}]")))
            if len(set(faces[-1])) != len(faces[-1]):
                raise FormatError("repeated vertex in face", field=f"maximal[{i}]")
            if len(faces[-1]) > MAX_CELL_DIM + 1:
                raise FormatError(
                    f"face dimension exceeds the cap {MAX_CELL_DIM}", field=f"maximal[{i}]"
                )
        return SimplicialComplex(faces)
    if kind == "cubical":
        maximal = _expect(doc, "maximal", (list,))
        lists = [_int_list(f, f"maximal[{i}]") for i, f in enumerate(maximal)]
        for i, arr in enumerate(lists):
            _check_corner_count(arr, f"maximal[{i}]")
        return CubicalComplex.from_maximal_cells(lists)
    if kind == "cw":
        raw = _expect(doc, "cells", (list,))
        named = {}
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise FormatError("expected an object", field=f"cells[{i}]")
            corners = _int_list(
                _expect(entry, "corners", (list,), f"cells[{i}]."),
                f"cells[{i}].corners",
            )
            facets = _int_list(
                _expect(entry, "facets", (list,), f"cells[{i}]."),
                f"cells[{i}].facets",
            )
            _check_corner_count(corners, f"cells[{i}].corners")
            if len(facets) != 2 * (len(corners).bit_length() - 1):
                raise FormatError(
                    "a k-cell lists 2k facets", field=f"cells[{i}].facets"
                )
            name = corners[0] if len(corners) == 1 else ("cell", i)
            if name in named:
                raise FormatError("0-cell listed twice", field=f"cells[{i}].corners")
            named[name] = (corners, facets)
        # facet references are list positions; remap them to names
        by_pos = list(named)
        remapped = {}
        for i, name in enumerate(by_pos):
            corners, facets = named[name]
            for f in facets:
                if not 0 <= f < len(by_pos):
                    raise FormatError(
                        "facet index out of range", field=f"cells[{i}].facets"
                    )
            remapped[name] = (
                tuple(corners),
                tuple(by_pos[f] for f in facets),
            )
        try:
            return CubicalComplex.from_named_cells(remapped)
        except (ValueError, KeyError) as e:
            raise FormatError(f"inconsistent cell table: {e}", field="cells") from None
    raise FormatError(f"unknown kind {kind!r}", field="kind")


# ---------------------------------------------------------------------------
# foldings


def folding_rows(labels):
    """Folding labels as ``[vertex, label]`` rows in canonical vertex order."""
    return [
        [v, list(labels[v]) if isinstance(labels[v], (tuple, list)) else labels[v]]
        for v in sorted(labels, key=name_key)
    ]


def serialize_folding(labels):
    """Canonical JSON text for folding labels (cubical bit tuples or
    simplicial vertex labels)."""
    return dumps_json({"kind": "folding", "labels": folding_rows(labels)})


def parse_folding(text):
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object", line=1)
    kind = _expect(doc, "kind", (str,))
    if kind != "folding":
        raise FormatError(f"unknown kind {kind!r}", field="kind")
    rows = _expect(doc, "labels", (list,))
    labels = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 2:
            raise FormatError("expected [vertex, label]", field=f"labels[{i}]")
        v, lab = row
        if not isinstance(v, int) or isinstance(v, bool):
            raise FormatError("vertex must be an integer", field=f"labels[{i}]")
        if v in labels:
            raise FormatError("vertex labeled twice", field=f"labels[{i}]")
        if isinstance(lab, list):
            labels[v] = tuple(_int_list(lab, f"labels[{i}]"))
        elif isinstance(lab, int) and not isinstance(lab, bool):
            labels[v] = lab
        else:
            raise FormatError("label must be an integer or a list", field=f"labels[{i}]")
    return labels


# ---------------------------------------------------------------------------
# certificates


def serialize_certificate(cert):
    """Line-oriented move text for a contraction certificate."""
    out = []
    _emit_cert(cert, out)
    return "\n".join(out) + "\n"


def _emit_cert(cert, out):
    """Write depth first on an explicit stack, so deep certificates are
    bounded by memory and not by the recursion limit. The stack holds nodes
    still to write and the literal lines that follow them."""
    todo = [cert]
    while todo:
        cert = todo.pop()
        if isinstance(cert, str):
            out.append(cert)
        elif isinstance(cert, MoveChain):
            out.append("chain")
            for mv in cert.moves:
                if isinstance(mv, BacktrackRemoval):
                    out.append(f"backtrack {mv.j}")
                elif isinstance(mv, SquareSlide):
                    out.append(f"slide {mv.j} {mv.w} {mv.square}")
                elif isinstance(mv, Rotate):
                    out.append(f"rotate {mv.k}")
                else:
                    raise ValueError(f"unknown move {mv!r}")
            out.append("end")
        elif isinstance(cert, Split):
            out.append(
                f"split rotate {cert.rotate} mirror {cert.mirror_index} "
                f"support {cert.support_index}"
            )
            out.append("bridge " + " ".join(str(v) for v in cert.bridge))
            out.append("projected " + " ".join(str(v) for v in cert.projected))
            out.append("left")
            todo += ("end", cert.right, "right", cert.left)
        else:
            raise ValueError(f"unknown certificate node {cert!r}")


_EOF = "unexpected end of certificate"


def parse_certificate(text):
    """Parse certificate text in one pass over its non-blank lines.

    Open splits wait on an explicit stack, so the nesting depth is bounded by
    memory and not by the recursion limit.
    """
    rows = []
    for n, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        body = raw.strip()
        if body:
            rows.append((n, body))
    it = iter(rows)

    def take():
        row = next(it, None)
        if row is None:
            raise FormatError(_EOF)
        return row

    pending = []  # open splits: [header fields, left child or None]
    while True:
        n, body = take()
        head = body.split()
        if head[0] == "split":
            if (
                len(head) != 7
                or head[1] != "rotate"
                or head[3] != "mirror"
                or head[5] != "support"
            ):
                raise FormatError("expected 'split rotate K mirror M support S'", line=n)
            try:
                fields = [int(head[2]), int(head[4]), int(head[6])]
            except ValueError:
                raise FormatError("expected integers", line=n) from None
            for word in ("bridge", "projected"):
                n, body = take()
                parts = body.split()
                if parts[0] != word or len(parts) < 2:
                    raise FormatError(f"expected a {word} line", line=n)
                try:
                    fields.append(tuple([int(x) for x in parts[1:]]))
                except ValueError:
                    raise FormatError("expected integers", line=n) from None
            n, body = take()
            if body != "left":
                raise FormatError("expected 'left'", line=n)
            pending.append([fields, None])
            continue
        if head[0] != "chain":
            raise FormatError(f"expected 'chain' or 'split', got {head[0]!r}", line=n)
        if len(head) != 1:
            raise FormatError("chain takes no arguments", line=n)
        moves = []
        for n, body in it:  # the move lines: read here, not through take()
            parts = body.split()
            word = parts[0]
            if word == "end":
                if len(parts) != 1:
                    raise FormatError("end takes no arguments", line=n)
                break
            try:
                if word == "backtrack" and len(parts) == 2:
                    mv = BacktrackRemoval(int(parts[1]))
                elif word == "slide" and len(parts) == 4:
                    mv = SquareSlide(int(parts[1]), int(parts[2]), int(parts[3]))
                elif word == "rotate" and len(parts) == 2:
                    mv = Rotate(int(parts[1]))
                else:
                    raise FormatError(f"unknown move {body!r}", line=n)
            except ValueError:
                raise FormatError("expected integers", line=n) from None
            moves.append(mv)
        else:
            raise FormatError(_EOF)
        node = MoveChain(tuple(moves))
        while pending and pending[-1][1] is not None:
            fields, left = pending.pop()
            n, body = take()
            if body != "end":
                raise FormatError("expected 'end'", line=n)
            node = Split(*fields, left, node)
        if not pending:
            break
        pending[-1][1] = node
        n, body = take()
        if body != "right":
            raise FormatError("expected 'right'", line=n)
    trailing = next(it, None)
    if trailing is not None:
        raise FormatError("trailing content after certificate", line=trailing[0])
    return node

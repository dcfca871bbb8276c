"""File formats: JSON documents for complexes and foldings, a line-oriented
move format for certificates, and canonical JSON report dumping.

Every serializer is deterministic: repeated calls on equal inputs emit
identical bytes, and parsing a serialized document and serializing it again
reproduces the canonical form of the original. Parse failures raise
:class:`FormatError` carrying a line or field diagnostic.

The certificate format lives in ``certificates``, which needs surgery's node
classes; ``parse_certificate`` and ``serialize_certificate`` are bound here
on first access, so reading a complex does not import surgery.
"""

import json
import sys

from .complexes import CubicalComplex, SimplicialComplex, name_key
from .errors import FormatError

_CERTIFICATE_NAMES = ("parse_certificate", "serialize_certificate")

# Largest cell dimension a parsed complex may have. A k-cube's closure has
# 3^k faces and a simplex on n vertices has 2^n - 1 faces, so one oversized
# cell in a small file could otherwise exhaust memory.
MAX_CELL_DIM = 8


# ---------------------------------------------------------------------------
# json helpers


def dumps_json(payload):
    """Canonical JSON text for a report payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Python 3.11 and later refuse integers of more than 4300 digits while
# parsing (``sys.set_int_max_str_digits``); earlier versions get the same cap.
_INT_DIGITS = 4300


def _bounded_int(digits):
    if len(digits.lstrip("-")) > _INT_DIGITS:
        raise ValueError
    return int(digits)


_PARSE_INT = {} if hasattr(sys, "get_int_max_str_digits") else {"parse_int": _bounded_int}


def _loads(text):
    """Parse JSON text; nesting past the recursion limit and integers past
    the digit limit are a FormatError like any other malformed text."""
    try:
        return json.loads(text, **_PARSE_INT)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise FormatError("invalid JSON: an integer has too many digits") from None


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


def __getattr__(name):
    if name not in _CERTIFICATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certificates

    for n in _CERTIFICATE_NAMES:  # later reads are plain attribute lookups
        globals()[n] = getattr(certificates, n)
    return globals()[name]

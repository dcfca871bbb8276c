"""Fuzzing the trust boundary: parsers and certificate replay on mutated input.

Every parser either returns a value or raises a ``CubemillError``, and
``verify_certificate`` either returns a verdict or raises one; nothing else
may escape, whatever the text.
"""

import copy
import json
import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from cubemill.complexes import CubicalComplex, SimplicialComplex
from cubemill.errors import CubemillError
from cubemill.fixtures import fixture
from cubemill.formats import (
    parse_certificate,
    parse_complex,
    parse_folding,
    serialize_certificate,
    serialize_complex,
    serialize_folding,
)
from cubemill.surgery import Split, contract_loop, random_loop, verify_certificate
from helpers import dual_of


def _pillow():
    """Two squares glued along their whole boundary: a cw complex with a
    doubled cell."""
    named = {v: ((v,), ()) for v in range(4)}
    named.update({("e", a, b): ((a, b), (a, b)) for a, b in ((0, 1), (2, 3), (0, 2), (1, 3))})
    for top in ("up", "down"):
        named[top] = ((0, 1, 2, 3), (("e", 0, 2), ("e", 1, 3), ("e", 0, 1), ("e", 2, 3)))
    return CubicalComplex.from_named_cells(named)


COMPLEX_SEEDS = tuple(
    serialize_complex(X)
    for X in (
        fixture("sq1").complex,
        fixture("grid2").complex,
        fixture("book3").complex,
        _pillow(),
        SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)]),
    )
)
FOLDING_SEEDS = tuple(
    serialize_folding(labels)
    for labels in (fixture("grid2").labels, fixture("cube1").labels, {0: 0, 1: 1, 2: 2})
)
ATOMS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([None, True, 1.5, "x", [], {}, [0], [0, 1], 1 << 70]),
)


@st.composite
def mutated_json(draw, text):
    """``text`` with one to three edits to its JSON tree: a slot replaced by
    an atom, deleted, or its value duplicated in place."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        slots = []
        stack = [doc]
        while stack:
            x = stack.pop()
            keys = list(x) if isinstance(x, dict) else range(len(x))
            slots += [(x, k) for k in keys]
            stack += [x[k] for k in keys if isinstance(x[k], (dict, list))]
        if not slots:
            break
        x, k = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if op == "replace":
            x[k] = copy.deepcopy(draw(ATOMS))  # atoms are shared between examples
        elif op == "delete":
            del x[k]
        elif isinstance(x, list):
            x.insert(k, copy.deepcopy(x[k]))
    return json.dumps(doc)


@st.composite
def mutated_text(draw, text, alphabet):
    """``text`` with one slice replaced by a short string over ``alphabet``."""
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.text(alphabet, max_size=6)) + text[j:]


def json_mutations(seeds):
    return st.sampled_from(seeds).flatmap(
        lambda text: st.one_of(mutated_json(text), mutated_text(text, '0123456789-[]{},:" '))
    )


@settings(max_examples=600)
@given(json_mutations(COMPLEX_SEEDS))
def test_parse_complex_returns_or_raises_a_cubemill_error(text):
    try:
        parse_complex(text)
    except CubemillError:
        pass


@settings(max_examples=300)
@given(json_mutations(FOLDING_SEEDS))
def test_parse_folding_returns_or_raises_a_cubemill_error(text):
    try:
        parse_folding(text)
    except CubemillError:
        pass


@lru_cache(maxsize=None)
def _grid2_certificates():
    """(loop, certificate text) pairs on grid2 whose certificates split."""
    D = dual_of("grid2")
    labels = fixture("grid2").labels
    rng = random.Random(5)
    out = []
    while len(out) < 4:
        p = random_loop(D, rng)
        cert = contract_loop(D, p, labels)
        if isinstance(cert, Split):
            out.append((p, serialize_certificate(cert)))
    return tuple(out)


WORDS = ("0", "1", "-1", "3", "99", "x", "split", "chain", "end", "left", "right", "rotate")


@st.composite
def mutated_certificate(draw):
    """A grid2 loop and its certificate with one to three line edits: a line
    deleted, duplicated or swapped with another, or one of its words replaced."""
    p, text = draw(st.sampled_from(_grid2_certificates()))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "word")))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split()
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(WORDS))
            lines[i] = " ".join(words)
    return p, "\n".join(lines) + "\n"


@settings(max_examples=400)
@given(mutated_certificate())
def test_mutated_certificates_parse_and_replay_to_a_verdict(case):
    p, text = case
    try:
        cert = parse_certificate(text)
    except CubemillError:
        return
    assert verify_certificate(dual_of("grid2"), p, cert) in (True, False)


@settings(max_examples=200)
@given(
    st.sampled_from([text for _p, text in _grid2_certificates()]).flatmap(
        lambda text: mutated_text(text, "0123456789 -\n")
    )
)
def test_parse_certificate_returns_or_raises_a_cubemill_error(text):
    try:
        parse_certificate(text)
    except CubemillError:
        pass

"""Serialization round trips and parse diagnostics."""

import random

import pytest

from cubemill.complexes import SimplicialComplex, barsub
from cubemill.errors import FormatError
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.formats import (
    dumps_json,
    parse_certificate,
    parse_complex,
    parse_folding,
    serialize_certificate,
    serialize_complex,
    serialize_folding,
)
from cubemill.dual import build_dual
from cubemill.surgery import MoveChain, Split, contract_loop, random_loop
from helpers import simply_connected_names


def test_json_reports_are_canonical():
    text = dumps_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert dumps_json({"b": 1, "a": [2, {"d": 3, "c": 4}]}) == text


def test_every_fixture_complex_round_trips():
    for name in FIXTURE_NAMES:
        X = fixture(name).complex
        text = serialize_complex(X)
        again = serialize_complex(parse_complex(text))
        assert again == text, name


def test_parsed_fixture_matches_original_census():
    for name in ("grid2", "torus4"):
        X = fixture(name).complex
        Y = parse_complex(serialize_complex(X))
        assert {d: len(v) for d, v in Y.by_dim.items()} == {
            d: len(v) for d, v in X.by_dim.items()
        }


def test_simplicial_complex_round_trips():
    S = SimplicialComplex([("a", "b", "c"), ("b", "c", "d"), ("d", "e")])
    text = serialize_complex(S)
    again = serialize_complex(parse_complex(text))
    assert again == text
    T = parse_complex(text)
    assert len(T.maximal) == len(S.maximal)


def test_subdivided_complex_round_trips():
    S = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    B = barsub(S)
    text = serialize_complex(B)
    assert serialize_complex(parse_complex(text)) == text


def test_cw_complex_round_trips():
    X = fixture("gdelta2").complex
    assert X.kind == "cw"
    text = serialize_complex(X)
    again = serialize_complex(parse_complex(text))
    assert again == text


def test_folding_round_trips_for_bit_labels_and_colors():
    for name in FIXTURE_NAMES:
        labels = fixture(name).labels
        text = serialize_folding(labels)
        assert parse_folding(text) == labels
        assert serialize_folding(parse_folding(text)) == text
    colors = {0: 0, 1: 1, 2: 2}
    text = serialize_folding(colors)
    assert parse_folding(text) == colors


def test_certificates_round_trip_including_splits():
    rng = random.Random(7)
    seen = set()
    for name in simply_connected_names():
        f = fixture(name)
        D = build_dual(f.complex)
        for _ in range(40):
            p = random_loop(D, rng)
            cert = contract_loop(D, p, f.labels)
            seen.add(type(cert))
            text = serialize_certificate(cert)
            parsed = parse_certificate(text)
            assert parsed == cert
            assert serialize_certificate(parsed) == text
    assert MoveChain in seen
    assert Split in seen


def test_certificate_comments_and_blank_lines_are_ignored():
    text = (
        "# produced by hand\n"
        "\n"
        "chain   # a single chain\n"
        "rotate 1\n"
        "backtrack 0  # drop the spike\n"
        "end\n"
    )
    cert = parse_certificate(text)
    assert isinstance(cert, MoveChain)
    assert len(cert.moves) == 2


def test_certificate_errors_carry_original_line_numbers():
    text = "# header\nchain\nwobble 3\nend\n"
    with pytest.raises(FormatError) as e:
        parse_certificate(text)
    assert e.value.line == 3
    assert "wobble" in str(e.value)


def test_trailing_certificate_content_is_rejected():
    with pytest.raises(FormatError) as e:
        parse_certificate("chain\nend\nchain\nend\n")
    assert e.value.line == 3
    assert "trailing" in str(e.value)


def test_truncated_certificate_is_rejected():
    with pytest.raises(FormatError):
        parse_certificate("chain\nrotate 2\n")
    with pytest.raises(FormatError):
        parse_certificate(
            "split rotate 0 mirror 1 support 2\nbridge 1 2\nprojected 3 4\nleft\nchain\nend\n"
        )


def test_malformed_split_header_is_rejected():
    with pytest.raises(FormatError) as e:
        parse_certificate("split rotate 0 hinge 1 support 2\n")
    assert e.value.line == 1


def test_non_integer_move_arguments_are_rejected():
    with pytest.raises(FormatError) as e:
        parse_certificate("chain\nslide 1 two 3\nend\n")
    assert e.value.line == 2


def test_invalid_json_reports_its_line():
    with pytest.raises(FormatError) as e:
        parse_complex('{\n  "kind": "cubical",\n  "maximal": [\n}\n')
    assert e.value.line == 4


def test_unknown_document_kinds_are_rejected():
    with pytest.raises(FormatError) as e:
        parse_complex('{"kind": "poset", "maximal": []}')
    assert e.value.field == "kind"
    with pytest.raises(FormatError) as e:
        parse_folding('{"kind": "labels", "labels": []}')
    assert e.value.field == "kind"


def test_missing_and_mistyped_fields_name_the_field():
    with pytest.raises(FormatError) as e:
        parse_complex('{"kind": "cubical"}')
    assert e.value.field == "maximal"
    with pytest.raises(FormatError) as e:
        parse_complex('{"kind": "cubical", "maximal": 7}')
    assert e.value.field == "maximal"


def test_bad_corner_counts_name_the_offending_cell():
    with pytest.raises(FormatError) as e:
        parse_complex('{"kind": "cubical", "maximal": [[0, 1], [2, 3, 4]]}')
    assert e.value.field == "maximal[1]"


def test_repeated_vertex_in_a_face_is_rejected():
    with pytest.raises(FormatError) as e:
        parse_complex('{"kind": "simplicial", "maximal": [[0, 1, 1]]}')
    assert e.value.field == "maximal[0]"


def test_folding_rows_are_validated():
    with pytest.raises(FormatError):
        parse_folding('{"kind": "folding", "labels": [[0, [0, 0]], [0, [0, 1]]]}')
    with pytest.raises(FormatError):
        parse_folding('{"kind": "folding", "labels": [[0]]}')
    with pytest.raises(FormatError):
        parse_folding('{"kind": "folding", "labels": [[true, [0, 0]]]}')
    with pytest.raises(FormatError):
        parse_folding('{"kind": "folding", "labels": [[0, "red"]]}')


def test_cw_facet_indices_are_range_checked():
    doc = (
        '{"kind": "cw", "cells": ['
        '{"corners": [0], "facets": []},'
        '{"corners": [1], "facets": []},'
        '{"corners": [0, 1], "facets": [0, 9]}]}'
    )
    with pytest.raises(FormatError) as e:
        parse_complex(doc)
    assert "facets" in (e.value.field or "")

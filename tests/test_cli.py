"""End-to-end command line tests."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cubemill
import reference
from cubemill import formats, surgery
from cubemill.cli import main
from cubemill.complexes import MAX_BARSUB_FLAGS, SimplicialComplex
from cubemill.dual import build_dual
from cubemill.fixtures import FIXTURE_NAMES, fixture
from cubemill.formats import MAX_CELL_DIM, parse_complex
from cubemill.surgery import random_loop
from helpers import annulus, deep_certificate_text, dual_of, reading

runner = CliRunner()


def run(*args):
    return runner.invoke(main, args, catch_exceptions=False)


def payload(result):
    return json.loads(result.output)


def test_fold_reports_fixture_labels():
    r = run("fold", "--fixture", "torus4")
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert doc["source"] == "fixture"
    assert len(doc["labels"]) == 16


def test_fold_searches_when_input_is_a_file(tmp_path):
    path = tmp_path / "squares.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3]]}')
    r = run("fold", "--in", str(path))
    assert r.exit_code == 0
    assert payload(r)["source"] == "computed"


def test_fold_rejects_the_unfoldable(tmp_path):
    path = tmp_path / "tube.json"
    path.write_text(
        '{"kind": "cubical", "maximal": [[0, 1, 2, 3], [1, 4, 3, 5], [4, 0, 5, 2]]}'
    )
    r = run("fold", "--in", str(path))
    assert r.exit_code == 1
    assert payload(r)["error"] == "NotFoldable"


def test_contract_refuses_the_torus_meridian():
    r = run("contract", "--fixture", "torus4", "--loop", "0,18,4,30,8,38,12,19,0")
    assert r.exit_code == 1
    doc = payload(r)
    assert doc["error"] == "Unsupported"
    assert "separate" in doc["detail"]


def test_the_mixed_complex_separates_everywhere_yet_refuses_its_circle(tmp_path):
    # two squares on the corner 0, joined by the edges 3-7 and 7-6: every
    # mirror separates, but the loop around the circle lies in no tile
    path = tmp_path / "mixed.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3], [0, 4, 5, 6], [3, 7], [7, 6]]}')
    labels = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1), 4: (1, 0), 5: (0, 1), 6: (1, 1), 7: (1, 0)}
    folding = tmp_path / "mixed_folding.json"
    folding.write_text(formats.serialize_folding(labels))
    r = run("mirrors", "--in", str(path), "--folding", str(folding))
    assert r.exit_code == 0
    rows = payload(r)["mirrors"]
    assert len(rows) == 6 and all(row["separates"] for row in rows)
    loop = "18,12,3,14,7,17,6,15,19,10,0,8,18"
    r = run("contract", "--in", str(path), "--folding", str(folding), "--loop", loop)
    assert r.exit_code == 1
    assert payload(r) == {"error": "NotInTile", "detail": "no tile contains the path"}


def test_contract_and_verify_round_trip(tmp_path):
    f = fixture("grid2")
    D = build_dual(f.complex)
    loop = random_loop(D, random.Random(3))
    text = ",".join(str(v) for v in loop)
    cert = tmp_path / "loop.cert"
    r = run(
        "contract", "--fixture", "grid2", "--loop", text,
        "--verify", "--out", str(cert),
    )
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["verified"] is True
    assert doc["length"] == len(loop) - 1

    r = run("verify", "--fixture", "grid2", "--loop", text, "--cert", str(cert))
    assert r.exit_code == 0
    assert payload(r) == {"valid": True}


def test_verify_rejects_a_certificate_for_another_loop(tmp_path):
    cert = tmp_path / "wrong.cert"
    f = fixture("sq1")
    D = build_dual(f.complex)
    loop = random_loop(D, random.Random(5))
    text = ",".join(str(v) for v in loop)
    r = run("contract", "--fixture", "sq1", "--loop", text, "--out", str(cert))
    assert r.exit_code == 0
    other = random_loop(D, random.Random(11))
    while other == loop:
        other = random_loop(D, random.Random(12))
    r = run(
        "verify", "--fixture", "sq1",
        "--loop", ",".join(str(v) for v in other), "--cert", str(cert),
    )
    assert r.exit_code == 1
    assert payload(r) == {"valid": False}


def test_verify_rejects_malformed_certificates(tmp_path):
    cert = tmp_path / "garbled.cert"
    cert.write_text("chain\nwobble 1\nend\n")
    r = run("verify", "--fixture", "sq1", "--loop", "0,1,4,3,0", "--cert", str(cert))
    assert r.exit_code == 2
    assert payload(r)["error"] == "FormatError"


BAD = "bad.json"


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "--in", BAD),
        ("fold", "--fixture", "grid2", "--folding", BAD),
        ("gromov", "--in", BAD),
        ("verify", "--fixture", "grid2", "--loop", "19,7,20,24,17,7,19", "--cert", BAD),
    ],
    ids=["validate", "fold", "gromov", "verify"],
)
def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path, args):
    bad = tmp_path / BAD
    bad.write_bytes(b"\xff\xfe\x00bad")
    r = run(*(str(bad) if a == BAD else a for a in args))
    assert r.exit_code == 2
    assert payload(r) == {
        "error": "FormatError",
        "detail": "not UTF-8: invalid start byte at byte 0",
    }
    bad.write_bytes('{"kind": "cubical", "maximal": [[0]]} # é'.encode()[:-1])
    r = run(*(str(bad) if a == BAD else a for a in args))
    assert r.exit_code == 2
    assert payload(r)["detail"] == "not UTF-8: unexpected end of data at byte 40"


@pytest.mark.parametrize(
    "text, detail",
    [
        ("[" * 100000, "invalid JSON: nested too deeply"),
        (
            '{"kind": "cubical", "maximal": [[%s]]}' % ("9" * 5000),
            "invalid JSON: an integer has too many digits",
        ),
    ],
    ids=["deep", "long-integer"],
)
def test_hostile_json_exits_2_with_a_format_error(tmp_path, text, detail):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    for args in (
        ("validate", "--in", str(path)),
        ("fold", "--fixture", "grid2", "--folding", str(path)),
    ):
        r = run(*args)
        assert r.exit_code == 2
        assert payload(r) == {"error": "FormatError", "detail": detail}


def test_json_lines_count_bare_carriage_returns(tmp_path):
    path = tmp_path / "cr.json"
    path.write_bytes(b'{\r  "kind": "cubical",\r  "maximal": [\r}\r')
    r = run("validate", "--in", str(path))
    assert r.exit_code == 2
    assert payload(r)["detail"].endswith("(line 4)")


def test_verify_replays_a_deep_certificate(tmp_path):
    loop = random_loop(build_dual(fixture("grid2").complex), random.Random(3))
    text = ",".join(str(v) for v in loop)
    cert = tmp_path / "deep.cert"
    cert.write_text(deep_certificate_text(loop, "chain\nend\n", 5000))
    r = run("verify", "--fixture", "grid2", "--loop", text, "--cert", str(cert))
    assert r.exit_code == 1
    assert payload(r) == {"valid": False}


def test_verify_rejects_a_truncated_deep_certificate(tmp_path):
    loop = random_loop(build_dual(fixture("grid2").complex), random.Random(3))
    text = ",".join(str(v) for v in loop)
    deep = deep_certificate_text(loop, "chain\nend\n", 5000).splitlines()
    cert = tmp_path / "truncated.cert"
    cert.write_text("\n".join(deep[: len(deep) - 2500]) + "\n")
    r = run("verify", "--fixture", "grid2", "--loop", text, "--cert", str(cert))
    assert r.exit_code == 2
    assert payload(r)["error"] == "FormatError"


def test_seeded_contraction_suite_passes_on_a_grid():
    r = run("contract", "--fixture", "sq1", "--seed", "0")
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert doc["loops"] == 100
    assert doc["max_split_depth"] >= 0


def test_contraction_suite_on_a_point_takes_constant_loops(tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"kind": "cubical", "maximal": [[0]]}')
    r = run("contract", "--in", str(path))
    assert r.exit_code == 0
    assert payload(r) == {"loops": 100, "max_split_depth": 0, "ok": True, "seed": 0}


def test_contraction_suite_on_an_edge_beside_a_point(tmp_path):
    text = '{"kind": "cubical", "maximal": [[0, 1], [2]]}'
    D = build_dual(parse_complex(text))
    rng = random.Random(0)
    # the seeded suite draws the isolated vertex, whose loop is constant
    assert any(len(random_loop(D, rng)) == 1 for _ in range(100))
    path = tmp_path / "edge_and_point.json"
    path.write_text(text)
    r = run("contract", "--in", str(path))
    assert r.exit_code == 0
    assert payload(r)["ok"] is True


def test_contraction_suite_on_the_empty_complex_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "cubical", "maximal": []}')
    r = run("contract", "--in", str(path))
    assert r.exit_code == 2
    assert payload(r)["error"] == "CellNotFound"


def test_bad_loop_text_is_a_usage_error():
    r = run("contract", "--fixture", "sq1", "--loop", "0,zebra,0")
    assert r.exit_code == 2
    r = run("contract", "--fixture", "sq1", "--loop", "0,999,0")
    assert r.exit_code == 2
    assert payload(r)["error"] == "CellNotFound"
    r = run("contract", "--fixture", "sq1", "--loop", "0,1,0")
    assert r.exit_code == 2
    assert payload(r)["error"] == "BadLoop"


def test_open_path_is_a_bad_loop():
    # a valid dual edge path whose ends differ: the seed-3 random loop on
    # grid2 without its closing vertex
    r = run("contract", "--fixture", "grid2", "--loop", "7,20,24,17,23,19,23,17")
    assert r.exit_code == 2
    doc = payload(r)
    assert doc["error"] == "BadLoop"
    assert "only loops contract" in doc["detail"]


def test_a_failed_surgery_guard_is_a_report_with_exit_1(monkeypatch):
    # a projection longer than the bridge leaves the left loop no shorter
    monkeypatch.setattr(surgery, "project_bridge", lambda ctx, q, M: q + q[::-1][1:] + q[1:])
    r = run("contract", "--fixture", "grid2", "--loop", "19,7,20,24,17,7,19")
    assert r.exit_code == 1
    doc = payload(r)
    assert doc["error"] == "InternalError"
    assert "failed to shrink" in doc["detail"]


def test_a_bridge_around_the_annulus_hole_is_refused_outside_a_tile(tmp_path):
    path = tmp_path / "annulus.json"
    path.write_text(formats.serialize_complex(annulus()))
    loop = "104,64,108,65,21,73,20,71,107,63,14,52,8,51,9,53,104"
    r = run("contract", "--in", str(path), "--loop", loop)
    assert r.exit_code == 1
    assert payload(r) == {
        "error": "NotInTile",
        "detail": "no tile meeting mirror 7 carries the visited cell 73",
    }


def test_a_9001_vertex_loop_contracts_and_verifies(tmp_path):
    # 3000 crossings give 1500 splits nested 1500 deep, past the recursion
    # limit: contraction, the certificate writer and its reader all keep their
    # work on explicit stacks
    loop = "19,7,20,24,17,7," * 1500 + "19"
    cert = tmp_path / "long.cert"
    r = run("contract", "--fixture", "grid2", "--loop", loop, "--verify", "--out", str(cert))
    assert r.exit_code == 0
    doc = payload(r)
    assert (doc["length"], doc["crossings"], doc["verified"]) == (9000, 3000, True)
    r = run("verify", "--fixture", "grid2", "--loop", loop, "--cert", str(cert))
    assert r.exit_code == 0
    assert payload(r) == {"valid": True}
    text = cert.read_text()
    assert reading(formats.parse_certificate, text) == reading(reference.parse_certificate, text)


def test_validate_and_fold_on_a_star_of_1000_edges(tmp_path):
    # one parallelism class per edge, past the recursion limit of a search
    # that recursed once per class
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"kind": "cubical", "maximal": [[0, i] for i in range(1, 1001)]}))
    r = run("validate", "--in", str(path))
    assert r.exit_code == 0
    r = run("fold", "--in", str(path))
    assert r.exit_code == 0
    labels = dict((v, tuple(lab)) for v, lab in payload(r)["labels"])
    assert labels[0] == (0,) and len(labels) == 1001
    assert all(labels[v] == (1,) for v in range(1, 1001))


def test_fold_refuses_an_odd_triangle_beside_30_squares(tmp_path):
    # each component is searched on its own, so the refusal comes at once
    cells = [[0, 1], [1, 2], [0, 2]] + [list(range(3 + 4 * j, 7 + 4 * j)) for j in range(30)]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"kind": "cubical", "maximal": cells}))
    r = run("fold", "--in", str(path))
    assert r.exit_code == 1
    assert payload(r)["error"] == "NotFoldable"


def test_fold_refuses_a_search_past_the_back_up_cap(tmp_path):
    # a square, an odd triangle and 30 pendant edges at one vertex: one
    # component whose exhaustive search would back up about 2^35 times
    cells = [[0, 1, 2, 3], [0, 10], [10, 11], [0, 11]] + [[0, 100 + i] for i in range(30)]
    path = tmp_path / "pendant.json"
    path.write_text(json.dumps({"kind": "cubical", "maximal": cells}))
    r = run("fold", "--in", str(path))
    assert r.exit_code == 1
    assert payload(r)["error"] == "Unsupported"


def test_validate_reports_inadmissible_input(tmp_path):
    path = tmp_path / "diagonal.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3], [0, 4, 3, 5]]}')
    r = run("validate", "--in", str(path))
    assert r.exit_code == 1
    doc = payload(r)
    assert doc["ok"] is False
    assert doc["findings"]


def test_validate_reports_two_squares_on_one_corner_set(tmp_path):
    path = tmp_path / "twosq.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3], [0, 1, 3, 2]]}')
    r = run("validate", "--in", str(path))
    assert r.exit_code == 1
    doc = payload(r)
    assert doc["ok"] is False
    assert [f["cells"] for f in doc["findings"]] == [[0, 1]]


@pytest.mark.parametrize("sub", ["fold", "hyperplanes", "mirrors", "tree", "contract"])
def test_integer_folding_labels_are_a_usage_error(tmp_path, sub):
    path = tmp_path / "intlab.json"
    path.write_text(json.dumps({"kind": "folding", "labels": [[v, 1] for v in range(9)]}))
    r = run(sub, "--fixture", "grid2", "--folding", str(path))
    assert r.exit_code == 2
    assert payload(r) == {
        "error": "UnlabeledVertex",
        "detail": "vertex 0 label 1 is not a corner of the 2-cube",
    }


def test_validate_passes_every_fixture():
    for name in ("sq1", "grid2", "book3", "cube1", "torus4", "gdelta2", "sphere"):
        r = run("validate", "--fixture", name)
        assert r.exit_code == 0, name
        assert payload(r)["ok"] is True


def test_exactly_one_input_is_required(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3]]}')
    assert run("validate").exit_code == 2
    assert run("validate", "--fixture", "sq1", "--in", str(path)).exit_code == 2
    assert run("validate", "--fixture", "nonesuch").exit_code == 2


def test_parse_errors_exit_with_usage_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2]]}')
    r = run("validate", "--in", str(path))
    assert r.exit_code == 2
    assert payload(r)["error"] == "FormatError"
    # cells above the dimension cap are refused before any face is built
    for doc in (
        {"kind": "cubical", "maximal": [list(range(1 << (MAX_CELL_DIM + 1)))]},
        {"kind": "simplicial", "maximal": [list(range(MAX_CELL_DIM + 2))]},
    ):
        path.write_text(json.dumps(doc))
        r = run("validate", "--in", str(path))
        assert r.exit_code == 2
        assert payload(r)["error"] == "FormatError"
        assert "cap" in payload(r)["detail"]


@pytest.mark.parametrize(
    "cells, field",
    [
        # an edge listing no facets
        ([{"corners": [0], "facets": []}, {"corners": [1], "facets": []},
          {"corners": [0, 1], "facets": []}], "cells[2].facets"),
        # a 0-cell listed twice would shift every later positional facet reference
        ([{"corners": [0], "facets": []}, {"corners": [0], "facets": []}], "cells[1].corners"),
    ],
)
def test_malformed_cw_cell_tables_are_format_errors(tmp_path, cells, field):
    path = tmp_path / "cw.json"
    path.write_text(json.dumps({"kind": "cw", "cells": cells}))
    r = run("validate", "--in", str(path))
    assert r.exit_code == 2
    doc = payload(r)
    assert doc["error"] == "FormatError"
    assert repr(field) in doc["detail"]


TRIANGLE ='{"kind": "simplicial", "maximal": [[0, 1, 2]]}'
CUBICAL_ONLY = (
    "validate", "links", "check-npc", "fold", "hyperplanes", "mirrors", "dual", "tree",
    "special-check", "contract", "verify",
)


@pytest.mark.parametrize("sub", CUBICAL_ONLY)
def test_simplicial_input_to_a_cubical_subcommand_is_a_usage_error(tmp_path, sub):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE)
    extra = ("--loop", "0", "--cert", str(path)) if sub == "verify" else ()
    r = run(sub, "--in", str(path), *extra)
    assert r.exit_code == 2
    doc = payload(r)
    assert doc["error"] == "FormatError"
    assert "cubical" in doc["detail"]


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "simplicial", "maximal": [list(range(MAX_CELL_DIM + 1))]},
        {"kind": "cubical", "maximal": [list(range(1 << 6))]},
    ],
)
def test_barsub_refuses_inputs_with_too_many_flags(tmp_path, doc):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    r = run("barsub", "--in", str(path))
    assert r.exit_code == 1
    out = payload(r)
    assert out["error"] == "Unsupported"
    assert str(MAX_BARSUB_FLAGS) in out["detail"]


def test_barsub_still_takes_a_simplicial_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(TRIANGLE)
    r = run("barsub", "--in", str(path))
    assert r.exit_code == 0
    assert payload(r)["counts"] == {"0": 7, "1": 12, "2": 6}


def test_importing_cubemill_leaves_networkx_unloaded():
    # networkx is a test dependency: it stays out of the memory and start-up
    # time of every subcommand
    code = "import sys, cubemill, cubemill.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cubemill.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


def _loaded_after(tmp_path, *args):
    """Run one subcommand in a fresh interpreter; (exit code, the set of
    networkx and cubemill submodules it loaded).

    ``triangle`` in ``args`` stands for a simplicial file of one triangle.
    """
    tri = tmp_path / "triangle.json"
    tri.write_text(TRIANGLE)
    args = [str(tri) if a == "triangle" else a for a in args]
    code = (
        "import sys\n"
        "from cubemill.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as e:\n"
        "    loaded = [m for m in sys.modules if m == 'networkx' or m.startswith('cubemill.')]\n"
        "    print(e.code, *loaded, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cubemill.__file__).parents[1]))
    err = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    ).stderr
    exit_code, *loaded = err.splitlines()[-1].split()
    return int(exit_code), set(loaded)


def _networkx_after(tmp_path, *args):
    """Run one subcommand in a fresh interpreter; (exit code, networkx loaded)."""
    exit_code, loaded = _loaded_after(tmp_path, *args)
    return exit_code, "networkx" in loaded


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "--fixture", "grid2"),
        ("barsub", "--fixture", "sq1"),
        ("fold", "--fixture", "grid2"),
        ("links", "--fixture", "grid2"),
        ("check-npc", "--fixture", "gdelta2"),
        ("hyperplanes", "--fixture", "grid2"),
        ("special-check", "--fixture", "grid2"),
        ("mirrors", "--fixture", "grid2"),
        ("dual", "--fixture", "grid2"),
        ("contract", "--fixture", "grid2"),
        ("tree", "--fixture", "grid2"),
        ("fixture", "gdelta2"),
        ("gromov", "--in", "triangle"),
    ],
    ids=lambda args: args[0],
)
def test_subcommands_leave_networkx_unloaded(tmp_path, args):
    assert _networkx_after(tmp_path, *args) == (0, False)


def test_gromov_verify_leaves_networkx_unloaded(tmp_path):
    # the link check reads the source faces off the cell names
    assert _networkx_after(tmp_path, "gromov", "--in", "triangle", "--verify") == (0, False)


def _grid_file(tmp_path):
    path = tmp_path / "grid.json"
    v = [[3 * y + x for x in range(3)] for y in range(3)]
    cells = [[v[y][x], v[y][x + 1], v[y + 1][x], v[y + 1][x + 1]] for x in (0, 1) for y in (0, 1)]
    path.write_text(json.dumps({"kind": "cubical", "maximal": cells}))
    return str(path)


def test_validate_loads_only_complexes_formats_and_errors(tmp_path):
    exit_code, loaded = _loaded_after(tmp_path, "validate", "--in", _grid_file(tmp_path))
    assert exit_code == 0
    assert loaded == {"cubemill.cli", "cubemill.complexes", "cubemill.errors", "cubemill.formats"}


def test_dual_loads_neither_surgery_nor_folding(tmp_path):
    exit_code, loaded = _loaded_after(tmp_path, "dual", "--in", _grid_file(tmp_path))
    assert exit_code == 0
    assert "cubemill.dual" in loaded
    for name in ("surgery", "gromov", "curvature", "folding"):
        assert f"cubemill.{name}" not in loaded


def test_contract_loads_surgery(tmp_path):
    args = ("contract", "--in", _grid_file(tmp_path), "--loop", "19,7,20,24,17,7,19")
    exit_code, loaded = _loaded_after(tmp_path, *args)
    assert exit_code == 0
    assert "cubemill.surgery" in loaded and "cubemill.gromov" not in loaded


def test_importing_the_package_loads_no_submodule():
    code = "import sys, cubemill; print([m for m in sys.modules if m.startswith('cubemill.')])"
    env = dict(os.environ, PYTHONPATH=str(Path(cubemill.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


# the package's exports, in the order they had when the package imported
# every module to re-export it
EXPORTS = [
    "Cube",
    "CubicalComplex",
    "SimplicialComplex",
    "ValidationReport",
    "barsub",
    "cubical_subdivision",
    "validate_cubical",
    "verify_cw",
    "Hyperplane",
    "check_npc",
    "check_special",
    "hyperplane_coordinate",
    "hyperplanes",
    "TreeOfSpaces",
    "build_all_trees",
    "build_tree",
    "DualComplex",
    "build_dual",
    "dual_mirror",
    "tops_containing",
    "verify_dual_axioms",
    "CarrierViolation",
    "CellNotFound",
    "CubemillError",
    "FormatError",
    "InternalError",
    "NoCrossing",
    "NonSeparatingMirror",
    "NotABridge",
    "NotAdmissible",
    "NotFoldable",
    "NotInTile",
    "UnlabeledVertex",
    "Unsupported",
    "UnsupportedDimension",
    "Mirror",
    "assert_folding",
    "find_folding",
    "framings",
    "mirror_separates",
    "mirrors",
    "parallelism_classes",
    "verify_folding",
    "verify_simplicial_folding",
    "dumps_json",
    "parse_certificate",
    "parse_complex",
    "parse_folding",
    "serialize_certificate",
    "serialize_complex",
    "serialize_folding",
    "gromov_hyperbolize",
    "model",
    "verify_gromov_properties",
    "check_edge_path",
    "contract_in_tile",
    "contract_loop",
    "crossings",
    "make_efficient",
    "minimal_bridge",
    "project_bridge",
    "random_loop",
    "surgery_step",
    "verify_certificate",
    "__version__",
]


def test_package_exports_resolve_to_their_modules():
    assert cubemill.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(cubemill))
    for name in EXPORTS[:-1]:
        value = getattr(cubemill, name)
        module = importlib.import_module(f"cubemill.{cubemill._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        # the module that defines it, where another module re-exports it
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert cubemill.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        cubemill.no_such_name  # noqa: B018


def test_gromov_with_a_coloring_yields_the_square_model(tmp_path):
    tri = tmp_path / "triangle.json"
    tri.write_text('{"kind": "simplicial", "maximal": [[0, 1, 2]]}')
    colors = tmp_path / "colors.json"
    colors.write_text('{"kind": "folding", "labels": [[0, 0], [1, 1], [2, 2]]}')
    r = run("gromov", "--in", str(tri), "--folding", str(colors), "--verify")
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["counts"] == {"0": 14, "1": 27, "2": 12}
    assert doc["tiles"] == 1
    assert all(c["status"] in ("pass", "n/a") for c in doc["checks"])


def test_gromov_without_a_coloring_subdivides_first(tmp_path):
    tri = tmp_path / "triangle.json"
    tri.write_text('{"kind": "simplicial", "maximal": [[0, 1, 2]]}')
    r = run("gromov", "--in", str(tri))
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["counts"]["2"] == 72
    assert doc["tiles"] == 6


def test_gromov_wants_a_simplicial_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text('{"kind": "cubical", "maximal": [[0, 1, 2, 3]]}')
    r = run("gromov", "--in", str(path))
    assert r.exit_code == 2
    doc = payload(r)
    assert doc["error"] == "FormatError" and "'kind'" in doc["detail"]


def test_gromov_refuses_the_empty_complex(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "simplicial", "maximal": []}')
    r = run("gromov", "--in", str(path))
    assert r.exit_code == 1
    assert payload(r)["error"] == "UnsupportedDimension"


def test_gromov_artifact_is_nonpositively_curved(tmp_path):
    tri = tmp_path / "triangle.json"
    tri.write_text('{"kind": "simplicial", "maximal": [[0, 1, 2]]}')
    out = tmp_path / "tiled.json"
    r = run("gromov", "--in", str(tri), "--out", str(out))
    assert r.exit_code == 0
    r = run("check-npc", "--in", str(out))
    assert r.exit_code == 0
    assert payload(r)["ok"] is True


def test_dual_artifact_round_trips(tmp_path):
    out = tmp_path / "dual.json"
    r = run("dual", "--fixture", "grid2", "--out", str(out))
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])
    D = parse_complex(out.read_text())
    assert len(D.by_dim[0]) == 25


@pytest.mark.parametrize(
    "args",
    [
        ("barsub", "--fixture", "sq1"),
        ("fold", "--fixture", "grid2"),
        ("gromov", "--in", "triangle.json"),
        ("dual", "--fixture", "grid2"),
        ("contract", "--fixture", "grid2", "--loop", "19,7,20,24,17,7,19"),
        ("fixture", "grid2"),
    ],
    ids=lambda args: args[0],
)
def test_an_artifact_is_serialized_only_for_out(tmp_path, monkeypatch, args):
    (tmp_path / "triangle.json").write_text('{"kind": "simplicial", "maximal": [[0, 1, 2]]}')
    monkeypatch.chdir(tmp_path)
    report = run(*args).output

    def refuse(_x):
        raise RuntimeError("serialized without --out")

    for name in ("serialize_complex", "serialize_folding", "serialize_certificate"):
        monkeypatch.setattr(formats, name, refuse)
    r = run(*args)
    assert r.exit_code == 0
    assert r.output == report
    with pytest.raises(RuntimeError, match="without --out"):
        run(*args, "--out", "artifact.txt")


def test_barsub_artifact_parses_with_matching_counts(tmp_path):
    out = tmp_path / "sub.json"
    r = run("barsub", "--fixture", "sq1", "--out", str(out))
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["counts"] == {"0": 9, "1": 16, "2": 8}
    B = parse_complex(out.read_text())
    assert {str(d): n for d, n in B.counts().items()} == doc["counts"]


def test_fixture_listing_and_detail(tmp_path):
    r = run("fixture")
    assert r.exit_code == 0
    rows = payload(r)["fixtures"]
    assert [row["name"] for row in rows] == [
        "book3", "cube1", "gdelta2", "grid2", "sphere", "sq1", "torus4",
    ]
    out = tmp_path / "book3.json"
    r = run("fixture", "book3", "--out", str(out))
    assert r.exit_code == 0
    assert payload(r)["simply_connected"] is True
    r = run("validate", "--in", str(out))
    assert r.exit_code == 0


def test_hyperplane_coordinates_on_the_cube():
    r = run("hyperplanes", "--fixture", "cube1")
    assert r.exit_code == 0
    doc = payload(r)
    assert doc["ok"] is True
    assert sorted(h["coordinate"] for h in doc["hyperplanes"]) == [0, 1, 2]


def test_mirror_report_shows_the_torus_refusing_to_separate():
    r = run("mirrors", "--fixture", "torus4")
    assert r.exit_code == 0
    rows = payload(r)["mirrors"]
    assert rows and all(row["separates"] is False for row in rows)


def test_special_check_and_links_pass_on_the_cube():
    assert run("special-check", "--fixture", "cube1").exit_code == 0
    r = run("links", "--fixture", "cube1")
    assert r.exit_code == 0
    assert payload(r)["ok"] is True


HOLLOW_CUBE = (
    '{"kind": "cubical", "maximal": [[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 5], '
    '[2, 3, 6, 7], [0, 2, 4, 6], [1, 3, 5, 7]]}'
)
BIGON_SQUARES = Path(__file__).parent / "data" / "bigon_squares.json"


def test_links_of_the_hollow_cube_are_empty_triangles(tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(HOLLOW_CUBE)
    r = run("links", "--in", str(path))
    assert r.exit_code == 1
    doc = payload(r)
    assert doc["ok"] is False
    assert doc["links"][0] == {
        "counts": {"0": 3, "1": 3},
        "flag": False,
        "simplicial": True,
        "vertex": 0,
        "witness": [8, 9, 10],
    }


def test_links_report_the_bigon_of_two_squares():
    r = run("links", "--in", str(BIGON_SQUARES))
    assert r.exit_code == 1
    assert payload(r)["links"][0] == {
        "counts": {"0": 2, "1": 1},
        "flag": True,
        "simplicial": False,
        "vertex": 0,
        "witness": [],
    }


def _reference_link_row(X, v):
    faces, _maximal, _vertices, bigons = reference.link(X, v)
    flag, witness = reference.is_flag(SimplicialComplex(faces))
    counts = {}
    for f in faces:
        counts[str(len(f) - 1)] = counts.get(str(len(f) - 1), 0) + 1
    return {
        "counts": counts,
        "flag": flag,
        "simplicial": not bigons,
        "vertex": v,
        "witness": list(witness or ()),
    }


def _link_inputs(tmp_path):
    hollow = tmp_path / "hollow.json"
    hollow.write_text(HOLLOW_CUBE)
    yield hollow
    yield BIGON_SQUARES
    for name in FIXTURE_NAMES:
        for X in (fixture(name).complex, dual_of(name).complex):
            path = tmp_path / f"{name}-{X.kind}-{len(X.cells)}.json"
            path.write_text(formats.serialize_complex(X))
            yield path


def test_links_rows_match_the_reference_links(tmp_path):
    for path in _link_inputs(tmp_path):
        X = parse_complex(path.read_text())
        want = [_reference_link_row(X, v) for v in X.vertices]
        ok = all(row["flag"] and row["simplicial"] for row in want)
        r = run("links", "--in", str(path))
        assert payload(r) == {"ok": ok, "links": want}, path.name
        assert r.exit_code == (0 if ok else 1)


def test_tree_report_flags_the_torus_cycle():
    r = run("tree", "--fixture", "torus4")
    assert r.exit_code == 0
    trees = payload(r)["trees"]
    assert all(t["connected"] and not t["acyclic"] for t in trees)


def test_reports_are_byte_deterministic():
    for args in (
        ("dual", "--fixture", "grid2"),
        ("tree", "--fixture", "book3"),
        ("mirrors", "--fixture", "gdelta2"),
        ("contract", "--fixture", "sq1", "--seed", "9"),
    ):
        first = run(*args)
        second = run(*args)
        assert first.output == second.output
        assert first.output.endswith("\n")

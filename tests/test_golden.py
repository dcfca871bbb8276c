"""Golden digests of the command line reports and artifacts.

Each case runs one subcommand in-process and compares its exit code, the
SHA-256 of its stdout and the SHA-256 of its ``--out`` artifact with the
record in ``tests/golden/cli.json``. The ``help`` cases digest ``--help`` of
the group and of every subcommand, at a fixed terminal width of 80 columns, so
the text does not depend on the terminal. Refactors must leave every digest
unchanged. The file is written by running this module as a script,
``PYTHONPATH=src python tests/test_golden.py``, and only ever from code whose
outputs are the reference.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from cubemill.cli import main
from cubemill.fixtures import FIXTURE_NAMES

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

TRIANGLE = '{"kind": "simplicial", "maximal": [[0, 1, 2]]}'
COLORS = '{"kind": "folding", "labels": [[0, 0], [1, 1], [2, 2]]}'
# random_loop(build_dual(grid2), random.Random(3)), as in test_cli
GRID2_LOOP = "7,20,24,17,23,19,23,17,7"

REPORTS = ("validate", "links", "check-npc", "hyperplanes", "special-check", "mirrors", "tree")
ARTIFACTS = ("barsub", "fold", "dual")


def _cases():
    """Case id -> list of (argv, writes an artifact) steps; ``{d}`` in an
    argument stands for the case's working directory."""
    cases = {}
    for name in FIXTURE_NAMES:
        for sub in REPORTS:
            cases[f"{sub}/{name}"] = [([sub, "--fixture", name], False)]
        for sub in ARTIFACTS:
            cases[f"{sub}/{name}"] = [([sub, "--fixture", name], True)]
        cases[f"contract-seed0/{name}"] = [
            (["contract", "--fixture", name, "--seed", "0"], False)
        ]
        cases[f"fixture/{name}"] = [(["fixture", name], True)]
    cases["fixture/list"] = [(["fixture"], False)]
    cases["help/main"] = [(["--help"], False)]
    for sub in main.commands:
        cases[f"help/{sub}"] = [([sub, "--help"], False)]
    triangle = ["gromov", "--in", "{d}/triangle.json"]
    cases["gromov/triangle-colored"] = [
        (triangle + ["--folding", "{d}/colors.json", "--verify"], True)
    ]
    cases["gromov/triangle"] = [(triangle + ["--verify"], True)]
    loop = ["--fixture", "grid2", "--loop", GRID2_LOOP]
    cases["roundtrip/grid2"] = [
        (["contract"] + loop + ["--verify"], True),
        (["verify"] + loop + ["--cert", "{d}/artifact"], False),
    ]
    return cases


CASES = _cases()


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def run_case(case_id, workdir):
    """Run every step of one case in ``workdir`` and digest what it wrote."""
    (workdir / "triangle.json").write_text(TRIANGLE)
    (workdir / "colors.json").write_text(COLORS)
    out = workdir / "artifact"
    runner = CliRunner()
    records = []
    for argv, writes in CASES[case_id]:
        argv = [arg.format(d=workdir) for arg in argv]
        if writes:
            argv += ["--out", str(out)]
        result = runner.invoke(main, argv, catch_exceptions=False, terminal_width=80)
        records.append(
            {
                "exit": result.exit_code,
                "stdout": _digest(result.stdout_bytes),
                "artifact": _digest(out.read_bytes()) if writes and out.exists() else None,
            }
        )
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_output_matches_golden(case_id, golden, tmp_path):
    assert run_case(case_id, tmp_path) == golden[case_id]


if __name__ == "__main__":
    records = {}
    for case_id in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            records[case_id] = run_case(case_id, Path(d))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(records)} cases to {GOLDEN}\n")

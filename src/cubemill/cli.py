"""Command line front end.

Every subcommand prints one canonical JSON report to stdout; ``--out`` writes
the subcommand's artifact (a complex, folding, or certificate file) next to
it, and the artifact is serialized only then. Reports are byte-deterministic:
payloads are dumped with sorted keys and all listings use canonical order.
Exit codes: 0 clean, 1 property failure or honest refusal, 2 usage or parse
error.

Each subcommand imports the library modules it uses when it runs, so a
process loads only those: ``validate --in`` reads ``complexes``, ``formats``
and ``errors``, and ``--fixture`` adds ``fixtures``.
"""

import sys
from functools import wraps
from pathlib import Path

import click

from . import formats
from .complexes import SimplicialComplex
from .errors import CellNotFound, CubemillError, FormatError, NotAdmissible, UnlabeledVertex

USAGE_ERRORS = (FormatError, CellNotFound, UnlabeledVertex)


def _emit(payload, code=0, out=None, artifact=None):
    """Print the report and exit with ``code``; with ``out``, first write the
    text that ``artifact``, a function of no arguments, serializes."""
    if out is not None and artifact is not None:
        Path(out).write_text(artifact())
    click.echo(formats.dumps_json(payload), nl=False)
    sys.exit(code)


def _reporting(command):
    """Report each ``CubemillError`` as JSON: exit 2 for ``USAGE_ERRORS``, else 1."""

    @wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except USAGE_ERRORS as e:
            _emit({"error": type(e).__name__, "detail": str(e)}, code=2)
        except CubemillError as e:
            _emit({"error": type(e).__name__, "detail": str(e)}, code=1)

    return run


def _fixture(name):
    from .fixtures import fixture

    try:
        return fixture(name)
    except KeyError as e:
        raise click.UsageError(str(e)) from None


def _read_text(path):
    """The text of a UTF-8 file; other bytes are a ``FormatError`` that names
    the offset of the first bad one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8: {e.reason} at byte {e.start}") from None


def _load_complex(fixture_name, in_path, simplicial_ok=False):
    """Resolve the input complex and the folding labels that came with it.

    Only subcommands that pass ``simplicial_ok`` take a simplicial file; for
    the others it is a usage error.
    """
    if (fixture_name is None) == (in_path is None):
        raise click.UsageError("provide exactly one of --fixture or --in")
    if fixture_name is not None:
        f = _fixture(fixture_name)
        return f.complex, f.labels
    X = formats.parse_complex(_read_text(in_path))
    if isinstance(X, SimplicialComplex) and not simplicial_ok:
        raise FormatError("this subcommand wants a cubical or cw complex", field="kind")
    return X, None


def _resolve_labels(X, own_labels, folding_path):
    """A verified folding for ``X``: an explicit file wins, then the labels
    shipped with the input, then a fresh search."""
    from .folding import assert_folding, find_folding

    if folding_path is not None:
        labels = formats.parse_folding(_read_text(folding_path))
        assert_folding(X, labels)
        return labels, "file"
    if own_labels is not None:
        return own_labels, "fixture"
    return find_folding(X), "computed"


def _counts(X):
    return {str(d): n for d, n in X.counts().items()}


def _parse_loop(text):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise click.UsageError(f"--loop wants comma-separated integers, got {text!r}")


_fixture_opt = click.option("--fixture", "fixture_name", type=str, default=None)
_in_opt = click.option(
    "--in", "in_path", type=click.Path(exists=True, dir_okay=False), default=None
)
_folding_opt = click.option(
    "--folding", "folding_path", type=click.Path(exists=True, dir_okay=False), default=None
)
_out_opt = click.option("--out", type=click.Path(dir_okay=False), default=None)


@click.group()
def main():
    """Foldable cubical complexes, hyperbolization, duals, and loop surgery."""


@main.command()
@_fixture_opt
@_in_opt
@_reporting
def validate(fixture_name, in_path):
    """Check admissibility of a complex and report the findings."""
    from .complexes import verify_cw

    try:
        X, _labels = _load_complex(fixture_name, in_path)
    except NotAdmissible as e:
        _emit(e.args[0].to_payload(), code=1)
    report = verify_cw(X)
    payload = report.to_payload()
    payload["kind"] = X.kind
    payload["counts"] = _counts(X)
    _emit(payload, code=0 if report.ok else 1)


@main.command("barsub")
@_fixture_opt
@_in_opt
@_out_opt
@_reporting
def barsub_cmd(fixture_name, in_path, out):
    """Barycentric subdivision; the artifact is a simplicial complex file."""
    from .complexes import barsub

    X, _labels = _load_complex(fixture_name, in_path, simplicial_ok=True)
    B = barsub(X)
    payload = {
        "counts": _counts(B),
        "dim": B.dim,
    }
    _emit(payload, out=out, artifact=lambda: formats.serialize_complex(B))


@main.command()
@_fixture_opt
@_in_opt
@_folding_opt
@_out_opt
@_reporting
def fold(fixture_name, in_path, folding_path, out):
    """Find a folding, or verify one supplied with --folding."""
    X, own = _load_complex(fixture_name, in_path)
    labels, source = _resolve_labels(X, own, folding_path)
    payload = {
        "ok": True,
        "source": source,
        "labels": formats.folding_rows(labels),
    }
    _emit(payload, out=out, artifact=lambda: formats.serialize_folding(labels))


@main.command()
@_in_opt
@_folding_opt
@click.option("--verify", "do_verify", is_flag=True, default=False)
@_out_opt
@_reporting
def gromov(in_path, folding_path, do_verify, out):
    """Hyperbolize a simplicial complex; the artifact is the result complex."""
    from .gromov import gromov_hyperbolize, verify_gromov_properties

    if in_path is None:
        raise click.UsageError("gromov wants --in with a simplicial complex file")
    K = formats.parse_complex(_read_text(in_path))
    if not isinstance(K, SimplicialComplex):
        raise FormatError("gromov wants a simplicial complex", field="kind")
    labels = None
    if folding_path is not None:
        labels = formats.parse_folding(_read_text(folding_path))
    r = gromov_hyperbolize(K, labels)
    payload = {
        "counts": _counts(r.complex),
        "folding": formats.folding_rows(r.folding),
        "tiles": len(r.tiles),
    }
    code = 0
    if do_verify:
        report = verify_gromov_properties(r)
        payload["checks"] = report.to_payload()["checks"]
        code = 0 if report.ok else 1
    _emit(payload, code=code, out=out, artifact=lambda: formats.serialize_complex(r.complex))


@main.command()
@_fixture_opt
@_in_opt
@_reporting
def links(fixture_name, in_path):
    """Per-vertex link report: simplicial and flag verdicts."""
    from .complexes import flag_failure, link_masks

    X, _labels = _load_complex(fixture_name, in_path)
    rows = []
    clean = True
    for v in X.vertices:
        edges, faces, bigons = link_masks(X, v)
        witness = flag_failure(faces)
        clean = clean and not bigons and witness is None
        counts = {}
        for f in faces:
            d = str(f.bit_count() - 1)
            counts[d] = counts.get(d, 0) + 1
        rows.append(
            {
                "vertex": v,
                "simplicial": not bigons,
                "flag": witness is None,
                "witness": [edges[k] for k in witness or ()],
                "counts": counts,
            }
        )
    _emit({"ok": clean, "links": rows}, code=0 if clean else 1)


@main.command("check-npc")
@_fixture_opt
@_in_opt
@_reporting
def check_npc_cmd(fixture_name, in_path):
    """Link condition for nonpositive curvature."""
    from .curvature import check_npc

    X, _labels = _load_complex(fixture_name, in_path)
    report = check_npc(X)
    _emit(report.to_payload(), code=0 if report.ok else 1)


@main.command("hyperplanes")
@_fixture_opt
@_in_opt
@_folding_opt
@_reporting
def hyperplanes_cmd(fixture_name, in_path, folding_path):
    """Edge classes under square opposition, with folding coordinates."""
    from .curvature import hyperplane_coordinate, hyperplanes

    X, own = _load_complex(fixture_name, in_path)
    labels, _source = _resolve_labels(X, own, folding_path)
    rows = []
    ok = True
    for hp in hyperplanes(X):
        row = hp.to_payload()
        try:
            row["coordinate"] = hyperplane_coordinate(X, labels, hp)
        except ValueError as e:
            row["coordinate"] = None
            row["error"] = str(e)
            ok = False
        rows.append(row)
    _emit({"ok": ok, "hyperplanes": rows}, code=0 if ok else 1)


@main.command("special-check")
@_fixture_opt
@_in_opt
@_reporting
def special_check(fixture_name, in_path):
    """Hyperplane pathology scan: self-intersection and osculation."""
    from .curvature import check_special

    X, _labels = _load_complex(fixture_name, in_path)
    report = check_special(X)
    _emit(report.to_payload(), code=0 if report.ok else 1)


@main.command("mirrors")
@_fixture_opt
@_in_opt
@_folding_opt
@_reporting
def mirrors_cmd(fixture_name, in_path, folding_path):
    """Mirror listing with separation verdicts."""
    from .folding import mirror_separates, mirrors

    X, own = _load_complex(fixture_name, in_path)
    labels, _source = _resolve_labels(X, own, folding_path)
    rows = []
    for M in mirrors(X, labels):
        sep = mirror_separates(X, M)
        row = M.to_payload()
        row["separates"] = sep.separates
        row["components"] = sep.n_components
        row["framings"] = sep.framing_count
        rows.append(row)
    _emit({"mirrors": rows})


@main.command()
@_fixture_opt
@_in_opt
@_out_opt
@_reporting
def dual(fixture_name, in_path, out):
    """Dual complex with height axioms; the artifact is the dual complex."""
    from .dual import build_dual, verify_dual_axioms

    X, _labels = _load_complex(fixture_name, in_path)
    D = build_dual(X)
    report = verify_dual_axioms(D)
    payload = D.to_payload()
    payload.update(report.to_payload())
    _emit(
        payload,
        code=0 if report.ok else 1,
        out=out,
        artifact=lambda: formats.serialize_complex(D.complex),
    )


@main.command()
@_fixture_opt
@_in_opt
@_folding_opt
@click.option("--loop", "loop_text", type=str, default=None)
@click.option("--verify", "do_verify", is_flag=True, default=False)
@click.option("--seed", type=int, default=0)
@_out_opt
@_reporting
def contract(fixture_name, in_path, folding_path, loop_text, do_verify, seed, out):
    """Contract a loop in the dual complex, emitting a certificate.

    Without --loop, runs a seeded suite of 100 random loops and reports the
    aggregate outcome.
    """
    from .dual import build_dual
    from .surgery import (
        Split,
        check_edge_path,
        contract_loop,
        crossings,
        is_loop,
        random_loop,
        surgery_context,
        touched_mirrors,
        verify_certificate,
    )

    X, own = _load_complex(fixture_name, in_path)
    labels, _source = _resolve_labels(X, own, folding_path)
    D = build_dual(X)
    loop = _parse_loop(loop_text)
    if loop is None:
        import random

        rng = random.Random(seed)
        depth_max = 0
        for _ in range(100):
            p = random_loop(D, rng)
            cert = contract_loop(D, p, labels)
            if not verify_certificate(D, p, cert):
                _emit({"ok": False, "seed": seed, "loop": list(p)}, code=1)
            # split nesting depth, on an explicit stack
            todo = [(cert, 0)]
            while todo:
                c, d = todo.pop()
                if isinstance(c, Split):
                    todo += ((c.left, d + 1), (c.right, d + 1))
                else:
                    depth_max = max(depth_max, d)
        _emit({"ok": True, "loops": 100, "seed": seed, "max_split_depth": depth_max})
    try:
        p = check_edge_path(D, loop)
    except ValueError as e:
        _emit({"error": "BadLoop", "detail": str(e)}, code=2)
    if not is_loop(p):
        detail = f"only loops contract: the path starts at {p[0]} and ends at {p[-1]}"
        _emit({"error": "BadLoop", "detail": detail}, code=2)
    cert = contract_loop(D, p, labels)
    ctx = surgery_context(D, labels)
    mu = sum(crossings(ctx, p, ctx.mirrors[i]).count for i in touched_mirrors(ctx, p))
    payload = {
        "ok": True,
        "loop": list(p),
        "length": len(p) - 1,
        "crossings": mu,
    }
    if do_verify:
        payload["verified"] = verify_certificate(D, p, cert)
        if not payload["verified"]:
            _emit(payload, code=1)
    _emit(payload, out=out, artifact=lambda: formats.serialize_certificate(cert))


@main.command()
@_fixture_opt
@_in_opt
@click.option("--loop", "loop_text", type=str, required=True)
@click.option(
    "--cert", "cert_path", type=click.Path(exists=True, dir_okay=False), required=True
)
@_reporting
def verify(fixture_name, in_path, loop_text, cert_path):
    """Replay a contraction certificate without trusting its producer."""
    from .dual import build_dual
    from .surgery import verify_certificate

    X, _labels = _load_complex(fixture_name, in_path)
    D = build_dual(X)
    loop = _parse_loop(loop_text)
    cert = formats.parse_certificate(_read_text(cert_path))
    valid = verify_certificate(D, loop, cert)
    _emit({"valid": valid}, code=0 if valid else 1)


@main.command()
@_fixture_opt
@_in_opt
@_folding_opt
@_reporting
def tree(fixture_name, in_path, folding_path):
    """Mirror/chamber decomposition per folding coordinate, with verdicts."""
    from .decomposition import build_all_trees

    X, own = _load_complex(fixture_name, in_path)
    labels, _source = _resolve_labels(X, own, folding_path)
    payload = {"trees": [t.to_payload() for t in build_all_trees(X, labels)]}
    _emit(payload)


@main.command("fixture")
@click.argument("name", required=False)
@_out_opt
@_reporting
def fixture_cmd(name, out):
    """Describe a built-in fixture, or list them all."""
    from .fixtures import FIXTURE_NAMES, fixture

    def describe(f):
        return {
            "name": f.name,
            "description": f.description,
            "dim": f.complex.dim,
            "counts": _counts(f.complex),
            "simply_connected": f.simply_connected,
        }

    if name is None:
        _emit({"fixtures": [describe(fixture(n)) for n in FIXTURE_NAMES]})
    f = _fixture(name)
    payload = describe(f)
    payload["labels"] = formats.folding_rows(f.labels)
    _emit(payload, out=out, artifact=lambda: formats.serialize_complex(f.complex))


if __name__ == "__main__":
    main()

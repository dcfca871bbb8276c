"""The four workloads: analyze, contract, replay and cli.

Every verdict is checked against an answer known without running cubemill:
closed-form cell, mirror and hyperplane counts of boxes and tori, the
separation and tree facts of contractible complexes, replay of certificates
and provably broken copies of them, and the CLI's exit-code contract.
"""

import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from spans import direct

from cubemill import (
    complexes,
    curvature,
    decomposition,
    dual,
    fixtures,
    folding,
    formats,
    gromov,
    surgery,
)

SRC = Path(__file__).resolve().parent.parent / "src"
WORK = Path(__file__).resolve().parent / "out"
MOVE_WORDS = ("backtrack", "slide", "rotate")


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _fit_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def _loops_by_class(D, boxes, size, rng, max_len, quota, batch=400):
    """Loops from ``surgery.random_loop``, a fixed number per crossing class.

    ``quota`` maps each class, named by its least geometric crossing count
    (the largest class takes every larger count; 0 must be a class), to the
    number of loops wanted. Candidates are drawn ``batch`` at a time, so the
    work is the same for every seed unless a class comes up short, which at
    the quotas below is vanishingly rare.
    """
    classes = sorted(quota)
    buckets = {c: [] for c in classes}
    while any(len(buckets[c]) < quota[c] for c in classes):
        for _ in range(batch):
            p = surgery.random_loop(D, rng, max_len)
            n = inputs.crossing_count(boxes, size, p)
            buckets[max(c for c in classes if c <= n)].append(p)
    return [p for c in classes for p in buckets[c][: quota[c]]]


def _smoke_quota(quota):
    return {c: min(q, 1) for c, q in quota.items()}


def _clear_memo(memo):
    clear = getattr(memo, "cache_clear", None)
    if clear is not None:
        clear()


def _cert_counts(text):
    lines = text.splitlines()
    splits = sum(1 for ln in lines if ln.startswith("split "))
    moves = sum(1 for ln in lines if ln.split(" ", 1)[0] in MOVE_WORDS)
    return splits, moves, len(text.encode())


def tamper(text):
    """Drop the final move of the last non-empty chain.

    Only backtracks shorten a loop, so the final move of a chain that ends at
    a constant loop is a backtrack from a loop of length 2; without it the
    chain ends non-constant and replay must reject.
    """
    lines = text.splitlines()
    for i in range(len(lines) - 1, 0, -1):
        if lines[i] == "end" and lines[i - 1].split(" ", 1)[0] in MOVE_WORDS:
            return "\n".join(lines[: i - 1] + lines[i:]) + "\n"
    raise ValueError("certificate has no moves to drop")


@dataclass
class State:
    items: list
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


class Workload:
    few_inputs = False  # report each input's median latency in the info line
    rss_of = resource.RUSAGE_SELF

    def reset_caches(self):
        """Drop cubemill's per-process memos so each setup repeat pays for them."""
        models = getattr(gromov, "_models", None)
        if models is not None:
            models.clear()
        _clear_memo(fixtures.fixture)
        _clear_memo(getattr(complexes, "_subface_sets", None))

    def before_pass(self):
        pass

    def nested_spans(self):
        return []

    def teardown(self, state):
        pass

    def info(self, state, phase):
        return {}

    def input_medians_ms(self, state, phase):
        """Median latency per named input, for workloads with few inputs."""
        if not self.few_inputs:
            return None
        runs = {}
        for i, x in enumerate(phase.latencies):
            runs.setdefault(self.input_name(state.items[i % len(state.items)]), []).append(x)
        return {k: round(1000 * statistics.median(v), 3) for k, v in sorted(runs.items())}


# ---------------------------------------------------------------------------
# analyze: the full check pipeline over a batch of complexes


@dataclass(frozen=True)
class Complex:
    name: str
    text: str
    shape: object  # inputs.Shape for cubical inputs, None for simplicial
    boundary_of: int  # m for the boundary of the m-simplex, else 0


class Analyze(Workload):
    """Each item is one complex through every check the library offers."""

    few_inputs = True
    GRIDS = (8, 12, 16, 20)

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        grids = (4, 6) if smoke else self.GRIDS
        items = self._batch(grids, not smoke, rng)
        if not smoke:
            # One untimed run over the smoke batch, with fixed labels, so lazy
            # imports and per-dimension tables are in place before the first
            # timed pass, which would otherwise run slower than later ones.
            warm = State(self._batch((4, 6), False, random.Random(0)))
            for item in warm.items:
                self.run(warm, item, direct)
        rng.shuffle(items)
        return State(items, extra={"grids": [f"grid{n}" for n in grids]})

    def _batch(self, grids, full, rng):
        shapes = [inputs.grid(n, rng) for n in grids]
        if full:
            shapes += [
                inputs.strip(64, rng),
                inputs.cube_grid(3, rng),
                inputs.cube_grid(4, rng),
                inputs.torus(8, rng),
            ]
        else:
            shapes += [inputs.strip(4, rng), inputs.cube_grid(2, rng), inputs.torus(4, rng)]
        items = []
        for sh in shapes:
            X = complexes.CubicalComplex.from_maximal_cells(sh.cells, check=False)
            items.append(Complex(sh.name, formats.serialize_complex(X), sh, 0))
        for m in (2, 3) if full else (2,):
            K = complexes.SimplicialComplex(inputs.simplex_boundary(m, rng))
            items.append(Complex(f"boundary{m}", formats.serialize_complex(K), None, m))
            gromov.model(m - 1)  # the hyperbolizing model the item will use
        return items

    def input_name(self, item):
        return item.name

    def before_pass(self):
        # Validation memoizes face sets by corner array, which a second pass
        # over the same complexes would find warm; a batch sees each complex
        # once, so every pass starts cold.
        _clear_memo(getattr(complexes, "_subface_sets", None))

    def nested_spans(self):
        return [(complexes, "validate_cubical", "complexes.validate_cubical", None)]

    def run(self, state, item, call):
        out = {}
        X = call("formats.parse_complex", formats.parse_complex, item.text)
        if item.boundary_of:
            r = call("gromov.gromov_hyperbolize", gromov.gromov_hyperbolize, X, None)
            out["gromov"] = call(
                "gromov.verify_gromov_properties", gromov.verify_gromov_properties, r
            )
            out["tiles"] = len(r.tiles)
            X, labels = r.complex, r.folding
            out["cw"] = call("complexes.verify_cw", complexes.verify_cw, X)
        else:
            out["cw"] = call("complexes.verify_cw", complexes.verify_cw, X)
            labels = call("folding.find_folding", folding.find_folding, X)
        D = call("dual.build_dual", dual.build_dual, X)
        out["dual"] = call("dual.verify_dual_axioms", dual.verify_dual_axioms, D)
        ms = call("folding.mirrors", folding.mirrors, X, labels)
        out["separates"] = [
            call("folding.mirror_separates", folding.mirror_separates, X, M).separates
            for M in ms
        ]
        out["npc"] = call("curvature.check_npc", curvature.check_npc, X)
        out["special"] = call("curvature.check_special", curvature.check_special, X)
        out["hyperplanes"] = call("curvature.hyperplanes", curvature.hyperplanes, X)
        out["trees"] = call(
            "decomposition.build_all_trees", decomposition.build_all_trees, X, labels
        )
        out["X"], out["labels"], out["D"] = X, labels, D
        return out

    def check(self, state, item, out):
        X, sh = out["X"], item.shape
        bad = []

        def want(cond, what):
            if not cond:
                bad.append(f"{item.name}: {what}")

        want(out["cw"].ok, "verify_cw found problems")
        want(folding.verify_folding(X, out["labels"]) is None, "folding is invalid")
        want(out["dual"].ok, "dual axioms fail")
        want(
            out["D"].complex.counts().get(0) == len(X.cells),
            "dual vertices are not the source cells",
        )
        want(out["npc"].ok, "link condition fails")
        seps = out["separates"]
        if sh is not None:
            want(X.counts() == sh.counts, f"counts {X.counts()} != {sh.counts}")
            want(len(seps) == sh.mirrors, f"{len(seps)} mirrors != {sh.mirrors}")
            want(
                len(out["hyperplanes"]) == sh.hyperplanes,
                f"{len(out['hyperplanes'])} hyperplanes != {sh.hyperplanes}",
            )
            want(out["special"].ok, "box or torus hyperplanes are not special")
            if sh.contractible:
                want(all(seps), "a mirror of a contractible box does not separate")
                want(all(t.is_tree for t in out["trees"]), "a decomposition is not a tree")
            else:
                want(not all(seps), "every torus mirror separates")
        else:
            m = item.boundary_of
            want(out["gromov"].ok, "hyperbolization properties fail")
            want(
                out["tiles"] == inputs.barsub_top_faces(m),
                f"{out['tiles']} tiles != {inputs.barsub_top_faces(m)}",
            )
            want(X.dim == m - 1, f"dimension {X.dim} != {m - 1}")
            if m == 2:  # a circle: no point separates it
                want(not any(seps), "a point separates the hyperbolized circle")
        digest = _digest(
            (
                sorted(X.counts().items()),
                seps,
                out["npc"].ok,
                out["special"].ok,
                len(out["hyperplanes"]),
                [t.is_tree for t in out["trees"]],
            )
        )
        return bad, digest

    def layer_metrics(self, state, phase, tracer):
        passes = phase.attempted / len(state.items)
        metrics = {}
        for name in ANALYZE_STAGES:
            _calls, _incl, own = tracer.totals(name)
            metrics[f"{name}.s"] = own / 1e9 / passes
        # scaling over the grid family in the first pass (item i is input i)
        grids = state.extra["grids"]
        for stage in ("complexes.validate_cubical", "folding.mirror_separates",
                      "dual.verify_dual_axioms"):
            per_item = tracer.by_item(stage)
            points = [
                (item.shape.n_cells, per_item[i][1])
                for i, item in enumerate(state.items)
                if item.name in grids and i in per_item
            ]
            if len(points) >= 2:
                metrics[f"{stage}.exp"] = _fit_slope(*zip(*points))
        return metrics


ANALYZE_STAGES = [
    "formats.parse_complex",
    "complexes.validate_cubical",
    "complexes.verify_cw",
    "folding.find_folding",
    "folding.mirrors",
    "folding.mirror_separates",
    "gromov.gromov_hyperbolize",
    "gromov.verify_gromov_properties",
    "curvature.check_npc",
    "curvature.check_special",
    "curvature.hyperplanes",
    "dual.build_dual",
    "dual.verify_dual_axioms",
    "decomposition.build_all_trees",
]


# ---------------------------------------------------------------------------
# contract: one loop through contraction and certificate round trip


class Contract(Workload):
    """Each item is one seeded loop on a 6 by 6 grid or a 3 by 3 by 3 cube
    grid, 100 loops each, contracted and replayed from its text."""

    # Loops per crossing class (none, two, four or more) in the pool of each
    # complex, in the shares 3000 draws of random_loop(max_len=12) gave:
    # 35/52/14 % on the grid and 51/43/6 % on the cube grid. A loop's cost
    # follows its class, so fixed counts keep the mix the same for every seed.
    QUOTAS = ({0: 35, 2: 51, 4: 14}, {0: 51, 2: 43, 4: 6})

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        spaces, items = [], []
        shapes = (inputs.grid(6, None), inputs.cube_grid(3, None))
        for k, (sh, quota) in enumerate(zip(shapes, self.QUOTAS)):
            X = complexes.CubicalComplex.from_maximal_cells(sh.cells)
            labels = folding.find_folding(X)
            D = dual.build_dual(X)
            D.skeleton()
            # fill lazy indexes with the same loop for every seed
            surgery.contract_loop(D, surgery.random_loop(D, random.Random(0), 12), labels)
            quota = _smoke_quota(quota) if smoke else quota
            boxes = inputs.cell_boxes(X, sh.coords)
            items += [(k, p) for p in _loops_by_class(D, boxes, sh.size, rng, 12, quota)]
            spaces.append((D, labels))
        rng.shuffle(items)
        state = State(items, extra={"spaces": spaces})
        for D, labels in spaces:
            if folding.verify_folding(D.source, labels) is not None:
                state.problems.append("folding found in setup is invalid")
        return state

    def nested_spans(self):
        def crossing_hit(_args, result):
            return {"hit": result.count > 0}

        def which_mirror(args, _result):
            return {"mirror": args[1].index}

        return [
            (surgery, "crossings", "surgery.crossings", crossing_hit),
            (surgery, "mirror_separates", "folding.mirror_separates", which_mirror),
            (surgery, "dual_mirror", "dual.dual_mirror", None),
            (surgery, "tops_containing", "dual.tops_containing", None),
        ]

    def run(self, state, item, call):
        k, p = item
        D, labels = state.extra["spaces"][k]
        cert = call("surgery.contract_loop", surgery.contract_loop, D, p, labels)
        text = call("formats.serialize_certificate", formats.serialize_certificate, cert)
        back = call("formats.parse_certificate", formats.parse_certificate, text)
        ok = call("surgery.verify_certificate", surgery.verify_certificate, D, p, back)
        return text, back, ok

    def check(self, state, item, out):
        text, back, ok = out
        bad = []
        if ok is not True:
            bad.append("certificate does not replay")
        if formats.serialize_certificate(back) != text:
            bad.append("certificate text does not round-trip")
        return bad, text

    def layer_metrics(self, state, phase, tracer):
        loops = phase.attempted
        m = {}
        _c, incl, own = tracer.totals("surgery.contract_loop")
        m["surgery.contract_loop.self_s"] = own / 1e9 / loops
        calls, _i, _o = tracer.totals("surgery.crossings")
        hits = sum(
            1 for s in tracer.spans
            if s.name == "surgery.crossings" and s.attrs and s.attrs["hit"]
        )
        m["surgery.crossings.calls_per_loop"] = calls / loops
        m["surgery.crossings.hit_ratio"] = hits / calls if calls else 0.0
        distinct = {}
        for s in tracer.spans:
            if s.name == "folding.mirror_separates" and s.attrs:
                distinct.setdefault(s.item, set()).add(s.attrs["mirror"])
        calls, _i, _o = tracer.totals("folding.mirror_separates")
        m["folding.mirror_separates.calls_per_loop"] = calls / loops
        n_distinct = sum(len(v) for v in distinct.values())
        m["folding.mirror_separates.repeat_ratio"] = calls / n_distinct if n_distinct else 0.0
        calls, incl, _o = tracer.totals("dual.dual_mirror")
        m["dual.dual_mirror.calls_per_loop"] = calls / loops
        m["dual.dual_mirror.s_per_loop"] = incl / 1e9 / loops
        calls, _i, _o = tracer.totals("dual.tops_containing")
        m["dual.tops_containing.calls_per_loop"] = calls / loops
        rows = [_cert_counts(t) for t in phase.digests[: len(state.items)] if t is not None]
        m["surgery.splits_per_loop"] = statistics.fmean(r[0] for r in rows)
        m["surgery.moves_per_loop"] = statistics.fmean(r[1] for r in rows)
        m["surgery.cert_bytes_per_loop"] = statistics.fmean(r[2] for r in rows)
        return m

    def info(self, state, phase):
        # the first pass is the same for every run of a seed
        return {"cert_sha256": _texts_sha(phase.digests[: len(state.items)])}


def _texts_sha(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update((t or "").encode())  # a failed item contributes nothing
    return h.hexdigest()


# ---------------------------------------------------------------------------
# replay: certificates read and checked, originals and broken copies


class Replay(Workload):
    """Each item parses and replays one certificate of a deep loop on a
    4 by 4 grid; half the items are copies with the final move dropped."""

    # Per max_len, 15 loops split over crossing classes (none, two, four,
    # six, eight or more) in the shares 3000 random_loop draws gave on this
    # grid: 11/39/37/12/2 %, 5/25/38/25/7 % and 3/15/31/33/18 %. Replay cost
    # follows the split depth, which follows the class.
    QUOTAS = {
        24: {0: 2, 2: 6, 4: 5, 6: 2, 8: 0},
        32: {0: 1, 2: 4, 4: 6, 6: 3, 8: 1},
        40: {0: 0, 2: 2, 4: 5, 6: 5, 8: 3},
    }

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        sh = inputs.grid(4, None)
        X = complexes.CubicalComplex.from_maximal_cells(sh.cells)
        labels = folding.find_folding(X)
        D = dual.build_dual(X)
        boxes = inputs.cell_boxes(X, sh.coords)
        loops = []
        for max_len, quota in self.QUOTAS.items():
            quota = _smoke_quota(quota) if smoke else quota
            loops += _loops_by_class(D, boxes, sh.size, rng, max_len, quota)
        texts = []
        items = []
        for p in loops:
            text = formats.serialize_certificate(surgery.contract_loop(D, p, labels))
            texts.append(text)
            items.append((p, text, True))
            items.append((p, tamper(text), False))
        rng.shuffle(items)
        return State(items, extra={"D": D, "texts": texts})

    def run(self, state, item, call):
        p, text, _expect = item
        try:
            cert = call("formats.parse_certificate", formats.parse_certificate, text)
        except formats.FormatError:
            return "FormatError"
        return call(
            "surgery.verify_certificate", surgery.verify_certificate, state.extra["D"], p, cert
        )

    def check(self, state, item, out):
        _p, _text, expect = item
        if expect:
            ok = out is True
        else:
            ok = out is False or out == "FormatError"
        return ([] if ok else [f"replay gave {out!r}, expected valid={expect}"]), out

    def layer_metrics(self, state, phase, tracer):
        m = {}
        for name in ("formats.parse_certificate", "surgery.verify_certificate"):
            calls, _incl, own = tracer.totals(name)
            m[f"{name}.us"] = own / 1e3 / calls
        tampered = rejected = 0
        for i, digest in enumerate(phase.digests):
            if not state.items[i % len(state.items)][2]:
                tampered += 1
                rejected += digest is not True
        m["surgery.verify_certificate.reject_ratio"] = rejected / tampered
        return m

    def info(self, state, phase):
        return {"cert_sha256": _texts_sha(state.extra["texts"])}


# ---------------------------------------------------------------------------
# cli: one cubemill process per item


CLI_ENTRY = "import sys; from cubemill.cli import main; sys.exit(main())"
SUBCOMMANDS = ["validate", "fold", "mirrors", "dual", "check-npc", "tree", "contract", "verify"]


def _cli_env():
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    return env  # CUBEMILL_THREADS deliberately unset


def _spawn(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def _loop_text(p):
    return ",".join(str(v) for v in p)


def _torus_meridian(X):
    """The dual loop through the vertices and edges of one torus row."""
    n = 4
    edge = {frozenset(X.cells[e].corners): e for e in X.by_dim[1]}
    loop = []
    for x in range(n):
        loop += [X.zero_cell[x], edge[frozenset((x, (x + 1) % n))]]
    return loop + [loop[0]]


class Cli(Workload):
    """Each item runs one cubemill subcommand in a fresh interpreter."""

    few_inputs = True
    rss_of = resource.RUSAGE_CHILDREN

    def setup(self, seed, smoke):
        rng = random.Random(seed)
        work = WORK / f"cli-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        side = 4 if smoke else 10
        sh = inputs.grid(side, rng)
        X = complexes.CubicalComplex.from_maximal_cells(sh.cells, check=False)
        (work / "grid.json").write_text(formats.serialize_complex(X))

        g2 = fixtures.fixture("grid2")
        D2 = dual.build_dual(g2.complex)
        coords2 = {3 * y + x: (x, y) for x in range(3) for y in range(3)}
        boxes2 = inputs.cell_boxes(g2.complex, coords2)
        (loop,) = _loops_by_class(D2, boxes2, (2, 2), rng, 12, {0: 0, 2: 1, 4: 0})
        cert = formats.serialize_certificate(surgery.contract_loop(D2, loop, g2.labels))
        (work / "cert.txt").write_text(cert)
        meridian = _torus_meridian(fixtures.fixture("torus4").complex)

        grid = ["--in", "grid.json"]
        items = [
            ("validate", ["validate", *grid]),
            ("fold", ["fold", *grid]),
            ("mirrors", ["mirrors", *grid]),
            ("mirrors", ["mirrors", "--fixture", "torus4"]),
            ("dual", ["dual", *grid]),
            ("check-npc", ["check-npc", "--fixture", "gdelta2"]),
            ("tree", ["tree", *grid]),
            ("contract", ["contract", "--fixture", "grid2", "--loop", _loop_text(loop),
                          "--verify", "--out", "out-cert.txt"]),
            ("verify", ["verify", "--fixture", "grid2", "--loop", _loop_text(loop),
                        "--cert", "cert.txt"]),
            ("contract", ["contract", "--fixture", "torus4", "--loop", _loop_text(meridian)]),
        ]
        rng.shuffle(items)
        extra = {"work": work, "shape": sh, "D2": D2, "loop": loop, "cert": cert}
        return State(items, extra=extra)

    def input_name(self, item):
        return " ".join(item[1][:3])

    def teardown(self, state):
        if state is not None:
            shutil.rmtree(state.extra["work"], ignore_errors=True)

    def run(self, state, item, call):
        sub, args = item
        return call(f"cli.{sub}", _spawn, ["-c", CLI_ENTRY, *args], state.extra["work"])

    def check(self, state, item, proc):
        sub, args = item
        sh = state.extra["shape"]
        bad = []

        def want(cond, what):
            if not cond:
                bad.append(f"{' '.join(args[:3])}: {what}")

        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return [f"{sub}: stdout is not JSON (exit {proc.returncode}): {proc.stderr[-300:]}"], None
        torus = "torus4" in args
        want(proc.returncode == (1 if sub == "contract" and torus else 0),
             f"exit code {proc.returncode}")
        counts = {str(d): c for d, c in sh.counts.items()}
        if sub == "validate":
            want(doc.get("ok") is True and doc.get("counts") == counts, "report")
        elif sub == "fold":
            labels = {v: tuple(lab) for v, lab in doc.get("labels", [])}
            want(doc.get("ok") is True and len(labels) == counts["0"], "labels")
            want(_grid_folding_ok(sh, labels), "labels are not a folding")
        elif sub == "mirrors":
            seps = [m["separates"] for m in doc.get("mirrors", [])]
            if torus:  # 2n circles on the n by n torus, none separating
                want(len(seps) == 2 * 4 and not any(seps), "torus mirrors")
            else:
                want(len(seps) == sh.mirrors and all(seps), "grid mirrors")
        elif sub == "dual":
            by_height = Counter(doc.get("heights", {}).values())
            want(doc.get("ok") is True, "dual axioms")
            want(by_height == Counter(sh.counts), "dual vertex heights")
        elif sub == "check-npc":
            want(doc.get("ok") is True and doc.get("violations") == [], "npc report")
        elif sub == "tree":
            trees = doc.get("trees", [])
            want(len(trees) == 2 and all(t["connected"] and t["acyclic"] for t in trees),
                 "decomposition trees")
        elif sub == "contract" and torus:
            want(doc.get("error") == "Unsupported", "torus contraction not refused")
        elif sub == "contract":
            want(doc.get("ok") is True and doc.get("verified") is True, "contract report")
            written = (state.extra["work"] / "out-cert.txt").read_text()
            cert = formats.parse_certificate(written)
            want(surgery.verify_certificate(state.extra["D2"], state.extra["loop"], cert),
                 "written certificate does not replay")
        elif sub == "verify":
            want(doc.get("valid") is True, "certificate rejected")
        return bad, _digest((proc.returncode, proc.stdout))

    def layer_metrics(self, state, phase, tracer):
        work = state.extra["work"]
        start = [_wall(_spawn, ["-c", "pass"], work) for _ in range(7)]
        imported = [_wall(_spawn, ["-c", "import cubemill.cli"], work) for _ in range(7)]
        m = {
            "cli.python_start_ms": 1000 * statistics.median(start),
            "cli.import_ms": 1000 * (statistics.median(imported) - statistics.median(start)),
        }
        n = len(state.items)
        for sub in SUBCOMMANDS:
            # grid2 and the 10 by 10 grid only; the torus commands are in the
            # untraced info line under input_median_ms
            own = [
                s.end - s.start
                for s in tracer.spans
                if s.name == f"cli.{sub}" and "torus4" not in state.items[s.item % n][1]
            ]
            if own:
                m[f"cli.{sub}.p50_ms"] = statistics.median(own) / 1e6
        return m

    def info(self, state, phase):
        return {"cert_sha256": _texts_sha([state.extra["cert"]])}


def _wall(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _grid_folding_ok(sh, labels):
    """Each grid edge flips exactly one label coordinate."""
    at = {p: v for v, p in sh.coords.items()}
    for v, p in sh.coords.items():
        for a in range(len(p)):
            q = tuple(c + (i == a) for i, c in enumerate(p))
            w = at.get(q)
            if w is None:
                continue
            if v not in labels or w not in labels:
                return False
            if sum(x != y for x, y in zip(labels[v], labels[w])) != 1:
                return False
    return True


WORKLOADS = {
    "analyze": Analyze(),
    "contract": Contract(),
    "replay": Replay(),
    "cli": Cli(),
}

PER_LAYER = (
    [(f"{name}.s", "s") for name in ANALYZE_STAGES]
    + [
        ("complexes.validate_cubical.exp", "slope"),
        ("folding.mirror_separates.exp", "slope"),
        ("dual.verify_dual_axioms.exp", "slope"),
        ("surgery.contract_loop.self_s", "s"),
        ("surgery.crossings.calls_per_loop", "calls"),
        ("surgery.crossings.hit_ratio", "ratio"),
        ("folding.mirror_separates.calls_per_loop", "calls"),
        ("folding.mirror_separates.repeat_ratio", "ratio"),
        ("dual.dual_mirror.calls_per_loop", "calls"),
        ("dual.dual_mirror.s_per_loop", "s"),
        ("dual.tops_containing.calls_per_loop", "calls"),
        ("surgery.splits_per_loop", "count"),
        ("surgery.moves_per_loop", "count"),
        ("surgery.cert_bytes_per_loop", "bytes"),
        ("formats.parse_certificate.us", "us"),
        ("surgery.verify_certificate.us", "us"),
        ("surgery.verify_certificate.reject_ratio", "ratio"),
        ("cli.python_start_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    + [(f"cli.{sub}.p50_ms", "ms") for sub in SUBCOMMANDS]
    + [("trace.overhead_ratio", "ratio")]
)

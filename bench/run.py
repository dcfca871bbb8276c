"""cubemill benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --smoke

Run from the root of a checkout; the library is imported from ``src/``.
Prints one info line and then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced phase. Spans and the full result go to ``bench/out/``.
``--smoke`` runs each workload on its smallest inputs with no time budget.
See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HOST_DRIFT = 0.15  # flag a run whose host reference moved by more than this share


def src_lines():
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "cubemill").glob("*.py"))
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "cubemill" / "__init__.py").is_file():
        print(f"error: no cubemill sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    # cubemill reads this when it maps work over threads; every run is sequential
    threads_env = os.environ.pop("CUBEMILL_THREADS", None)
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    host_before = harness.host_reference_ms()
    result, info, tracer = harness.run(
        wl, args.seed, args.seconds, bool(args.trace), smoke=args.smoke
    )
    host_after = harness.host_reference_ms()
    info["host_reference_ms"] = [host_before, host_after]
    info["host_unsteady"] = abs(host_after / host_before - 1) > HOST_DRIFT
    if args.trace:
        table = workloads.PER_LAYER
    else:
        table = [(name, unit) for name, unit, _better in harness.END_TO_END]
    measured = result["metrics"]
    absent = info.get("absent", [])
    metrics, not_measured = {}, []
    for name, unit in table:
        if any(name.startswith(a + ".") for a in absent):
            continue  # the traced name is gone from the code: reported as absent
        if name not in measured:
            not_measured.append(name)  # a layer this workload does not exercise
        metrics[name] = {"value": measured.get(name, 0.0), "unit": unit}
    result["metrics"] = metrics
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
        nproc=os.cpu_count(),
        cubemill_threads_unset_from=threads_env,
        python=platform.python_version(),
        src_lines=src_lines(),
        not_measured=not_measured,
    )

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1, sort_keys=True, default=str)
    )
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.jsonl")
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop phases, end-to-end statistics and the result line.

A workload supplies ``setup(seed, smoke)`` returning a state with an
``items`` list, ``run(state, item, call)`` for the timed work of one item,
and ``check(state, item, output)`` returning ``(problems, digest)`` for the
untimed verdict check. Items run one at a time; the next starts when the
previous one has been checked.
"""

import gc
import resource
from array import array
import statistics
import time
import traceback
from contextlib import ExitStack

from spans import Tracer, direct

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
_FAILED = object()

END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]


class Phase:
    """Latencies, verdict digests and failures of one timed phase."""

    def __init__(self):
        self.latencies = array("d")  # seconds, item order; compact so it barely moves RSS
        self.digests = []
        self.failed = 0
        self.failures = []  # first few problem descriptions

    @property
    def attempted(self):
        return len(self.latencies)

    def fail(self, index, problems):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append({"item": index, "problems": problems[:3]})


def run_pass(wl, state, ph, tracer=None):
    """Run every item once, in order, recording into ``ph``."""
    wl.before_pass()
    call = direct if tracer is None else tracer.call
    for item in state.items:
        i = ph.attempted
        if tracer is not None:
            tracer.item = i
        t0 = time.perf_counter()
        try:
            out = wl.run(state, item, call)
        except Exception:  # a failing item is counted, and the run goes on
            out = _FAILED
            problems, digest = [traceback.format_exc(limit=3)], None
        ph.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.item = None
        if out is not _FAILED:
            try:
                problems, digest = wl.check(state, item, out)
            except Exception:
                problems, digest = [traceback.format_exc(limit=3)], None
        ph.digests.append(digest)
        if problems:
            ph.fail(i, problems)


def tail(latencies, n_inputs):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it.

    A sample is one input's median latency: item ``i`` ran input
    ``i % n_inputs``. Repeats of one input are not independent draws of the
    input mix, and their median drops scheduler noise, so the tail stays a
    property of the inputs. Returns (value, percentile, samples, beyond).
    With too few inputs the slowest one is reported, with 0 beyond.
    """
    runs = {}
    for i, x in enumerate(latencies):
        runs.setdefault(i % n_inputs, []).append(x)
    xs = sorted(statistics.median(v) for v in runs.values())
    n = len(xs)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, n, TAIL_BEYOND
    return xs[-1], 100.0, n, 0


def end_to_end(wl, state, ph, setup_times):
    total = sum(ph.latencies)
    value, pct, inputs, beyond = tail(ph.latencies, len(state.items))
    usage = resource.getrusage(wl.rss_of)
    metrics = {
        "items_per_s": ph.attempted / total,
        "item_p50_ms": 1000.0 * statistics.median(ph.latencies),
        "item_tail_ms": 1000.0 * value,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    info = {
        "input_median_ms": wl.input_medians_ms(state, ph),
        "samples": ph.attempted,
        "tail_inputs": inputs,
        "tail_percentile": round(pct, 3),
        "tail_inputs_beyond": beyond,
    }
    return metrics, info


def host_reference_ms(repeats=5):
    """Median time of a fixed pure-Python loop: the host's speed at the
    moment, recorded next to the results so shifts between runs can be told
    apart from changes in the program. Not a metric."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def run(wl, seed, seconds, trace, smoke=False):
    """Set up SETUP_REPEATS times, then run whole passes over the items, so
    every run sees the same mix, and stop at the pass boundary nearest to
    ``seconds``; at least one pass always runs. With ``trace``, each untraced
    pass is followed by the same pass traced, so both see the same host
    conditions, and the pair is the unit.

    Returns (result, info, tracer).
    """
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        wl.reset_caches()
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, smoke)
        setup_times.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()  # setup objects live for the whole run; keep them out of GC scans
    info = {"setup_runs_s": setup_times, "setup_problems": state.problems}
    budget = 0.0 if smoke else float(seconds)
    plain = Phase()
    traced = Phase() if trace else None
    tracer = Tracer() if trace else None

    try:
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            run_pass(wl, state, plain)
            if trace:
                with ExitStack() as stack:
                    for module, attr, name, note in wl.nested_spans():
                        stack.enter_context(tracer.wrap(module, attr, name, note))
                    run_pass(wl, state, traced, tracer)
            now = time.perf_counter()
            if now - begin >= budget - (now - t0) / 2:
                break
        if trace:
            mismatched = sum(1 for a, b in zip(plain.digests, traced.digests) if a != b)
            info["traced_verdict_mismatches"] = mismatched
            info["trace_overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
            metrics = wl.layer_metrics(state, traced, tracer)
            metrics["trace.overhead_ratio"] = info["trace_overhead_ratio"]
            info["absent"] = tracer.absent
            phases = [plain, traced]
        else:
            mismatched = 0
            metrics, stats = end_to_end(wl, state, plain, setup_times)
            info.update(stats)
            phases = [plain]
    finally:
        wl.teardown(state)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + mismatched
    info["failures"] = [f for p in phases for f in p.failures]
    info.update(wl.info(state, plain))
    result = {
        "correct": failed == 0 and not state.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info, tracer

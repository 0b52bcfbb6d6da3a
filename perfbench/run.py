"""bcres benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload xval-corpus --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; bcres is imported from ``src/``.
The workload's fixed batch of operations (one "pass") is built from the
seed and repeated until ``--seconds`` is used up, at least three times.  Every op
has a deadline and its output is checked; all passes must produce
byte-identical output, and seed 0 must reproduce the digest recorded in
``expected.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead among them.  The last stdout line is the JSON result; the line
before it describes the run (kernel backend, pass times, tail percentile).
Times are scaled to a reference speed of the machine (see speed.py); the
info line also gives the measured ones.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

OP_DEADLINE_S = 20.0
SETUPS_PER_PASS = 2
TAIL_BEYOND = 10
MIN_PASSES = 3

# Layers that must record calls in a traced pass.
BUSY_LAYERS = {
    "xval-corpus": ("kernel", "resolutions", "ideals", "complexes", "matroid", "hilbert", "decomposition"),
    "betti-powers-gfp": ("kernel", "resolutions", "hilbert", "complexes"),
    "ingest-docs": (
        "cli", "matroid", "ideals", "complexes", "hilbert",
        "decomposition", "arrangements", "graphs", "linalg",
    ),
}
# Spans that must record no calls.  ingest-docs builds no Betti table; its
# dense ranks (linalg.column_rank -> _kernel.rank_int) are expected.
IDLE_SPANS = {"ingest-docs": ("kernel.hochster_betti", "kernel.homology_ranks", "kernel.rank_sparse")}

class Deadline(Exception):
    """An operation overran OP_DEADLINE_S."""


def _on_alarm(clock):
    if clock.busy:  # let the clock settle its spans first
        signal.setitimer(signal.ITIMER_REAL, 0.01)
        return
    raise Deadline()


def parse_args(argv):
    p = argparse.ArgumentParser(description="bcres benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="a few cheap ops per workload (smoke tests)")
    return p.parse_args(argv)


def run_pass(ops, clock):
    """Run every op once; returns pass seconds, latencies, outcome counts and digest.

    ``seconds`` and ``latencies`` are scaled to the reference speed by
    ``clock`` (see speed.py); the measured ones are ``raw_seconds`` and
    ``raw_latencies``, and ``elapsed`` is the pass's whole wall time.  The
    clock calibrates after every op as well as every speed.CLOCK_EVERY_S: the
    host's state changes within milliseconds, so an op of a few
    milliseconds is scaled by the readings right before and after it.
    """
    h = hashlib.sha256()
    spans = []
    failed = wrong = inconclusive = verdicts = 0
    start = time.perf_counter()
    clock.mark()
    whole = clock.span()
    for op in ops:
        span = clock.span()
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        try:
            text, inc, ver = op.fn()
        except Deadline:
            failed += 1
            text = "DEADLINE"
            print("op overran %.0f s: %s" % (OP_DEADLINE_S, op.key[:200]), file=sys.stderr)
        except Exception:
            failed += 1
            wrong += 1
            text = "FAILED"
            print("op failed: %s" % op.key[:200], file=sys.stderr)
            traceback.print_exc()
        else:
            inconclusive += inc
            verdicts += ver
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        clock.close(span)
        clock.mark()
        spans.append(span)
        h.update(text.encode())
        h.update(b"\n")
    clock.close(whole)
    clock.mark()
    return {
        "seconds": whole.scaled,
        "latencies": [s.scaled for s in spans],
        "raw_seconds": whole.raw,
        "raw_latencies": [s.raw for s in spans],
        "elapsed": time.perf_counter() - start,
        "failed": failed,
        "wrong": wrong,
        "inconclusive": inconclusive,
        "verdicts": verdicts,
        "digest": h.hexdigest(),
    }


def median_op(passes):
    """Median over the ops of each op's median latency over the passes.

    An op of a few milliseconds runs at one of the host's speeds (see
    speed.py); its median over the passes is steadier than any one sample,
    and the median over the ops then sits on the typical op.
    """
    return statistics.median(statistics.median(op) for op in zip(*passes))


def tail(latencies, ops_per_pass):
    """(value, percentile) of the op tail.

    The percentile is the highest one that leaves TAIL_BEYOND samples beyond
    it in MIN_PASSES passes; it is read off the samples of every pass.  A
    fixed percentile keeps the op the tail lands on the same whatever the
    pass count, and each extra pass adds samples of that op.
    """
    ordered = sorted(latencies)
    base = MIN_PASSES * ops_per_pass
    if base <= TAIL_BEYOND:
        return ordered[-1], 100.0
    q = 1 - Fraction(TAIL_BEYOND, base)
    return ordered[math.ceil(q * len(ordered)) - 1], float(100 * q)


def _ours(module_name):
    return module_name in ("bcres", "workloads") or module_name.startswith("bcres.")


def repeat_setup(workload, seed, tiny, clock):
    """Time one more set-up: fresh imports of bcres and workloads, then the inputs.

    Every loaded bcres module is executed anew, so work done at import or
    cached in a module is paid again.  The fresh modules are dropped
    afterwards and the run keeps using (and tracing) the ones it imported
    first.  Returns (set-up Span, inputs digest).
    """
    saved = {k: m for k, m in sys.modules.items() if _ours(k)}
    for name in saved:
        del sys.modules[name]
    try:
        span = clock.span()
        for name in sorted(saved):
            importlib.import_module(name)
        ops = sys.modules["workloads"].build(workload, seed, tiny)
        clock.close(span)
        clock.mark()
        digest = sys.modules["workloads"].inputs_digest(ops)
    finally:
        for name in [k for k in sys.modules if _ours(k)]:
            del sys.modules[name]
        sys.modules.update(saved)
    return span, digest


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bcres", "__init__.py")):
        print("error: no bcres sources under %s" % SRC, file=sys.stderr)
        return 2
    with speed.Clock() as clock:
        signal.signal(signal.SIGALRM, lambda signum, frame: _on_alarm(clock))
        return _run(args, clock)


def _run(args, clock):
    setup = clock.span()
    sys.path.insert(0, SRC)
    import bcres

    if not os.path.abspath(bcres.__file__).startswith(SRC + os.sep):
        print("error: bcres imported from %s, not %s" % (bcres.__file__, SRC), file=sys.stderr)
        return 2
    from bcres import _kernel

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ops = workloads.build(args.workload, args.seed, args.tiny)
    clock.close(setup)
    clock.mark()
    setups = [setup]
    corpus_s = tracer.total_s("corpus.standard_corpus") if tracer else 0.0
    if tracer:
        tracer.uninstall()
        tracer.reset()
    problems = []
    digest_in = workloads.inputs_digest(ops)

    passes, traced = [], []
    budget_start = time.perf_counter()
    while True:
        if not args.trace:
            # set-ups are spread over the run, so setup_s sees the same
            # machine as the passes
            for _ in range(SETUPS_PER_PASS):
                setup, digest = repeat_setup(args.workload, args.seed, args.tiny, clock)
                if digest != digest_in:
                    problems.append("a repeated set-up generated other inputs")
                setups.append(setup)
            gc.collect()
        use_trace = bool(tracer) and (len(passes) + len(traced)) % 2 == 1
        if use_trace:
            tracer.install()
            tracer.begin_pass()
            result = run_pass(ops, clock)
            tracer.uninstall()
            traced.append(result)
        else:
            result = run_pass(ops, clock)
            passes.append(result)
        done = len(passes) + len(traced)
        elapsed = time.perf_counter() - budget_start
        typical = statistics.median(r["elapsed"] for r in passes + traced)
        if done >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    every = passes + traced
    digests = {r["digest"] for r in every}
    if len(digests) != 1:
        problems.append("passes disagree on their output")
    expected = _expected_digests().get(args.workload)
    if args.seed == 0 and not args.tiny and expected and digests != {expected}:
        problems.append("seed-0 output digest %s differs from expected.json" % sorted(digests)[0])
    wrong = sum(r["wrong"] for r in every)
    if wrong:
        problems.append("%d ops raised or failed their check" % wrong)
    attempted = sum(len(r["latencies"]) for r in every)
    failed = sum(r["failed"] for r in every)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel_backend": _kernel.BACKEND,
        "python": sys.version.split()[0],
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_seconds": [round(r["seconds"], 3) for r in passes],
        "raw_pass_seconds": [round(r["raw_seconds"], 3) for r in passes],
        "setup_seconds": [round(s.scaled, 4) for s in setups],
        "raw_setup_seconds": [round(s.raw, 4) for s in setups],
        "calibrations": len(clock.calibrations),
        "calibration_ms_quartiles": [round(1000 * q, 3) for q in statistics.quantiles(clock.calibrations, n=4)],
        "reference_calibration_ms": speed.REF_S * 1000,
        "output_digest": sorted(digests)[0],
    }
    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, len(traced))
        untraced_s = statistics.median(r["seconds"] for r in passes)
        traced_s = statistics.median(r["seconds"] for r in traced)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        metrics["corpus.standard_corpus.s"] = (corpus_s, "s")
        stats = tracer.stats
        for layer in BUSY_LAYERS.get(args.workload, ()):
            if not tracing.layer_calls(stats, layer):
                problems.append("layer %s predicted busy but recorded no calls" % layer)
        for span in IDLE_SPANS.get(args.workload, ()):
            if stats[span][0]:
                problems.append("span %s predicted idle but recorded calls" % span)
    else:
        latencies = [x for r in passes for x in r["latencies"]]
        tail_s, tail_pct = tail(latencies, len(ops))
        verdicts = sum(r["verdicts"] for r in passes)
        inconclusive = sum(r["inconclusive"] for r in passes)
        raw_latencies = [x for r in passes for x in r["raw_latencies"]]
        info.update(
            op_tail_percentile=round(tail_pct, 2),
            op_samples=len(latencies),
            raw_wall_s=statistics.median(r["raw_seconds"] for r in passes),
            raw_op_p50_ms=1000 * median_op([r["raw_latencies"] for r in passes]),
            raw_op_tail_ms=1000 * tail(raw_latencies, len(ops))[0],
        )
        metrics = {
            "setup_s": (statistics.median(s.scaled for s in setups), "s"),
            "wall_s": (statistics.median(r["seconds"] for r in passes), "s"),
            "op_p50_ms": (1000 * median_op([r["latencies"] for r in passes]), "ms"),
            "op_tail_ms": (1000 * tail_s, "ms"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "conclusive_ratio": (1 - inconclusive / verdicts if verdicts else 1.0, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _expected_digests():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())

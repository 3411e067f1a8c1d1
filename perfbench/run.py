"""Benchmark of the conelogic CLI and its compute layers.

    python3 perfbench/run.py --workload {mall,bracket,graded} --seed N \
        --seconds S --trace {0,1}

Runs one workload in this process, one thread, as a closed loop with one
caller, for about S seconds of whole rounds. Every time is normalised by
the reference loop (refloop.py) and reported in reference-speed seconds.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 each round runs untraced and then traced on the same inputs, and
the last line carries the per-layer metrics. See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, ".work")

MIN_OPS = 100  # so that ten operations lie beyond the 90th percentile
SETUP_PROBES = 9
HARD_LIMIT_S = 150.0  # stop starting rounds after this, to exit within 180 s


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("mall", "bracket", "graded"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import conelogic from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import conelogic
    except ImportError as e:
        sys.exit(f"perfbench: cannot import conelogic from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(conelogic.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        sys.exit(f"perfbench: conelogic was imported from {where}, not {SRC}")
    return conelogic


def setup_probe(args) -> None:
    """Child process: import, make the first round's inputs, report ready."""
    import_program()
    import workloads

    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workloads.ROUNDS[args.workload](args.seed, 0, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, clock) -> list[float]:
    """Normalised set-up times of fresh processes, from launch to ready."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = clock.segment(0.1)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"setup probe failed: exit {proc.returncode}")
        after = clock.segment(0.1)
        out.append((t1 - t0) * clock.factor(before, after))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    import_program()
    import checks
    import layers
    import program
    import workloads
    from refloop import RefClock

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    try:
        make_round = workloads.ROUNDS[args.workload]
        first = make_round(args.seed, 0, workdir)
        main_setup_s = time.perf_counter() - T_START
        clock = RefClock()
        setup = measure_setup(args, clock)
        caches = layers.find_caches()
        tracer = layers.Tracer() if args.trace else None
        result = measure(args, first, make_round, workdir, clock, caches, tracer,
                         program, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # not empty: another run is using it
            pass
    result["audit"]["setup_probes_s"] = setup
    result["audit"]["main_setup_raw_s"] = main_setup_s
    return report(args, result, setup, tracer)


class Stats:
    """Per-run accumulators for one pass kind (untraced or traced)."""

    def __init__(self):
        self.times = []  # normalised seconds per operation
        self.raw = 0.0
        self.factors = []
        self.rounds = 0


def clear_caches(caches, totals=None):
    for fn in caches:
        if totals is not None:
            info = fn.cache_info()
            totals["hits"] += info.hits
            totals["misses"] += info.misses
            totals["entries"] += info.currsize
        fn.cache_clear()


def measure(args, first, make_round, workdir, clock, caches, tracer, program, checks):
    plain, traced = Stats(), Stats()
    outputs = []  # (op, output) to check after the timed loop
    problems = []
    failed = attempted = 0
    layer_s = [0.0] * (len(tracer.names) if tracer else 0)
    layer_calls = [0] * len(layer_s)
    counts = {}
    cache_totals = {"hits": 0, "misses": 0, "entries": 0}
    widths = []
    t_loop = time.perf_counter()
    deadline = t_loop + args.seconds
    round_no = 0
    while True:
        ops = first if round_no == 0 else make_round(args.seed, round_no, workdir)
        passes = [(plain, False)] + ([(traced, True)] if tracer else [])
        for stats, on in passes:
            clear_caches(caches, cache_totals if on else None)
            if on:
                tracer.install()
            try:
                for op in ops:
                    if on:
                        tracer.begin_op(len(stats.times))
                    t0 = time.perf_counter()
                    try:
                        output, error = program.run(op), None
                    except Exception as e:  # a fault of the program: count it
                        output, error = None, e
                    dt = time.perf_counter() - t0
                    if on:
                        tracer.end_op()
                    factor = clock.measure(dt)
                    stats.times.append(dt * factor)
                    stats.raw += dt
                    stats.factors.append(factor)
                    attempted += 1
                    if on:
                        for j, s in enumerate(tracer.self_s):
                            layer_s[j] += s * factor
                            layer_calls[j] += tracer.calls[j]
                        for k, v in tracer.counts.items():
                            counts[k] = counts.get(k, 0) + v
                        counts["polynomials.eval_exact.calls"] = (
                            counts.get("polynomials.eval_exact.calls", 0) + tracer.eval_exact
                        )
                        counts["oracle.candidates"] = (
                            counts.get("oracle.candidates", 0) + tracer.candidates
                        )
                    if error is not None or (
                        not op.expect.get("fault") and op.call[0] != "graded" and output[0] != 0
                    ):
                        failed += 1
                        if not op.expect.get("fault"):
                            problems.append(f"{op.kind}: {type(error).__name__}: {error}"
                                            if error else f"{op.kind}: exit {output[0]}")
                        continue
                    if op.call[0] == "graded":
                        why = checks.check(op, output)
                        if why:
                            problems.append(f"{op.kind} {op.expect}: {why}")
                    elif not on:
                        outputs.append((op, output))
            finally:
                if on:
                    tracer.uninstall()
            stats.rounds += 1
        round_no += 1
        now = time.perf_counter()
        if (now >= deadline and len(plain.times) >= MIN_OPS) or now - T_START > HARD_LIMIT_S:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_raw = time.perf_counter() - t_loop
    t_check = time.perf_counter()
    for op, output in outputs:
        why = checks.check(op, output)
        if why:
            problems.append(f"{op.kind} {op.call}: {why}")
        elif op.kind in ("series", "distribution"):
            widths.append(checks.rel_width(output[1]))
    return {
        "plain": plain,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rss_mb": rss_mb,
        "layer_s": layer_s,
        "layer_calls": layer_calls,
        "counts": counts,
        "caches": cache_totals,
        "widths": widths,
        "audit": {
            "rounds": plain.rounds,
            "ops": len(plain.times),
            "loop_wall_s": loop_raw,
            "ops_raw_s": plain.raw,
            "ref_loop_s": clock.ref_s,
            "speed_factor_median": statistics.median(plain.factors),
            "speed_factor_min": min(plain.factors),
            "speed_factor_max": max(plain.factors),
            "check_wall_s": time.perf_counter() - t_check,
        },
    }


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. Near a sparse tail it moves far less from run to run
    than the single order statistic a plain percentile picks."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def report(args, res, setup, tracer) -> int:
    import layers

    plain = res["plain"]
    rounds = plain.rounds
    work_s = sum(plain.times) / rounds
    audit = res["audit"]
    audit["work_raw_s"] = plain.raw / rounds
    if res["widths"]:
        audit["bracket_rel_width"] = float(sum(res["widths"]) / len(res["widths"]))
    if args.trace:
        traced = res["traced"]
        t_rounds = traced.rounds
        traced_work = sum(traced.times) / t_rounds
        metrics = {}
        for j, name in enumerate(tracer.names):
            metrics[f"{name}.self_ms"] = (1000 * res["layer_s"][j] / t_rounds, "ms")
            metrics[f"{name}.calls"] = (res["layer_calls"][j] / t_rounds, "count")
        for name, keys in layers.COUNTERS.items():
            for k in keys:
                metrics[f"{name}.{k}"] = (res["counts"].get(f"{name}.{k}", 0) / t_rounds, "count")
        for k in ("polynomials.eval_exact.calls", "oracle.candidates"):
            metrics[k] = (res["counts"].get(k, 0) / t_rounds, "count")
        for k, v in res["caches"].items():
            metrics[f"cache.{k}"] = (v / t_rounds, "count")
        widths = res["widths"]
        metrics["oracle.bracket_rel_width"] = (
            float(sum(widths) / len(widths)) if widths else 0.0, "1")
        metrics["trace.work_s"] = (traced_work, "s")
        metrics["trace.overhead_s"] = (traced_work - work_s, "s")
        metrics["trace.layers_sum_s"] = (sum(res["layer_s"]) / t_rounds, "s")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            wanted = json.load(fh)["per_layer"]
        metrics = {m["name"]: metrics[m["name"]] for m in wanted}
        dump = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.names, "spans": tracer.spans}, fh)
        audit["trace_dump"] = os.path.relpath(dump, ROOT)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "work_s": (work_s, "s"),
            "op_p50_ms": (1000 * hd_quantile(plain.times, 0.5), "ms"),
            "op_p90_ms": (1000 * hd_quantile(plain.times, 0.9), "ms"),
            "peak_rss_mb": (res["rss_mb"], "MB"),
        }
    out = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in res["problems"][:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"audit": audit}, sort_keys=True))
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"result": out, "audit": audit, "op_s": plain.times}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())

"""Benchmark of ncfourier: one closed-loop client running one workload.

    python3 perfbench/run.py --workload norm-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
client sends its next check only after the last one ends.  Set-up is timed
several times and reported as a median, one untimed warm-up round follows,
then whole rounds of checks run until ``--seconds`` have passed (and at least
the workload's minimum number of rounds).  Outputs are verified after the
timed loop.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` the
run times each of the workload's minimum number of rounds untraced and again
with every layer wrapped (see layertrace.py), and reports the per-layer
metrics and the tracing overhead.  Per-check records and the spans
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin the BLAS thread pool before numpy loads: on a small shared machine a
# second BLAS thread competes with the rest of the host, and its start-up can
# add over a second to the first dense SVD of a process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed;
# its median is reported
SETUP_REPEATS, SETUP_SECONDS = 3, 1.0
TAIL_PERCENTILE = 75  # every run has >= 40 checks, so >= 10 lie beyond it
OUT_DIR = os.path.join(HERE, "out")


def import_package():
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ncfourier", "__init__.py")):
        sys.exit(f"error: no ncfourier sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import ncfourier

    if not os.path.abspath(ncfourier.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported ncfourier from {ncfourier.__file__}, not from {src}")
    return ncfourier


WARM_UP_ROUND = 2 ** 20  # its inputs differ from those of every timed round


def run_rounds(make_round, fx, seed, rounds, seconds, tracer=None, first=0):
    """Run whole rounds until both limits are met; returns (records, wall seconds).

    Each record is (check, output or exception, seconds).  The wall time
    covers drawing each round's inputs too, as a closed-loop client would.
    """
    records = []
    start = time.perf_counter()
    r = first
    while r - first < rounds or time.perf_counter() - start < seconds:
        for check in make_round(fx, np.random.default_rng([seed, r]), r):
            span = tracer.open(f"check.{check.kind}") if tracer else None
            t0 = time.perf_counter()
            try:
                out = check.run()
            except Exception as exc:  # a raising check is a failed check
                out = exc
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            records.append((check, out, dt))
        r += 1
    return records, time.perf_counter() - start


def verify(records):
    """Per-check failure reasons; the run stays correct while every failure is
    a check's known fault."""
    results = []
    correct = True
    for check, out, dt in records:
        if isinstance(out, Exception):
            failed = [f"raised {type(out).__name__}: {out}"]
        else:
            failed = [f"{name}: {detail}" for name, ok, detail in check.verify(out) if not ok]
        known = bool(check.known_fault) and all(
            f.startswith(f"{check.known_fault}:") for f in failed)
        correct &= not failed or known
        results.append((check, dt, failed))
    return results, correct


def report(workload, results):
    kinds = Counter(check.kind for check, _, _ in results)
    failed = Counter(check.kind for check, _, f in results if f)
    for kind in kinds:
        times = [dt for check, dt, _ in results if check.kind == kind]
        print(f"# {workload} {kind}: attempted {kinds[kind]} failed {failed[kind]} "
              f"median {statistics.median(times):.4f} s")
    for check, _, f in results:
        if f:
            print(f"# failed {check.cid}: {'; '.join(f)}")


def save(name, payload):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(payload, fh, indent=1)


def end_to_end(wl, seed, seconds):
    setup, make_round, min_rounds = wl
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        fx = setup()
        setup_times.append(time.perf_counter() - t0)
    run_rounds(make_round, fx, seed, 1, 0.0, first=WARM_UP_ROUND)
    records, wall = run_rounds(make_round, fx, seed, min_rounds, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [dt for _, _, dt in records]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "checks_per_s": (len(records) / wall, "1/s"),
        "check_s.p50": (statistics.median(times), "s"),
        "check_s.tail": (statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
                         "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"setup_times": setup_times, "wall_s": wall, "tail_percentile": TAIL_PERCENTILE}
    return records, metrics, extra


def ratio(a, b):
    """a / b, and 0 where a layer is absent from the workload (b = 0)."""
    return a / b if b else 0.0


def per_layer(wl, seed, package, workload):
    from layertrace import LAYERS, Tracer

    setup, make_round, min_rounds = wl
    fx = setup()
    run_rounds(make_round, fx, seed, 1, 0.0, first=WARM_UP_ROUND)
    tracer = Tracer()
    tracer.install(package)
    try:
        setup()  # for the set-up spans only
    finally:
        tracer.uninstall()
    tracer.counts.clear()
    first_span = len(tracer.start)
    # Each round runs once untraced and once traced, in alternating order, so
    # that the machine's drift in speed cancels out of the overhead.
    records, wall, plain_wall, plain_n = [], 0.0, 0.0, 0
    for r in range(min_rounds):
        for traced in (False, True) if r % 2 == 0 else (True, False):
            if traced:
                tracer.install(package)
            try:
                recs, dt = run_rounds(make_round, fx, seed, 1, 0.0, tracer if traced else None, r)
            finally:
                tracer.uninstall()
            if traced:
                records += recs
                wall += dt
            else:
                plain_n += len(recs)
                plain_wall += dt
    n = len(records)
    counts = tracer.counts

    def mean_s(name, tags=None, since=first_span):
        calls, total = tracer.call_stats(name, tags, since)
        return ratio(total, calls)

    _, est_total = tracer.call_stats("multipliers.estimate_norm", since=first_span)
    mc_checks = sum(1 for check, _, _ in records if check.monte_carlo)
    self_times = tracer.self_times(first_span)
    metrics = {
        "multipliers.iterations": (ratio(counts["iterations"], counts["estimates"]), "count"),
        "multipliers.iteration_us": (1e6 * ratio(est_total, counts["iterations"]), "us"),
        "multipliers.apply_s.arity1": (mean_s("multipliers.apply_multiplier", [1]), "s"),
        "multipliers.apply_s.arity2": (mean_s("multipliers.apply_multiplier", [2]), "s"),
        "nclp.svd_calls": (counts["svd_calls"] / n, "count"),
        "nclp.svd_flops": (counts["svd_flops"] / n, "count"),
        "nclp.lp_norm_s.n12": (mean_s("nclp.lp_norm", range(1, 13)), "s"),
        "nclp.lp_norm_s.n512": (mean_s("nclp.lp_norm", [512]), "s"),
        "nclp.lp_norm_s.n1024": (mean_s("nclp.lp_norm", [1024]), "s"),
        "restriction.consistency_s": (mean_s("restriction.restriction_consistency"), "s"),
        "restriction.periodization_s": (mean_s("restriction.periodization_residual"), "s"),
        "restriction.lattice_maps_s": (mean_s("restriction.lattice_maps_report"), "s"),
        "restriction.contraction_s": (mean_s("restriction.embedding_contraction_residual"), "s"),
        "transference.schur_s": (mean_s("transference.hertz_schur_transference_residual"), "s"),
        "groups.build_s.n1024": (mean_s("groups.build_group", [1024], 0), "s"),
        "groups.build_s.n4096": (mean_s("groups.build_group", [4096], 0), "s"),
        "groups.regular_matrix_s.n1024": (mean_s("groups.regular_matrix", [1024]), "s"),
        "groups.convolve_s.n4096": (mean_s("groups.convolve", [4096]), "s"),
        "montecarlo.samples_per_check": (ratio(counts["mc_samples"], mc_checks), "count"),
        "montecarlo.hit_ratio": (ratio(counts["mc_hits"], counts["mc_samples"]), "ratio"),
        "montecarlo.samples_per_s": (ratio(counts["mc_samples"], counts["mc_seconds"]), "1/s"),
        "montecarlo.sl2z_count_s": (mean_s("montecarlo.sl2z_count"), "s"),
        "liealg.max_nilpotent_dim_s": (mean_s("liealg.max_nilpotent_dim"), "s"),
        "liealg.build_model_s": (mean_s("liealg.build_model", since=0), "s"),
    }
    for layer in LAYERS:
        own = sum(t for name, t in self_times.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (own / n, "s")
    traced_rate, plain_rate = n / wall, plain_n / plain_wall
    metrics["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.save(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz"))
    extra = {"untraced_checks_per_s": plain_rate, "traced_checks_per_s": traced_rate,
             "self_s": self_times}
    return records, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        records, metrics, extra = per_layer(wl, args.seed, package, args.workload)
    else:
        records, metrics, extra = end_to_end(wl, args.seed, args.seconds)
    results, correct = verify(records)
    report(args.workload, results)
    failed = sum(1 for _, _, f in results if f)
    save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": BLAS_THREADS, "metrics": {k: v for k, (v, _) in metrics.items()},
        "extra": extra,
        "checks": [{"id": c.cid, "kind": c.kind, "seconds": dt, "failed": f}
                   for c, dt, f in results],
    })
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

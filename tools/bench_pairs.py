"""Run the benchmark on two trees in alternating pairs and write a BENCH record.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_16.json \
        --first-seed 1600 --pairs 10 --claim norm-search:checks_per_s --tier1

Each tree is a separate copy of the repository (a ``git archive`` or ``git
clone`` of each commit).  For every workload of ``BENCHMARK.json`` the script
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` from the
root of each tree, with T the ``run_seconds`` of ``BENCHMARK.json``, once per
seed, alternating which tree runs first, and summarises every end-to-end
metric as parent and change medians with inclusive quartiles, next to the
per-pair values of both sides.  Each run's median seconds per check kind,
read from the run's ``perfbench/out/<workload>-seed<S>-trace0.json``, goes
into the record too, under ``kind_median_s``.  The workload at position i of
``BENCHMARK.json`` (from 0) uses the seeds first_seed + 100 i, ..., also when
``--workload`` picks a subset, so a rerun of one workload repeats the seeds a
full record gave it.  An unknown ``--workload``, fewer than 2 ``--pairs`` or a
``--claim`` off the run workloads and end-to-end metrics exits 2 before any
run.  A
claim judged over several records pools their values:
``claim_result(w, metric, pool(metric, rows))`` with ``rows`` the records'
``workloads[w][metric["name"]]``.
Nothing under ``perfbench/`` is changed; the runs write their own records
under each tree's ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

# the claimed metric must gain more than this share in the median
MIN_GAIN = 0.10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the root of ``tree``; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def kind_medians(tree: str, workload: str, seed: int) -> dict:
    """Median seconds per check kind of one run, from its per-check record."""
    path = os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        checks = json.load(fh)["checks"]
    return {kind: statistics.median(c["seconds"] for c in checks if c["kind"] == kind)
            for kind in sorted({c["kind"] for c in checks})}


def kind_summary(kinds: dict) -> dict:
    """Per check kind: each side's per-run medians, the median of those and
    the change's relative to the parent's."""
    out = {}
    for kind in kinds["parent"][0]:
        values = {side: [run[kind] for run in kinds[side]] for side in ("parent", "change")}
        p, c = (statistics.median(values[side]) for side in ("parent", "change"))
        out[kind] = {"parent": p, "change": c, "relative_change": (c - p) / p, "values": values}
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians and quartiles of one metric, with the comparison BENCHMARK.json
    asks for: a lower-is-better metric may rise by at most ``bound`` of the
    parent median, a higher-is-better one fall by at most that much."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    rel = (c["median"] - p["median"]) / p["median"]
    return {
        "parent": p,
        "change": c,
        "values": {"parent": parent, "change": change},
        "change_better_pairs": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "relative_change": rel,
        "within_bound": -sign * rel <= metric["bound"],
        "unresolved": (p["q3"] - p["q1"]) / p["median"] > metric["bound"],
    }


def run_tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "wall_s": round(wall, 2)}


def src_lines(tree: str) -> int:
    folder = os.path.join(tree, "src", "ncfourier")
    total = 0
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def machine(tree: str) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    info["blas_threads"] = None
    out = os.path.join(tree, "perfbench", "out")
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name)) as fh:
            info["blas_threads"] = json.load(fh).get("blas_threads")
        break
    return info


def pool(metric: dict, rows: list[dict]) -> dict:
    """One ``summarise`` row of ``metric`` over every pair of ``rows``."""
    return summarise(metric, *([v for row in rows for v in row["values"][side]]
                               for side in ("parent", "change")))


def claim_result(workload: str, metric: dict, row: dict) -> dict:
    """The claimed ``metric`` of ``workload``, summarised as ``row``, is met
    when the change reads better in at least 9 pairs of 10 and its median
    gain exceeds both ``MIN_GAIN`` and the parent's interquartile distance."""
    p, pairs = row["parent"], len(row["values"]["parent"])
    gain = row["relative_change"] * (1.0 if metric["better"] == "higher" else -1.0)
    return {
        "workload": workload, "metric": metric["name"], "min_median_gain": MIN_GAIN,
        "median_gain": gain, "better_pairs": row["change_better_pairs"], "pairs": pairs,
        "parent_iqr_share": (p["q3"] - p["q1"]) / p["median"],
        "met": bool(row["change_better_pairs"] >= 0.9 * pairs and gain > MIN_GAIN
                    and gain * p["median"] > p["q3"] - p["q1"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree")
    parser.add_argument("--change", required=True, help="root of the changed tree")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None,
                        help="run only this workload (repeatable)")
    parser.add_argument("--claim", default=None, help="workload:metric claimed to improve")
    parser.add_argument("--tier1", action="store_true", help="also run Tier-1 on both trees")
    parser.add_argument("--note", default="", help="what the change is")
    parser.add_argument("--parent-commit", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    listed = [w["name"] for w in bench["workloads"]]
    names = args.workload or listed
    unknown = [name for name in names if name not in listed]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(listed)}")
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2 for quartiles, got {args.pairs}")
    if args.claim:  # the loop below rebinds name and metric
        claimed, _, claimed_name = args.claim.partition(":")
        claimed_metric = next((m for m in bench["end_to_end"] if m["name"] == claimed_name), None)
        if claimed not in names or claimed_metric is None:
            parser.error(f"--claim {args.claim} is not a run workload and an end-to-end metric")
    trees = {"parent": args.parent, "change": args.change}
    workloads = {}
    for name in names:
        seeds = [args.first_seed + 100 * listed.index(name) + k for k in range(args.pairs)]
        runs = {"parent": [], "change": []}
        kinds = {"parent": [], "change": []}
        first = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            first.append(order[0])
            for side in order:
                runs[side].append(run_bench(trees[side], name, seed, seconds))
                kinds[side].append(kind_medians(trees[side], name, seed))
                print(f"{name} seed {seed} {side}: "
                      f"{runs[side][-1]['metrics']['checks_per_s']['value']:.2f} checks/s",
                      file=sys.stderr, flush=True)
        row = {
            "seeds": seeds, "pairs": len(seeds), "first": first,
            "attempted_failed": {side: [[r["attempted"], r["failed"]] for r in runs[side]]
                                 for side in runs},
            "all_correct": all(r["correct"] for side in runs for r in runs[side]),
        }
        for metric in bench["end_to_end"]:
            values = {side: [r["metrics"][metric["name"]]["value"] for r in runs[side]]
                      for side in runs}
            row[metric["name"]] = summarise(metric, values["parent"], values["change"])
        row["kind_median_s"] = kind_summary(kinds)
        workloads[name] = row

    claim = (claim_result(claimed, claimed_metric, workloads[claimed][claimed_name])
             if args.claim else None)
    record = {
        "change": args.note,
        "parent_commit": args.parent_commit,
        "machine": machine(args.change),
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0, run from a separate copy of each tree by tools/bench_pairs.py; "
                   "one pair per seed, alternating which tree runs first; quartiles are "
                   "inclusive; change_better_pairs counts pairs where the change reads better "
                   "(ties count for neither); within_bound compares the change median with the "
                   "parent median against the BENCHMARK.json bound; unresolved marks a metric "
                   "whose parent quartile spread exceeds that bound"),
        "claimed_gain": claim,
        "workloads": workloads,
        "tier1": ({"command": " ".join(["PYTHONPATH=src", "python"] + TIER1[1:]),
                   **{side: run_tier1(tree) for side, tree in trees.items()}}
                  if args.tier1 else None),
        "src_lines": {"command": "cat src/ncfourier/*.py | wc -l",
                      **{side: src_lines(tree) for side, tree in trees.items()}},
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

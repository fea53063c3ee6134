"""tools/bench_pairs.py on stubbed runs: its seeds, its run order, its claim
row and the argument errors it must raise before any run."""

import importlib.util
import json
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path):
    """A parent and a change tree: BENCHMARK.json, and src/ncfourier with 3
    and 2 lines, which is all the tool reads of them besides the runs."""
    out = {}
    for side, lines in (("parent", 3), ("change", 2)):
        package = tmp_path / side / "src" / "ncfourier"
        package.mkdir(parents=True)
        (package / "a.py").write_text("x = 1\n" * lines)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
        out[side] = str(tmp_path / side)
    return out


def stub_runs(tool, monkeypatch, trees, checks_per_s=None):
    """Replace the tool's runs: every end-to-end metric reads 1.0, except
    checks_per_s, which reads ``checks_per_s[side][k]`` at the k-th seed of a
    workload.  Returns the list of (side, workload, seed) runs made."""
    side_of = {tree: side for side, tree in trees.items()}
    calls = []

    def run_bench(tree, workload, seed, seconds):
        assert seconds == BENCH["run_seconds"]
        side = side_of[tree]
        calls.append((side, workload, seed))
        metrics = {m["name"]: {"value": 1.0} for m in BENCH["end_to_end"]}
        if checks_per_s:
            k = seed % 100
            metrics["checks_per_s"]["value"] = checks_per_s[side][k]
        return {"metrics": metrics, "attempted": 10, "failed": 0, "correct": True}

    monkeypatch.setattr(tool, "run_bench", run_bench)
    monkeypatch.setattr(tool, "kind_medians", lambda tree, workload, seed: {"check": 0.5})
    return calls


def run_main(tool, trees, tmp_path, *args):
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", trees["parent"], "--change", trees["change"],
                      "--out", str(out), *args]) == 0
    return json.loads(out.read_text())


def test_seeds_follow_the_benchmark_position_and_the_order_alternates(
        tool, monkeypatch, trees, tmp_path):
    calls = stub_runs(tool, monkeypatch, trees)
    record = run_main(tool, trees, tmp_path, "--first-seed", "500", "--pairs", "3")
    assert list(record["workloads"]) == LISTED
    expected = []
    for i, name in enumerate(LISTED):
        seeds = [500 + 100 * i + k for k in range(3)]
        assert record["workloads"][name]["seeds"] == seeds
        assert record["workloads"][name]["first"] == ["parent", "change", "parent"]
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            expected += [(side, name, seed) for side in order]
    assert calls == expected
    assert record["src_lines"]["parent"] == 3 and record["src_lines"]["change"] == 2
    assert record["claimed_gain"] is None


def test_a_subset_of_workloads_keeps_the_seeds_of_its_position(tool, monkeypatch, trees, tmp_path):
    # two workloads named out of their BENCHMARK.json order, which is the
    # order they run in; each keeps the seeds of its place in the file
    calls = stub_runs(tool, monkeypatch, trees)
    picked = [LISTED[2], LISTED[0]]
    record = run_main(tool, trees, tmp_path, "--first-seed", "28000", "--pairs", "2",
                      "--workload", picked[0], "--workload", picked[1])
    assert list(record["workloads"]) == picked
    assert calls == [("parent", picked[0], 28200), ("change", picked[0], 28200),
                     ("change", picked[0], 28201), ("parent", picked[0], 28201),
                     ("parent", picked[1], 28000), ("change", picked[1], 28000),
                     ("change", picked[1], 28001), ("parent", picked[1], 28001)]


SPREAD = [95.0, 96.0, 97.0, 98.0, 99.0, 100.0, 101.0, 102.0, 103.0, 104.0]  # IQR 4.5%
WIDE = [50.0, 60.0, 70.0, 80.0, 90.0, 110.0, 120.0, 130.0, 140.0, 150.0]   # IQR 55%


def _worse_in(values, scale, pairs):
    return [0.5 * v if k in pairs else scale * v for k, v in enumerate(values)]


@pytest.mark.parametrize("parent, change, better, met", [
    (SPREAD, _worse_in(SPREAD, 1.2, ()), 10, True),
    (SPREAD, _worse_in(SPREAD, 1.2, (4,)), 9, True),
    (SPREAD, _worse_in(SPREAD, 1.2, (4, 7)), 8, False),     # 8 of 10 pairs
    (SPREAD, _worse_in(SPREAD, 1.08, ()), 10, False),       # gain below MIN_GAIN
    (WIDE, _worse_in(WIDE, 1.3, ()), 10, False),            # gain inside the parent's IQR
    (WIDE, _worse_in(WIDE, 1.6, ()), 10, True),
], ids=["10-of-10", "9-of-10", "8-of-10", "below-min-gain", "inside-iqr", "beyond-iqr"])
def test_claim_row_follows_pairs_min_gain_and_iqr(
        tool, monkeypatch, trees, tmp_path, parent, change, better, met):
    calls = stub_runs(tool, monkeypatch, trees, {"parent": parent, "change": change})
    name = LISTED[-1]
    record = run_main(tool, trees, tmp_path, "--first-seed", "100", "--workload", name,
                      "--claim", f"{name}:checks_per_s")
    assert len(calls) == 20
    claim = record["claimed_gain"]
    row = record["workloads"][name]["checks_per_s"]
    assert row["values"] == {"parent": parent, "change": change}
    assert claim["workload"] == name and claim["metric"] == "checks_per_s"
    assert claim["better_pairs"] == better and claim["pairs"] == 10
    assert claim["min_median_gain"] == tool.MIN_GAIN
    assert claim["median_gain"] == pytest.approx(row["relative_change"])
    assert claim["met"] is met


@pytest.mark.parametrize("args", [
    ["--workload", "no-such-workload"],
    ["--pairs", "1"],
    ["--workload", LISTED[-1], "--claim", f"{LISTED[0]}:checks_per_s"],
    ["--claim", f"{LISTED[0]}:no_such_metric"],
])
def test_bad_arguments_exit_2_before_any_run(tool, monkeypatch, trees, tmp_path, args):
    calls = stub_runs(tool, monkeypatch, trees)
    with pytest.raises(SystemExit) as exc:
        tool.main(["--parent", trees["parent"], "--change", trees["change"],
                   "--out", str(tmp_path / "BENCH.json"), "--first-seed", "1", *args])
    assert exc.value.code == 2
    assert calls == []
    assert not (tmp_path / "BENCH.json").exists()

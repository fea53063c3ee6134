import json
import math
import re
import warnings

import numpy as np
import pytest

from ncfourier import cli, liealg
from ncfourier.cli import main
from ncfourier.montecarlo import McEstimate


def run(argv):
    return main(argv)


def test_group_dump_roundtrip(tmp_path, capsys):
    out = tmp_path / "group.json"
    assert run(["group", "--group", "dihedral:3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["order"] == 6
    assert set(data) == {"order", "mul", "inv", "identity", "label"}
    from ncfourier.groups import FiniteGroup

    g2 = FiniteGroup.from_json(out.read_text())
    assert g2.order == 6


@pytest.mark.parametrize("spec", [
    "cyclic:1", "cyclic:8", "dihedral:3", "heisenberg:2",
    "product:cyclic:2,product:dihedral:3,heisenberg:2"])
def test_group_dump_is_the_indented_json_text(tmp_path, capsys, spec):
    # the CLI streams the text to_json joins: json.dumps' indented text to the byte
    from ncfourier.groups import build_group

    g = build_group(spec)
    want = g.to_json()
    assert want == json.dumps(json.loads(want), indent=2, sort_keys=True) + "\n"
    out = tmp_path / "group.json"
    assert run(["group", "--group", spec, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    assert run(["group", "--group", spec]) == 0
    assert capsys.readouterr().out == (
        want + f"[pass] group construction: {spec} of order {g.order}\n")


def test_norm_json_output(tmp_path):
    out = tmp_path / "norm.json"
    code = run([
        "norm", "--group", "cyclic:4", "--symbol", "random:7", "--p", "4",
        "--restarts", "20", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["lower_bound_only"] is True
    assert data["p"] == 4.0
    assert len(data["witness"][0]) == 4


def test_norm_rerun_bit_identical(tmp_path):
    args = ["norm", "--group", "cyclic:4", "--symbol", "random:7", "--p", "4",
            "--restarts", "10", "--seed", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_delta_exact_fixture(capsys):
    code = run([
        "delta-exact", "--group", "dihedral:6", "--F", "indices:6",
        "--V", "indices:0,1,5,11", "--gram",
    ])
    assert code == 0
    assert "delta = 3/4" in capsys.readouterr().out


def test_identity_check_exit_code():
    assert run(["identity-check", "--group", "dihedral:3", "--n", "2",
                "--trials", "5", "--seed", "3"]) == 0


def test_restrict_and_periodize():
    assert run(["restrict", "--embedding", "cyclic-in-cyclic:2,4",
                "--symbol", "random:5", "--p", "4", "--restarts", "30",
                "--seed", "2"]) == 0
    assert run(["periodize", "--group", "cyclic:4", "--normal-subgroup",
                "indices:0,2", "--symbol", "random:3", "--trials", "5"]) == 0


def test_restrict_fails_on_a_wrong_restriction(monkeypatch, capsys):
    # a restricted symbol scaled by 0.8 keeps the subgroup norm below the
    # ambient one, so only the witness transport gap can catch it
    from ncfourier import restriction
    from ncfourier.multipliers import Symbol

    right = restriction.restrict_symbol
    monkeypatch.setattr(restriction, "restrict_symbol",
                        lambda m, emb: Symbol(emb.sub, 1, 0.8 * right(m, emb).values))
    assert run(["restrict", "--embedding", "cyclic-in-cyclic:2,4", "--symbol", "random:5",
                "--p", "4", "--restarts", "30", "--seed", "2"]) == 1
    out = capsys.readouterr().out
    report = json.loads(out.rsplit("\n[", 1)[0])
    assert report["residual"] == 0.0 and report["pass"] is False
    gap = report["context"]["witness_transport_gap"]
    assert gap > 0.2 * report["context"]["sub_value"]
    # the verdict line names the gap, not only the passing residual
    assert out.splitlines()[-1] == ("[FAIL] restriction-consistency: residual 0.000e+00, "
                                    f"transport gap {gap:.1e}")


def test_lattice_maps_command():
    assert run(["lattice-maps", "--group", "cyclic:64", "--stride", "8",
                "--trials", "3", "--seed", "1"]) == 0
    assert run(["lattice-maps", "--group", "cyclic:64", "--stride", "7",
                "--trials", "3"]) == 2


def test_delta_mc_finite_csv_deterministic(tmp_path):
    args = ["delta-mc", "--group", "dihedral:6", "--F", "indices:0,6",
            "--V", "indices:0,1,5,11", "--samples", "20000", "--seed", "5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, row = a.read_text().strip().split("\n")
    assert header.startswith("group,estimate,stderr")


def test_key_lemma_command_small(tmp_path):
    out = tmp_path / "ratios.csv"
    code = run(["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "0.1,0.05",
                "--samples", "200000", "--seed", "42", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eps,R,rho,ratio,stderr,samples,seed"
    assert len(lines) == 4  # two eps rows + extrapolation row
    # each ratio draws two volumes; the extrapolation rests on both ratios
    samples = [int(line.split(",")[5]) for line in lines[1:]]
    assert samples == [400000, 400000, 800000]


def test_key_lemma_default_batch_divides_samples(tmp_path, monkeypatch):
    # --batch 0 (the default) means one batch of every sample, at any count
    seen = []

    def ratio(eps, R, rho, cfg):
        seen.append((cfg.samples, cfg.batch))
        return McEstimate(rho, 0.01, 2 * cfg.samples, cfg.seed, 1), rho

    monkeypatch.setattr(cli.mc, "key_lemma_ratio", ratio)
    out = tmp_path / "ratio.csv"
    assert run(["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "0.1",
                "--samples", "15000000", "--out", str(out)]) == 0
    assert seen == [(15_000_000, 15_000_000)]
    assert out.read_text().strip().split("\n")[1].startswith("0.1,0.5,2.0,")


def test_orbit_dim_and_density_and_count(tmp_path, capsys):
    assert run(["orbit-dim", "--model", "sl:3", "--sweep", "50"]) == 0
    assert capsys.readouterr().out == ("[pass] maximal nilpotent orbit dimension: sl:3: d = 6 "
                                       "(n(n-1) = 6); 3 partitions and 50 rotated samples checked\n")
    assert run(["orbit-dim", "--model", "heisenberg3"]) == 0
    assert run(["density", "--model", "sl:2", "--coords", "1.0,0,0"]) == 0
    out = tmp_path / "counts.csv"
    assert run(["lattice-count", "--radii", "1.5,2,3", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[1] == "1.5,4"


def test_orbit_dim_fails_on_a_sweep_of_zeros(monkeypatch, capsys):
    monkeypatch.setattr(liealg, "_orthogonal", lambda normals: np.zeros_like(normals))
    assert run(["orbit-dim", "--model", "sl:3", "--sweep", "50"]) == 1
    assert capsys.readouterr().out.startswith(
        "[FAIL] maximal nilpotent orbit dimension: sweep sample 0 of partition ")


def test_orbit_dim_fails_on_scaled_rotations(monkeypatch, capsys):
    real = liealg._orthogonal
    monkeypatch.setattr(liealg, "_orthogonal", lambda normals: 1.001 * real(normals))
    assert run(["orbit-dim", "--model", "sl:3", "--sweep", "50"]) == 1
    assert capsys.readouterr().out == (
        "[FAIL] maximal nilpotent orbit dimension: sweep sample 0 of partition (3,): nilpotent "
        "True, lambda^T unread, orbit dimension unread against 6; x^k is not a partial isometry "
        "for k in [1, 2]\n")


def test_suite_counts_a_failing_orbit_dim_sweep(monkeypatch, capsys):
    monkeypatch.setattr(liealg, "_orthogonal", lambda normals: np.zeros_like(normals))
    assert run(["suite", "scaling"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] maximal nilpotent orbit dimension: sweep sample 0 of partition " in out
    assert re.search(r"^  orbit-dim +FAIL$", out, re.MULTILINE)


def test_lattice_count_fit(tmp_path):
    out = tmp_path / "counts.csv"
    assert run(["lattice-count", "--radii", "100,250,500,1000,2500",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    label, value = rows[-1].split(",")
    assert label == "fitted_exponent"
    assert 0.85 <= float(value) <= 1.15


def test_lattice_count_fails_counts_off_the_main_term(monkeypatch, capsys):
    # scaling every count by 1.3 leaves the fitted exponent where it was, but
    # puts each count 28-32% off 6(rho + 1/rho - 2)
    exact = cli.mc.sl2z_count
    monkeypatch.setattr(cli.mc, "sl2z_count", lambda rho: round(1.3 * exact(rho)))
    assert run(["lattice-count", "--radii", "100,250,500,1000,2500"]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] lattice-point growth: exponent 1.0067 ")


def test_density_checks_beyond_the_series_domain(capsys):
    # ||ad_x|| = 6 > pi, out of reach of a truncated series
    assert run(["density", "--model", "sl:2", "--coords", "3,0,0"]) == 0
    out = capsys.readouterr().out
    assert "[pass] exponential-coordinates Haar density: nu = 11.1508686735," in out
    assert abs(float(out.splitlines()[1].split(",")[1]) - (math.sinh(3.0) / 3.0) ** 2) <= 1e-13
    # no overflow warning reaches stderr before the one error line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["density", "--model", "sl:2", "--coords", "400,0,0"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_density_fails_a_route_off_by_1e_minus_6(monkeypatch, capsys):
    exact = cli._matrix_density
    monkeypatch.setattr(cli, "_matrix_density", lambda x: exact(x) * (1.0 + 1e-6))
    assert run(["density", "--model", "sl:2", "--coords", "1.0,0,0"]) == 1
    assert "[FAIL] exponential-coordinates Haar density" in capsys.readouterr().out


def test_lattice_count_fit_through_radius_one(tmp_path):
    # the law has no log factor, so no log(log rho) enters and rho = 1 fits
    # like any radius
    out = tmp_path / "counts.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run(["lattice-count", "--radii", "1,1.5,2,100,999.5,2500,7321,10000",
             "--out", str(out)])
    label, value = out.read_text().strip().split("\n")[-1].split(",")
    assert label == "fitted_exponent"
    assert math.isfinite(float(value))


DELTA_MC_LIE = ["delta-mc", "--model", "sl:2", "--rho", "2", "--F-count", "3",
                "--samples", "10000", "--seed", "11"]


@pytest.mark.parametrize("mean, code, verdict", [(0.46, 0, "[pass]"), (0.43, 1, "[FAIL]")])
def test_delta_mc_tube_verdict_is_the_rho_bound(monkeypatch, capsys, mean, code, verdict):
    # delta >= 1/rho - 3 stderr: 0.46 clears 0.5 - 3 * 0.02, 0.43 does not
    est = McEstimate(mean, 0.02, 10000, 11, 5000)
    monkeypatch.setattr(cli.mc, "delta_mc", lambda *args: est)
    assert run(DELTA_MC_LIE + ["--W", "tube:0.05,0.5"]) == code
    out = capsys.readouterr().out
    assert out.endswith(f"{verdict} conjugation-survival estimate: {mean:.6f} +- 0.020000 "
                        "vs lower bound 1/rho = 0.500000 (3 stderr)\n")
    assert cli.mc.delta_bound_verdict(est, 2.0) == (0.5, code == 0)


def test_delta_mc_fails_when_no_sample_falls_inside_the_tube(capsys):
    # a cube draw lands in tube:eps,R with probability about pi eps^2 / R^2,
    # so 10^4 draws expect 0.005 hits in tube:0.0002,0.5
    assert run(["delta-mc", "--model", "sl:2", "--rho", "2", "--F-count", "3",
                "--W", "tube:0.0002,0.5", "--samples", "10000", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[1].endswith(",0")
    assert out.endswith("[FAIL] conjugation-survival estimate: 0.000000 +- 1.000000: "
                        "no sample fell inside W\n")


def test_delta_mc_ball_reports_without_verdict(monkeypatch, capsys):
    monkeypatch.setattr(cli.mc, "delta_mc", lambda *args: McEstimate(0.01, 0.001, 10000, 11, 50))
    assert run(DELTA_MC_LIE + ["--W", "ball:0.5"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("conjugation-survival estimate: 0.010000 +- 0.001000 ")
    assert "no verdict" in last


def test_transference_command():
    assert run(["transference", "--L", "256", "--alpha", "8,16,32",
                "--support", "4", "--seed", "7"]) == 0
    # 1/p1 + 1/p2 = 0: the output exponent is infinite, not a division by zero
    assert run(["transference", "--L", "256", "--alpha", "8,16,32", "--p1", "inf",
                "--p2", "inf"]) == 0


def test_usage_errors():
    assert run(["norm", "--group", "cyclic:4", "--p", "4"]) == 2  # missing symbol
    assert run(["frobnicate"]) == 2
    assert run(["group", "--group", "nonsense:3"]) == 2


@pytest.mark.parametrize("argv", [
    ["delta-mc", "--W", "tube:0,0.5", "--samples", "10000"],
    ["delta-mc", "--W", "tube:-0.05,0.5", "--samples", "10000"],
    # an empty parameter is refused, not dropped
    ["delta-mc", "--W", "tube:0.05,,0.5", "--samples", "10000"],
    ["delta-mc", "--W", "tube:0.05,0.5,", "--samples", "10000"],
    ["delta-mc", "--W", "ball:,0.3", "--samples", "10000"],
    ["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "0"],
    ["key-lemma", "--rho", "2", "--R", "0", "--eps", "0.1"],
    ["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "-0.1"],
    ["delta-mc", "--rho", "0.5", "--samples", "10000"],
    ["delta-mc", "--F-count", "-1", "--samples", "10000"],
    ["delta-mc", "--group", "cyclic:4"],
    ["lattice-maps", "--group", "cyclic:64", "--stride", "0"],
    ["transference", "--alpha", "-2"],
    ["transference", "--width", "0"],
    ["transference", "--width", "-1.5"],
    ["transference", "--width", "nan"],
    ["transference", "--width", "inf"],
    ["transference", "--support", "-3"],
    ["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "0.1", "--samples", "10000",
     "--batch", "-5"],
    ["orbit-dim", "--model", "sl:3", "--sweep", "-5"],
    ["orbit-dim", "--model", "sl:3", "--sweep", "0"],
    ["identity-check", "--group", "cyclic:4", "--trials", "-1"],
    ["identity-check", "--group", "cyclic:4", "--trials", "0"],
    ["periodize", "--group", "cyclic:4", "--normal-subgroup", "indices:0,2", "--trials", "0"],
    ["lattice-maps", "--group", "cyclic:64", "--stride", "8", "--trials", "-3"],
    ["restrict", "--embedding", "cyclic-in-cyclic:0,8", "--symbol", "random:1", "--p", "3"],
    ["delta-exact", "--group", "dihedral:6", "--F", "indices:6", "--V", "ball:-1"],
    # exp is not injective on ball:30 (sup det x = 450 > pi^2)
    ["delta-mc", "--model", "sl:2", "--rho", "3", "--F-count", "2", "--W", "ball:30",
     "--samples", "100000", "--seed", "4"],
    # NaN fails every comparison, so it must be rejected, not slip past p < 1
    ["norm", "--group", "dihedral:3", "--symbol", "random:1", "--p", "nan"],
    ["norm", "--group", "dihedral:3", "--symbol", "random:1", "--p", "3", "--ps", "3,nan"],
    ["norm", "--group", "dihedral:3", "--symbol", "random:1", "--p", "0.5"],
    ["restrict", "--embedding", "cyclic-in-cyclic:2,4", "--symbol", "random:1", "--p", "nan"],
    ["transference", "--p1", "nan"],
    ["key-lemma", "--rho", "nan", "--R", "0.5", "--eps", "0.05"],
    ["key-lemma", "--rho", "inf", "--R", "0.5", "--eps", "0.05"],
    ["norm", "--group", "dihedral:3", "--symbol", "gaussian:-1", "--p", "3"],
    ["norm", "--group", "dihedral:3", "--symbol", "gaussian:0", "--p", "3"],
    ["norm", "--group", "dihedral:3", "--symbol", "gaussian:inf", "--p", "3"],
    ["norm", "--group", "dihedral:3", "--symbol", "gaussian:nan", "--p", "3"],
    # nu = (sinh 400 / 400)^2 overflows a double
    ["density", "--model", "sl:2", "--coords", "400,0,0"],
    # five radii with two distinct values are a two-point fit, one value none
    ["lattice-count", "--radii", "100,100,100,250,250"],
    ["lattice-count", "--radii", "100,100,100,100,100"],
    ["lattice-count", "--radii", "nan"],
    ["lattice-count", "--radii", "1e5"],
    # with F empty every sample survives, and 1 passes against any bound
    ["delta-mc", "--F-count", "0", "--samples", "10000"],
    # 64^5 entries = 16 GiB of complex: refused before anything is allocated
    ["identity-check", "--group", "cyclic:64", "--n", "5"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


CAUSES = [
    (["delta-mc", "--group", "cyclic:8", "--F", "indices:1", "--V", "indices:",
      "--samples", "10000"], "V is empty"),
    (["restrict", "--embedding", "cyclic-in-cyclic:3", "--symbol", "random:1", "--p", "3"],
     "cyclic-in-cyclic needs two orders d,N, got '3'"),
    (["delta-mc", "--model", "heisenberg3"], "needs the sl:2 model, got heisenberg3"),
    (["density", "--model", "sl:2", "--coords", "400,0,0"],
     "nu(x) is not finite in double precision: inf from ad_x"),
    (["lattice-count", "--radii", "100,100,100,250,250"],
     "need at least five distinct radii for the fit, got 2"),
    (["lattice-count", "--radii", "nan"], "radius nan is not a number <= 10^4"),
    (["delta-mc", "--F-count", "0", "--samples", "10000"], "--F-count must be >= 1, got 0"),
    (["identity-check", "--group", "cyclic:64", "--n", "5"], "64^5 exceeds 16777216"),
    (DELTA_MC_LIE + ["--W", "ball:5"], "ball parameter 5 exceeds pi sqrt2 = 4.442883"),
    (["delta-mc", "--W", "tube:0.05,,0.5", "--samples", "10000"],
     "bad neighbourhood spec 'tube:0.05,,0.5': empty or non-numeric parameter"),
    (["delta-mc", "--W", "tube:0.05,0.5,", "--samples", "10000"],
     "bad neighbourhood spec 'tube:0.05,0.5,': empty or non-numeric parameter"),
    (["delta-mc", "--W", "ball:,0.3", "--samples", "10000"],
     "bad neighbourhood spec 'ball:,0.3': empty or non-numeric parameter"),
    (["delta-mc", "--W", "tube:0.1", "--samples", "10000"],
     "bad neighbourhood 'tube' with 1 parameter(s): expected ball:r or tube:eps,R"),
    (["delta-mc", "--W", "box:1", "--samples", "10000"],
     "bad neighbourhood 'box' with 1 parameter(s)"),
    (["delta-mc", "--W", "ball:1,2", "--samples", "10000"],
     "bad neighbourhood 'ball' with 2 parameter(s)"),
]


@pytest.mark.parametrize("argv, cause", CAUSES, ids=[" ".join(argv) for argv, _ in CAUSES])
def test_usage_error_names_its_cause(capsys, argv, cause):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text, line", [
    ("", 1),                                    # no header
    ("s1,re,im\n9,1.0,0.0\n", 2),              # index past N - 1
    ("s1,re,im\n0,1.0,0.0\n1,1.0\n", 3),      # short row
    ("s1,re,im\n0,1.0,0.0\n-1,1.0,0.0\n", 3),  # negative index
    ("s1,s2,im\n0,1.0,0.0\n", 1),             # header is not s1..sn,re,im
    ("s1,re,im\n1.5,1.0,0.0\n", 2),            # index is not an integer
], ids=["empty", "index-9", "short-row", "index-minus-1", "bad-header", "fractional-index"])
def test_malformed_csv_symbol_exits_2_naming_the_line(tmp_path, capsys, text, line):
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert run(["norm", "--group", "cyclic:4", "--symbol", f"csv:{path}", "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert f"{path}:{line}:" in err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this experiment\nseed=9\nrestarts=5\n")
    base = ["norm", "--group", "cyclic:4", "--symbol", "random:7", "--p", "4"]
    out_cfg = tmp_path / "from_config.json"
    assert run(["--config", str(cfg)] + base + ["--out", str(out_cfg)]) == 0
    data = json.loads(out_cfg.read_text())
    assert data["seed"] == 9          # config filled the unset flag
    assert data["restarts"] == 5
    out_flag = tmp_path / "from_flag.json"
    assert run(["--config", str(cfg)] + base + ["--seed", "1", "--out", str(out_flag)]) == 0
    assert json.loads(out_flag.read_text())["seed"] == 1  # explicit flag wins


def test_suite_lemmas(capsys):
    assert run(["suite", "lemmas"]) == 0
    first = capsys.readouterr().out
    assert run(["suite", "lemmas"]) == 0  # reruns are bit-identical
    assert capsys.readouterr().out == first


DELTA_EXACT = ["delta-exact", "--group", "dihedral:6", "--F", "indices:6",
               "--V", "indices:0,1,5,11"]


@pytest.mark.parametrize("entry, gram_line", [("gram=false", False), ("gram=true", True)])
def test_config_on_off_flag(tmp_path, capsys, entry, gram_line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    assert run(["--config", str(cfg)] + DELTA_EXACT) == 0
    assert ("overlap Gram lower bound" in capsys.readouterr().out) is gram_line


@pytest.mark.parametrize("entry", ["gram=yes", "gram=", "bogus=3", "func=x", "command=group",
                                   "no separator"])
def test_config_rejects_bad_entries(tmp_path, capsys, entry):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    assert run(["--config", str(cfg)] + DELTA_EXACT) == 2
    assert "error" in capsys.readouterr().err


def test_config_bad_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=1e6\n")
    code = run(["--config", str(cfg), "delta-mc", "--group", "dihedral:6",
                "--F", "indices:0,6", "--V", "indices:0,1,5,11"])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid int value: '1e6'" in err
    assert "Traceback" not in err


def test_config_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "absent.cfg")] + DELTA_EXACT) == 2
    assert "absent.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["F_count", "F-count"])
def test_config_key_spellings(tmp_path, monkeypatch, key):
    seen = []
    monkeypatch.setattr(cli, "cmd_delta_mc", lambda args: seen.append(args.F_count) or 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=2\n")
    assert run(["--config", str(cfg), "delta-mc"]) == 0
    assert run([f"--config={cfg}", "delta-mc", "--F-count", "5"]) == 0
    assert seen == [2, 5]


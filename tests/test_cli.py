import json

import pytest

from ncfourier import cli
from ncfourier.cli import _default_batch, main


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


def test_key_lemma_default_batch_divides_samples(tmp_path):
    # 1.5 * 10^7 samples exceed the 10^7 cap on the default batch; the default
    # is then 7.5 * 10^6, the largest divisor of the count under the cap
    out = tmp_path / "ratio.csv"
    assert run(["key-lemma", "--rho", "2", "--R", "0.5", "--eps", "0.1",
                "--samples", "15000000", "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n")[1].startswith("0.1,0.5,2.0,")


@pytest.mark.parametrize("samples, batch", [
    (1, 1), (10 ** 7, 10 ** 7), (2 * 10 ** 7, 10 ** 7), (15_000_000, 7_500_000),
    (10 ** 7 + 19, 1),  # a prime above the cap
])
def test_default_batch(samples, batch):
    assert _default_batch(samples) == batch


def test_orbit_dim_and_density_and_count(tmp_path):
    assert run(["orbit-dim", "--model", "sl:3", "--sweep", "50"]) == 0
    assert run(["orbit-dim", "--model", "heisenberg3"]) == 0
    assert run(["density", "--model", "sl:2", "--coords", "1.0,0,0"]) == 0
    out = tmp_path / "counts.csv"
    assert run(["lattice-count", "--radii", "1.5,2,3", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[1] == "1.5,4"


def test_lattice_count_fit(tmp_path):
    out = tmp_path / "counts.csv"
    assert run(["lattice-count", "--radii", "100,250,500,1000,2500",
                "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")
    label, value = rows[-1].split(",")
    assert label == "fitted_exponent"
    assert 0.85 <= float(value) <= 1.15


def test_transference_command():
    assert run(["transference", "--L", "256", "--alpha", "8,16,32",
                "--support", "4", "--seed", "7"]) == 0


def test_usage_errors():
    assert run(["norm", "--group", "cyclic:4", "--p", "4"]) == 2  # missing symbol
    assert run(["frobnicate"]) == 2
    assert run(["group", "--group", "nonsense:3"]) == 2


@pytest.mark.parametrize("argv", [
    ["delta-mc", "--W", "tube:0,0.5", "--samples", "10000"],
    ["delta-mc", "--W", "tube:-0.05,0.5", "--samples", "10000"],
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
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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


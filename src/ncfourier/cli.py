"""Command-line front end.

Subcommands dispatch to the computational modules and write CSV or JSON
results plus a human-readable pass/fail line per check.  Exit codes: 0 all
checks passed, 1 at least one check failed, 2 usage error.  Config
precedence: command-line flags override config-file entries override
defaults; each config entry ``key=value`` is parsed as the option
``--key=value`` of the subcommand, so argparse checks it like a flag.  Reruns
with identical argv produce bit-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import montecarlo as mc
from .groups import build_embedding, build_group, parse_subset
from .liealg import (
    _matrix_density, _partitions, ad_operator, build_model, exp_density, max_nilpotent_dim,
)
from .multipliers import (
    OptimizerConfig,
    Symbol,
    _require_table,
    consummation_residual,
    estimate_norm,
    nested_residual,
    symbol_from_csv,
    symbol_from_spec,
    translation_residual,
)
from .restriction import (
    PreconditionError,
    delta_exact,
    gram_matrix,
    lattice_maps_report,
    periodization_residual,
    quotient_group,
    restriction_consistency,
)
from .transference import bump_element, hertz_schur_transference_residual

USAGE_ERROR = 2


def _config_tokens(path: str) -> list[str]:
    """``--key=value`` tokens for the entries of a flat ``key=value`` file;
    ``_`` in a key reads as ``-``, so ``F_count`` and ``F-count`` both name
    ``--F-count``."""
    tokens = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
            tokens.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return tokens


def _on_off(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


def _write_text(path: str | None, chunks) -> None:
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write_json(path: str | None, payload: dict) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_line(name: str, passed: bool, detail: str) -> None:
    print(f"[{'pass' if passed else 'FAIL'}] {name}: {detail}")


def _require_count(flag: str, value: int) -> None:
    """A repetition count must run at least once, or a pass would mean nothing."""
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _symbol_from_flag(group, spec: str, arity: int) -> Symbol:
    if spec.startswith("csv:"):
        return symbol_from_csv(group, spec[4:])
    return symbol_from_spec(group, spec, arity)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_group(args) -> int:
    group = build_group(args.group)
    _write_text(args.out, group.json_chunks())
    _report_line("group construction", True, f"{group.label} of order {group.order}")
    return 0


def cmd_norm(args) -> int:
    group = build_group(args.group)
    ps = tuple(float(tok) for tok in args.ps.split(",")) if args.ps else (float(args.p),)
    m = _symbol_from_flag(group, args.symbol, len(ps))
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    est = estimate_norm(m, ps, float(args.p), cfg)
    payload = json.loads(est.to_json())
    payload["group"] = group.label
    payload["statement"] = "multiplier norm lower bound by witness search"
    _write_json(args.out, payload)
    _report_line("norm estimate", True, f"value {est.value:.12g} (lower bound)")
    return 0


def cmd_identity_check(args) -> int:
    _require_count("--trials", args.trials)
    group = build_group(args.group)
    n = args.n
    _require_table(group.order, n)  # every kind builds an arity-n table
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    if args.kind in ("consummation", "all"):
        m = symbol_from_spec(group, f"random:{args.seed}", arity=max(n - 1, 1))
        idx = [1] + list(range(3, n + 1))[: max(n - 1, 1) - 1]
        res = consummation_residual(m, idx, n, args.trials, rng)
        rows.append({"name": "argument-merge factorization identity", "residual": res,
                     "tolerance": 1e-10, "pass": res <= 1e-10})
    if args.kind in ("translation", "all"):
        m = symbol_from_spec(group, f"random:{args.seed + 1}", arity=n)
        r, t, rp = (int(x) % group.order for x in (1, 2, 3))
        res = translation_residual(m, max(1, n - 1), r, t, rp, args.trials, rng)
        rows.append({"name": "translation conjugation identity", "residual": res,
                     "tolerance": 1e-10, "pass": res <= 1e-10})
    if args.kind in ("nested", "all"):
        ms = [symbol_from_spec(group, f"random:{args.seed + 10 + j}") for j in range(n)]
        res = nested_residual(ms, args.trials, rng)
        rows.append({"name": "nested composition identity", "residual": res,
                     "tolerance": 1e-10, "pass": res <= 1e-10})
    for row in rows:
        ok &= row["pass"]
        _report_line(row["name"], row["pass"], f"residual {row['residual']:.3e}")
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return 0 if ok else 1


def cmd_restrict(args) -> int:
    emb = build_embedding(args.embedding)
    m = _symbol_from_flag(emb.amb, args.symbol, 1)
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    rep = restriction_consistency(emb, m, (float(args.p),), float(args.p), cfg)
    _write_json(args.out, {**rep.to_json_dict(), "statement":
                           "restricted multiplier norm bounded by ambient norm (witness transport)"})
    gap = "" if rep.holds else f", transport gap {rep.context['witness_transport_gap']:.1e}"
    _report_line(rep.name, rep.passed, f"residual {rep.residual:.3e}{gap}")
    return 0 if rep.passed else 1


def cmd_periodize(args) -> int:
    _require_count("--trials", args.trials)
    group = build_group(args.group)
    H = parse_subset(group, args.normal_subgroup)
    quotient, _, _ = quotient_group(group, H)
    m_q = _symbol_from_flag(quotient, args.symbol, args.n)
    rng = np.random.default_rng(args.seed)
    rep = periodization_residual(group, H, m_q, tuple([2.0] * args.n), args.trials, rng)
    payload = rep.to_json_dict()
    payload["statement"] = "quotient multiplier intertwined with its periodization"
    _write_json(args.out, payload)
    _report_line(rep.name, rep.passed, f"residual {rep.residual:.3e}")
    return 0 if rep.passed else 1


def cmd_lattice_maps(args) -> int:
    _require_count("--trials", args.trials)
    group = build_group(args.group)
    stride = args.stride
    if stride < 1 or group.order % stride != 0:
        print(f"stride {stride} is not a positive divisor of {group.order}", file=sys.stderr)
        return USAGE_ERROR
    emb = build_embedding(f"cyclic-in-cyclic:{group.order // stride},{group.order}")
    X = group.subset(range(stride))
    m = _symbol_from_flag(group, args.symbol, args.n)
    rng = np.random.default_rng(args.seed)
    rep = lattice_maps_report(emb, X, m, tuple([2.0 * args.n] * args.n), args.trials, rng)
    payload = rep.to_json_dict()
    payload["statement"] = "fundamental-domain compression/sampling maps are contractions"
    _write_json(args.out, payload)
    _report_line(rep.name, rep.passed, f"residual {rep.residual:.3e}")
    return 0 if rep.passed else 1


def cmd_delta_exact(args) -> int:
    group = build_group(args.group)
    F = parse_subset(group, args.F)
    V = parse_subset(group, args.V)
    val = delta_exact(F, V)
    print(f"delta = {val}")
    if args.gram:
        _, eig_a, eig_gap = gram_matrix(F, V)
        _report_line("overlap Gram lower bound", eig_a >= -1e-10 and eig_gap >= -1e-10,
                     f"min eig A {eig_a:.3e}, min eig A - delta*ones {eig_gap:.3e}")
    if args.out:
        _write_json(args.out, {
            "numerator": val.numerator, "denominator": val.denominator,
            "group": group.label, "F": F.sorted(), "V": V.sorted(),
            "statement": "exact conjugation-survival fraction",
        })
    return 0


def cmd_delta_mc(args) -> int:
    cfg = mc.McConfig(args.samples, args.seed, args.batch)
    if args.group:
        if args.F is None or args.V is None:
            raise ValueError("finite-group mode (--group) needs --F and --V")
        group = build_group(args.group)
        F = parse_subset(group, args.F)
        V = parse_subset(group, args.V)
        est = mc.delta_mc_finite(group, F, V, cfg)
        exact = delta_exact(group.subset(F.sorted() + [group.identity]), V)
        ok = abs(est.mean - float(exact)) <= 3.0 * max(est.stderr, 1e-12)
        rows = [[args.group, repr(est.mean), repr(est.stderr), est.samples, est.seed, est.hits,
                 f"{exact.numerator}/{exact.denominator}"]]
        _write_csv(args.out, ["group", "estimate", "stderr", "samples", "seed", "hits", "exact"], rows)
        _report_line("finite-group delta estimate", ok,
                     f"{est.mean:.6f} +- {est.stderr:.6f} vs exact {float(exact):.6f}")
        return 0 if ok else 1
    _require_count("--F-count", args.F_count)
    model = build_model(args.model)
    rng = np.random.default_rng(args.seed)
    F = mc.sample_adjoint_ball_sl2(model, args.rho, args.F_count, rng)
    W = mc.Neighborhood.parse(args.W)
    est = mc.delta_mc(model, F, W, cfg)
    rows = [[args.model, args.rho, args.W, repr(est.mean), repr(est.stderr),
             est.samples, est.seed, est.hits]]
    _write_csv(args.out, ["model", "rho", "W", "estimate", "stderr", "samples", "seed", "hits"], rows)
    detail = f"{est.mean:.6f} +- {est.stderr:.6f}"
    if W.kind == "ball":
        print(f"conjugation-survival estimate: {detail} (the adjoint-ball bound is stated "
              "for tube: neighbourhoods only; no verdict)")
        return 0
    bound, ok = mc.delta_bound_verdict(est, args.rho)
    _report_line("conjugation-survival estimate", ok,
                 f"{detail} vs lower bound 1/rho = {bound:.6f} (3 stderr)" if est.hits
                 else f"{detail}: no sample fell inside W")
    return 0 if ok else 1


def cmd_key_lemma(args) -> int:
    eps_list = [float(tok) for tok in args.eps.split(",")]
    cfg = mc.McConfig(args.samples, args.seed, args.batch)
    rows, ratios = [], []
    for eps in sorted(eps_list, reverse=True):
        est, _ = mc.key_lemma_ratio(eps, args.R, args.rho, cfg)
        ratios.append(est)
        rows.append([repr(eps), repr(args.R), repr(args.rho), repr(est.mean),
                     repr(est.stderr), est.samples, est.seed])
    final = ratios[-1]
    within = abs(final.mean - args.rho) <= 0.10 * args.rho
    # linear-in-eps extrapolation from the two smallest eps values
    if len(ratios) >= 2:
        extrapolated = 2.0 * ratios[-1].mean - ratios[-2].mean
        rows.append(["extrapolated", repr(args.R), repr(args.rho), repr(extrapolated),
                     repr(math.hypot(2.0 * ratios[-1].stderr, ratios[-2].stderr)),
                     ratios[-1].samples + ratios[-2].samples, args.seed])
    _write_csv(args.out, ["eps", "R", "rho", "ratio", "stderr", "samples", "seed"], rows)
    _report_line("tube-volume scaling ratio", within,
                 f"final ratio {final.mean:.4f} vs rho = {args.rho} (10% band)")
    return 0 if within else 1


def cmd_orbit_dim(args) -> int:
    _require_count("--sweep", args.sweep)
    model = build_model(args.model)
    rng = np.random.default_rng(args.seed)
    try:
        d = max_nilpotent_dim(model, rng, samples=args.sweep)
    except AssertionError as exc:  # a representative or a sample off its orbit
        _report_line("maximal nilpotent orbit dimension", False, str(exc))
        return 1
    if d is None:
        print(f"{args.model}: not a reductive model; maximal nilpotent orbit "
              "dimension not applicable")
        return 0
    n = model.n
    expected = n * (n - 1)
    _report_line("maximal nilpotent orbit dimension", d == expected,
                 f"{args.model}: d = {d} (n(n-1) = {expected}); {len(_partitions(n))} "
                 f"partitions and {args.sweep} rotated samples checked")
    if args.out:
        _write_json(args.out, {"model": args.model, "d": d,
                               "statement": "maximal nilpotent orbit dimension"})
    return 0 if d == expected else 1


def cmd_lattice_count(args) -> int:
    radii = [float(tok) for tok in args.radii.split(",")]
    counts = [mc.sl2z_count(rho) for rho in radii]
    rows = [[repr(r), c] for r, c in zip(radii, counts)]
    deviation = mc.main_term_deviation(radii, counts)
    ok = deviation <= 1.0
    main_term = f"main term 6(rho + 1/rho - 2) within rho^(-1/3) at rho >= 20 ({deviation:.3f} of it)"
    if len(radii) >= 5:
        exponent, _ = mc.growth_fit(radii, counts)
        rows.append(["fitted_exponent", repr(exponent)])
        ok &= 0.85 <= exponent <= 1.15
        _report_line("lattice-point growth", ok,
                     f"exponent {exponent:.4f} (target d/2 = 1, no log factor), {main_term}")
    else:
        _report_line("lattice-point counts", ok, f"{counts}, {main_term}")
    _write_csv(args.out, ["rho", "count"], rows)
    return 0 if ok else 1


def cmd_density(args) -> int:
    model = build_model(args.model)
    x = model.vector([float(tok) for tok in args.coords.split(",")])
    with np.errstate(over="ignore", invalid="ignore"):
        nu_ad, nu_matrix = exp_density(x), _matrix_density(x)
    if not math.isfinite(nu_ad + nu_matrix):
        raise ValueError(f"nu(x) is not finite in double precision: {nu_ad:g} from ad_x, "
                         f"{nu_matrix:g} from the eigenvalues of x")
    gap = abs(nu_ad - nu_matrix)
    # the eigenvalues of ad_x carry an error proportional to ||ad_x||
    tol = 1e-10 * max(1.0, nu_ad) * max(1.0, float(np.linalg.norm(ad_operator(x), 2)))
    _write_csv(args.out, ["model", "nu_ad", "nu_matrix", "gap"],
               [[args.model, repr(nu_ad), repr(nu_matrix), repr(gap)]])
    _report_line("exponential-coordinates Haar density", gap <= tol,
                 f"nu = {nu_ad:.12g}, ad/matrix eigenvalue gap {gap:.2e} (tolerance {tol:.1e})")
    return 0 if gap <= tol else 1


def cmd_transference(args) -> int:
    group = build_group(f"cyclic:{args.L}")
    m = symbol_from_spec(group, f"random:{args.seed}", arity=2)
    x = bump_element(group, args.support, args.width)
    y = bump_element(group, args.support, args.width)
    z = bump_element(group, args.support, args.width)
    alphas = [int(tok) for tok in args.alpha.split(",")]
    rows = []
    rels = []
    for alpha in alphas:
        res = hertz_schur_transference_residual(m, alpha, args.p1, args.p2, x, y, z)
        rels.append(res.relative_residual)
        rows.append([alpha, repr(res.residual), repr(res.relative_residual)])
    ok = rels[-1] <= 0.05 and all(b <= a + 1e-12 for a, b in zip(rels, rels[1:]))
    _write_csv(args.out, ["alpha", "residual", "relative_residual"], rows)
    _report_line("Schur-multiplier window transference", ok,
                 f"relative residuals {['%.4f' % r for r in rels]}")
    return 0 if ok else 1


# suite members as command lines; {samples} is the suite's --samples budget and
# {mc_samples} the same budget raised to at least 10^6 for delta-mc
SUITES = {
    "lemmas": [
        ("lemmas", "identity-check --group dihedral:3 --kind all --n 2 --trials 25 --seed 7"),
        ("periodize", "periodize --group cyclic:4 --normal-subgroup indices:0,2 "
                      "--symbol random:3 --n 1 --trials 10 --seed 7"),
        ("lattice-maps", "lattice-maps --group cyclic:64 --stride 8 --symbol gaussian:8.0 "
                         "--n 1 --trials 5 --seed 7"),
    ],
    "restriction": [
        ("restrict", "restrict --embedding cyclic-in-cyclic:2,4 --symbol random:5 --p 4.0 "
                     "--restarts 200 --seed 7"),
        ("delta-exact", "delta-exact --group dihedral:6 --F indices:6 --V indices:0,1,5,11 --gram"),
        ("transference", "transference --L 256 --alpha 8,16,32 --support 4 --width 1.5 "
                         "--p1 2.0 --p2 2.0 --seed 7"),
    ],
    "scaling": [
        ("orbit-dim", "orbit-dim --model sl:2 --sweep 300 --seed 7"),
        ("density", "density --model sl:2 --coords 1.0,0,0"),
        ("key-lemma", "key-lemma --rho 2.0 --R 0.5 --eps 0.1,0.05,0.025 --samples {samples} "
                      "--seed 42 --batch 0"),
        ("lattice-count", "lattice-count --radii 100,250,500,1000,2500"),
        ("delta-mc", "delta-mc --model sl:2 --rho 2.0 --F-count 3 --W tube:0.05,0.5 "
                     "--samples {mc_samples} --seed 11 --batch 0"),
    ],
}


def cmd_suite(args) -> int:
    name = args.name
    members = [row for key, rows in SUITES.items() if name in (key, "all") for row in rows]
    print(f"== suite {name} ==")
    results = [
        (label, main(line.format(samples=args.samples,
                                 mc_samples=max(args.samples, 10 ** 6)).split()) == 0)
        for label, line in members
    ]
    failures = sum(1 for _, passed in results if not passed)
    width = max(len(label) for label, _ in results)
    print(f"== suite {name} summary ==")
    for label, passed in results:
        print(f"  {label:<{width}}  {'pass' if passed else 'FAIL'}")
    print(f"== suite {name}: {'all passed' if failures == 0 else f'{failures} failed'} ==")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfourier",
        description="Exact and Monte Carlo computations for Fourier multipliers "
        "on finite groups and their Lie-geometric scaling checks.",
    )
    parser.add_argument("--config", default=None,
                        help="flat key=value file; each entry reads as the option --key=value")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="build a group and dump it as JSON")
    p.add_argument("--group", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("norm", help="estimate a multiplier norm (lower bound)")
    p.add_argument("--group", required=True)
    p.add_argument("--symbol", required=True, help="gaussian:s | indicator:spec | random:seed | csv:path")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--ps", default=None, help="comma list for multilinear p_i")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("identity-check", help="verify multiplier factorization identities")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=["consummation", "translation", "nested", "all"], default="all")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("restrict", help="witness-transport restriction consistency")
    p.add_argument("--embedding", required=True,
                   help="cyclic-in-cyclic:d,N | rotations-in-dihedral:N | ...")
    p.add_argument("--symbol", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("periodize", help="quotient periodization intertwiner check")
    p.add_argument("--group", required=True)
    p.add_argument("--normal-subgroup", required=True, dest="normal_subgroup")
    p.add_argument("--symbol", default="random:3")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_periodize)

    p = sub.add_parser("lattice-maps", help="fundamental-domain map contractions")
    p.add_argument("--group", required=True, help="cyclic group, e.g. cyclic:64")
    p.add_argument("--stride", type=int, required=True, help="subgroup stride k -> kZ_N")
    p.add_argument("--symbol", default="gaussian:8.0")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice_maps)

    p = sub.add_parser("delta-exact", help="exact conjugation-survival fraction")
    p.add_argument("--group", required=True)
    p.add_argument("--F", required=True)
    p.add_argument("--V", required=True)
    p.add_argument("--gram", nargs="?", const=True, default=False, type=_on_off,
                   metavar="true|false", help="also check the overlap Gram bound")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_delta_exact)

    p = sub.add_parser("delta-mc", help="Monte Carlo conjugation-survival estimate")
    p.add_argument("--group", default=None, help="finite-group mode")
    p.add_argument("--F", default=None)
    p.add_argument("--V", default=None)
    p.add_argument("--model", default="sl:2", help="Lie mode (default)")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--F-count", type=int, default=3, dest="F_count")
    p.add_argument("--W", default="tube:0.05,0.5", help="ball:r | tube:eps,R")
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--batch", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_delta_mc)

    p = sub.add_parser("key-lemma", help="tube-volume scaling ratio vs rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma list, e.g. 0.1,0.05,0.025")
    p.add_argument("--samples", type=int, default=10 ** 7)
    p.add_argument("--batch", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_key_lemma)

    p = sub.add_parser("orbit-dim", help="maximal nilpotent orbit dimension")
    p.add_argument("--model", required=True)
    p.add_argument("--sweep", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_orbit_dim)

    p = sub.add_parser("lattice-count", help="exact adjoint-ball lattice point counts")
    p.add_argument("--radii", required=True, help="comma list of rho values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice_count)

    p = sub.add_parser("density", help="Haar density in exponential coordinates")
    p.add_argument("--model", required=True)
    p.add_argument("--coords", required=True, help="comma list of basis coordinates")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("transference", help="bilinear Schur window transference")
    p.add_argument("--L", type=int, default=256)
    p.add_argument("--alpha", default="8,16,32")
    p.add_argument("--support", type=int, default=4)
    p.add_argument("--width", type=float, default=1.5)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transference)

    p = sub.add_parser("suite", help="run a named check bundle with pinned seeds")
    p.add_argument("name", choices=["lemmas", "restriction", "scaling", "all"])
    p.add_argument("--samples", type=int, default=10 ** 7,
                   help="sample budget for the Monte Carlo members")
    p.set_defaults(func=cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                tokens = _config_tokens(args.config)
            except (ValueError, OSError) as exc:
                parser.error(f"--config: {exc}")
            # the entries go right after the command name, so explicit flags
            # still win; before the name stand only root options, which all
            # take a value (--config PATH or --config=PATH)
            at = 0
            while argv[at].startswith("-"):
                at += 1 if "=" in argv[at] else 2
            args = parser.parse_args(argv[: at + 1] + tokens + argv[at + 1 :])
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"untestable configuration: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

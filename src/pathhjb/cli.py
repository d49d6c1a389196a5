"""Batch experiment runner: one subcommand per verification family.

Usage: pathhjb <subcommand> --config FILE [--seed N] [--out DIR]
                                          [--override key=value ...]

Config files are YAML (nested key/value); unknown keys are rejected and
--override entries use dotted paths into the same schema. Outputs are a CSV
(fixed header per subcommand, floats at 17 significant digits, LF endings)
plus a human-readable summary; identical (config, seed) produce bit-identical
files. Exit codes: 0 success, 2 config error, 3 cap/contract violation,
4 property-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path as FsPath

import numpy as np
import yaml

from . import gauge, varprinciple
from .bshjb import remark64_check
from .control import (
    BlowupError,
    CapacityError,
    ContractError,
    ControlProblem,
    dpp_check,
    value,
    value_with_strategy,
)
from .expressions import ExpressionError, compile_expression, path_context
from .funcalc import PathFunctional, endpoint_functional, ito_check
from .gauge import GaugeParams
from .pathspace import GridConfig, Path, PathError, _joint_gap
from .phjb import (
    CFLError,
    MarkovProbeError,
    XGrid,
    comparison_psi,
    markov_consistency,
    phjb_residual,
    subsolution_probe,
)
from .presets import (
    build_preset,
    heat_solution,
    lq_problem,
    lq_solution,
    martingale_solution,
    random_augmented_problem,
    running_cost_solution,
)
from .sampling import random_pair, random_path
from .varprinciple import CandidateSet, borwein_preiss, verify_bp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_PROPERTY = 4


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: FsPath, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_summary(path: FsPath, lines: list[str]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _merge_config(default, supplied, where: str = ""):
    """``supplied`` laid over ``default``, each scalar cast to its default's type.

    Unknown keys and values of the wrong shape or type (``steps=abc``, a list
    where a number goes, inf or -3 for an integer: each is a count or index)
    raise ConfigError; a None default (an inline problem key) takes any value.
    """
    kind = type(default)
    if default is None:
        return supplied
    if isinstance(default, dict) and isinstance(supplied, dict):
        unknown = [k for k in supplied if k not in default]
        if unknown:
            raise ConfigError(f"unknown config key: {where}{unknown[0]}")
        return {k: _merge_config(v, supplied.get(k, v), f"{where}{k}.") for k, v in default.items()}
    if isinstance(default, list) and isinstance(supplied, list):
        return [_merge_config(default[0], s, where) for s in supplied]
    try:
        if kind in (int, float) or isinstance(supplied, kind):
            cast = kind(supplied)
            if kind is not int or cast >= 0:
                return cast
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{where.rstrip('.')} must be {'a nonnegative ' * (kind is int)}{kind.__name__}, got {supplied!r}")


def _apply_override(supplied: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override must be key=value, got {spec!r}")
    dotted, raw = spec.split("=", 1)
    *parents, leaf = dotted.split(".")
    node = supplied
    for k in parents:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted} goes through {k}, which is not a mapping")
    node[leaf] = yaml.safe_load(raw)


def _load_config(defaults: dict, config_path: str | None, overrides: list[str]) -> dict:
    supplied: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            raise ConfigError(f"config file {config_path} is empty")
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a mapping")
        supplied = loaded
    for spec in overrides:
        _apply_override(supplied, spec)
    return _merge_config(defaults, supplied)


# ---------------------------------------------------------------------------
# Problem construction from config (preset name or inline expressions).

_GRID_DEFAULT = {"steps": 4, "horizon": 1.0, "dim": 1, "noise_dim": 1}

# Shapes and types of the inline problem keys, whose defaults are all None.
_INLINE_TYPES = {"drift": [""], "diffusion": [[""]], "generator": "", "terminal": "", "controls": [0.0]}

_PROBLEM_DEFAULT = {"preset": "lq", "inline": dict.fromkeys(_INLINE_TYPES)}

_PATH_VARS = frozenset(
    ["t", "T", "dt", "x", "rmax", "rint"]
    + [f"x{i}" for i in range(10)]
    + [f"rint{i}" for i in range(10)]
)
_COEFF_VARS = _PATH_VARS | frozenset({"u"})
_GEN_VARS = _COEFF_VARS | frozenset({"y", "z"} | {f"z{i}" for i in range(10)})


def _grid_from(config: dict) -> GridConfig:
    return GridConfig(**config["grid"])


def _problem_from(config: dict, grid: GridConfig) -> ControlProblem:
    prob = config["problem"]
    inline = prob["inline"]
    if all(v is None for v in inline.values()):
        return build_preset(prob["preset"], grid)
    missing = [k for k, v in inline.items() if v is None]
    if missing:
        raise ConfigError(f"inline problem is missing keys: {missing}")
    inline = _merge_config(_INLINE_TYPES, inline, "problem.inline.")
    drift_fns = [compile_expression(e, _COEFF_VARS) for e in inline["drift"]]
    diff_fns = [[compile_expression(e, _COEFF_VARS) for e in row] for row in inline["diffusion"]]
    gen_fn = compile_expression(inline["generator"], _GEN_VARS)
    term_fn = compile_expression(inline["terminal"], _PATH_VARS)
    if len(drift_fns) != grid.dim or len(diff_fns) != grid.dim:
        raise ConfigError("drift/diffusion rows must match grid.dim")
    if any(len(row) != grid.noise_dim for row in diff_fns):
        raise ConfigError("diffusion columns must match grid.noise_dim")

    horizon = grid.horizon

    def drift(p, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        return np.array([f(env) for f in drift_fns])

    def diffusion(p, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        return np.array([[f(env) for f in row] for row in diff_fns])

    def generator(p, y, z, u):
        env = path_context(p, horizon)
        env["u"] = float(u)
        env["y"] = float(y)
        for i in range(z.shape[0]):
            env[f"z{i}"] = float(z[i])
        env["z"] = float(z[0])
        return gen_fn(env)

    def terminal(p):
        return term_fn(path_context(p, horizon))

    return ControlProblem(
        drift=drift,
        diffusion=diffusion,
        generator=generator,
        terminal=terminal,
        controls=tuple(inline["controls"]),
        grid=grid,
    )


# ---------------------------------------------------------------------------
# Subcommand runners. Each returns (header, rows, summary_lines, exit_code).

GAUGE_DEFAULT = {
    "pairs": 10000,
    "ms": [1, 2, 3],
    "big_ms": [3.0, 5.0],
    "t_index": 8,
    "dim": 1,
    "dt": 0.125,
    "scale": 0.5,
}


def run_gauge_suite(config: dict, seed: int):
    rng = np.random.default_rng(seed)
    header = ["pair_id", "m", "M", "s0_lower_slack", "s0_upper_slack", "subadd_gap"]
    rows = []
    worst = np.inf
    for m in config["ms"]:
        for big_m in config["big_ms"]:
            g = GaugeParams(m, big_m)
            for i in range(config["pairs"]):
                p, q = random_pair(rng, config["dim"], config["dt"], config["t_index"], config["scale"])
                ups = gauge.upsilon(p, q, g)
                gap = _joint_gap(p, q) ** (2 * g.m)
                lower = ups - gap
                upper = g.M * gap - ups
                sub = gauge.subadditivity_gap(p, q, g)
                worst = min(worst, lower, upper, sub)
                rows.append((i, g.m, g.M, lower, upper, sub))
    ok = worst >= -1e-12
    lines = [
        f"gauge-suite: {len(rows)} rows",
        f"worst slack {worst:.3e} (pass threshold -1e-12)",
        "PASS" if ok else "FAIL",
    ]
    return header, rows, lines, EXIT_OK if ok else EXIT_PROPERTY


ITO_DEFAULT = {
    "functional": "square",
    "levels": 3,
    "base_steps": 8,
    "horizon": 1.0,
    "n_paths": 2000,
}


def run_ito_check(config: dict, seed: int):
    name = config["functional"]
    if name == "square":
        f = endpoint_functional(
            lambda x: float(x[0]) ** 2,
            grad=lambda x: 2.0 * x,
            hess=lambda x: 2.0 * np.eye(1),
        )
    elif name == "endpoint":
        f = endpoint_functional(
            lambda x: float(x[0]), grad=lambda x: np.ones(1), hess=lambda x: np.zeros((1, 1))
        )
    elif name == "gauge":
        anchor = Path.constant(0.3, 0, config["horizon"] / config["base_steps"])
        f = gauge.upsilon_functional(anchor)
    else:
        raise ConfigError(f"unknown functional {name!r} (square, endpoint, gauge)")
    header = ["level", "steps", "dt", "mean_abs_residual", "ratio_to_prev"]
    rows = []
    prev = None
    for level in range(config["levels"]):
        steps = config["base_steps"] * 2**level
        dt = config["horizon"] / steps
        p0 = Path.constant(0.0, 0, dt)
        res = ito_check(
            f,
            drift=lambda p: np.zeros(1),
            diffusion=lambda p: np.eye(1),
            p0=p0,
            end_index=steps,
            n_paths=config["n_paths"],
            seed=seed + level,
        )
        ratio = float("nan") if prev in (None, 0.0) else res / prev
        rows.append((level, steps, dt, res, ratio))
        prev = res
    lines = [f"ito-check[{name}]: level {r[0]} mean residual {r[3]:.6e}" for r in rows]
    return header, rows, lines, EXIT_OK


BP_DEFAULT = {
    "cases": 20,
    "candidates": 200,
    "max_t_index": 6,
    "dim": 1,
    "dt": 0.1,
    "eps_slack": 0.5,
}


def run_bp_demo(config: dict, seed: int):
    rng = np.random.default_rng(seed)
    header = ["case_id", "n_candidates", "rounds", "perturbation_value", "verified"]
    rows = []
    all_ok = True
    rho = gauge.upsilon_bar
    for case in range(config["cases"]):
        items = [
            random_path(rng, config["dim"], config["dt"], int(rng.integers(0, config["max_t_index"] + 1)))
            for _ in range(config["candidates"])
        ]
        domain = CandidateSet(tuple(items))
        coefs = rng.normal(size=3)
        f = PathFunctional(
            eval=lambda p, c=coefs: float(
                c[0] * np.tanh(p.values[0, -1]) + c[1] * np.cos(p.t) + c[2] * np.tanh(p.values[0].mean())
            )
        )
        start = max(items, key=f.eval)
        eps = config["eps_slack"]
        result = borwein_preiss(f, rho, None, eps, start, domain)
        ok = verify_bp(result, f, rho, None, eps, start, domain)
        all_ok &= ok
        rows.append((case, len(items), result.rounds, result.perturbation_value, ok))
    lines = [f"bp-demo: {len(rows)} cases, all verified: {all_ok}"]
    return header, rows, lines, EXIT_OK if all_ok else EXIT_PROPERTY


VALUE_DEFAULT = {
    "problem": _PROBLEM_DEFAULT,
    "grid": _GRID_DEFAULT,
    "start_value": 0.0,
    "cap": 262144,
}


def run_value(config: dict, seed: int):
    grid = _grid_from(config)
    cp = _problem_from(config, grid)
    p0 = Path.constant(np.full(grid.dim, config["start_value"]), 0, grid.dt)
    v, strat = value_with_strategy(cp, p0, cap=config["cap"])
    u0 = strat.control_at(p0)
    header = ["value", "best_control_at_root"]
    rows = [(v, u0)]
    lines = [f"value: {v!r} with root control {u0!r}"]
    return header, rows, lines, EXIT_OK


DPP_DEFAULT = {
    "problem": _PROBLEM_DEFAULT,
    "grid": _GRID_DEFAULT,
    "deltas": [1, 2, 3],
    "start_value": 0.0,
    "tolerance": 1e-10,
    "cap": 262144,
}


def run_dpp(config: dict, seed: int):
    grid = _grid_from(config)
    cp = _problem_from(config, grid)
    p0 = Path.constant(np.full(grid.dim, config["start_value"]), 0, grid.dt)
    header = ["delta_steps", "residual"]
    rows = []
    worst = 0.0
    for delta in config["deltas"]:
        res = dpp_check(cp, p0, delta, cap=config["cap"])
        worst = max(worst, res)
        rows.append((delta, res))
    ok = worst <= config["tolerance"]
    lines = [f"dpp: worst residual {worst:.3e} (tolerance {config['tolerance']})", "PASS" if ok else "FAIL"]
    return header, rows, lines, EXIT_OK if ok else EXIT_PROPERTY


MARKOV_DEFAULT = {
    "preset": "quartic",
    "levels": 3,
    "base_steps": 4,
    "base_nx": 41,
    "horizon": 0.5,
    "x_lo": -4.0,
    "x_hi": 4.0,
    "eval_x": 0.4,
}


def run_markov_compare(config: dict, seed: int):
    header = ["level", "dt", "dx", "tree_value", "fd_value", "residual", "bound"]
    rows = []
    for level in range(config["levels"]):
        steps = config["base_steps"] * 2**level
        nx = (config["base_nx"] - 1) * 2**level + 1
        grid = GridConfig(steps, config["horizon"], 1, 1)
        cp = build_preset(config["preset"], grid)
        xg = XGrid(config["x_lo"], config["x_hi"], nx)
        p = Path.constant(config["eval_x"], 0, grid.dt)
        rep = markov_consistency(cp, p, xg, seed=seed)
        rows.append((level, grid.dt, xg.dx, rep.tree_value, rep.fd_value, rep.residual, rep.error_bound))
    lines = [f"markov-compare[{config['preset']}]: level {r[0]} residual {r[5]:.6e}" for r in rows]
    return header, rows, lines, EXIT_OK


VISC_DEFAULT = {
    "solution": "heat",
    "grid": {"steps": 6, "horizon": 0.75, "dim": 1, "noise_dim": 1},
    "n_paths": 20,
    "cloud": 200,
    "tolerance": 1e-8,
}

_SOLUTIONS = {
    "heat": ("heat", heat_solution),
    "martingale": ("martingale", martingale_solution),
    "running": ("running", running_cost_solution),
    "lq": ("lq", lq_solution),
}


def run_viscosity_probe(config: dict, seed: int):
    if config["solution"] not in _SOLUTIONS:
        raise ConfigError(f"unknown solution {config['solution']!r}; available: {sorted(_SOLUTIONS)}")
    preset_name, solution_builder = _SOLUTIONS[config["solution"]]
    grid = _grid_from(config)
    cp = build_preset(preset_name, grid)
    sol = solution_builder(grid)
    rng = np.random.default_rng(seed)
    header = ["path_id", "t_index", "is_touch_point", "residual"]
    rows = []
    worst = np.inf
    for i in range(config["n_paths"]):
        k = int(rng.integers(0, grid.steps))
        p = random_path(rng, grid.dim, grid.dt, k)
        probe = subsolution_probe(cp, sol, sol, p, n_cloud=config["cloud"], seed=seed + i)
        res = phjb_residual(cp, sol, p)
        worst = min(worst, probe.residual, res)
        rows.append((i, k, probe.is_touch_point, probe.residual))
    ok = worst >= -config["tolerance"]
    lines = [f"viscosity-probe[{config['solution']}]: worst residual {worst:.3e}", "PASS" if ok else "FAIL"]
    return header, rows, lines, EXIT_OK if ok else EXIT_PROPERTY


BSHJB_DEFAULT = {
    "instances": 20,
    "steps": 6,
    "horizon": 0.75,
    "t_index": 2,
    "tolerance": 1e-10,
}


def run_bshjb_check(config: dict, seed: int):
    rng = np.random.default_rng(seed)
    header = ["instance_id", "residual"]
    rows = []
    worst = 0.0
    dt = config["horizon"] / config["steps"]
    for i in range(config["instances"]):
        ap = random_augmented_problem(config["steps"], config["horizon"], seed + i)
        p_omega = random_path(rng, 1, dt, config["t_index"])
        res = remark64_check(ap, p_omega)
        worst = max(worst, res)
        rows.append((i, res))
    ok = worst <= config["tolerance"]
    lines = [f"bshjb-check: worst residual {worst:.3e} over {len(rows)} instances", "PASS" if ok else "FAIL"]
    return header, rows, lines, EXIT_OK if ok else EXIT_PROPERTY


COMPARISON_DEFAULT = {
    "betas": [10.0, 100.0, 1000.0],
    "pairs": 500,
    "grid": {"steps": 3, "horizon": 0.75, "dim": 1, "noise_dim": 1},
    "eps": 0.05,
    "nu": 2.0,
    "offset": 0.1,
}


def run_comparison_demo(config: dict, seed: int):
    grid = _grid_from(config)
    cp = lq_problem(grid)
    rng = np.random.default_rng(seed)

    value_cache: dict = {}

    def w2_eval(p: Path) -> float:
        key = p.key()
        if key not in value_cache:
            value_cache[key] = value(cp, p)
        return value_cache[key]

    offset = config["offset"]
    w2 = PathFunctional(eval=w2_eval)
    w1 = PathFunctional(eval=lambda p: w2_eval(p) - offset)

    # Pairs with log-spaced endpoint gaps: each beta in the ladder finds its
    # preferred gap scale, so the shrinking-gap phenomenon is observable on a
    # finite set. Every fifth pair is an exact diagonal.
    n_pairs = config["pairs"]
    stacked = []
    for i in range(n_pairs):
        k = int(rng.integers(0, grid.steps + 1))
        a = random_path(rng, 1, grid.dt, k, scale=0.6)
        if i % 5 == 0:
            b = a
        else:
            delta = 10.0 ** rng.uniform(-1.8, -0.2)
            b = Path(a.values - delta, grid.dt)
        stacked.append(Path(np.vstack([a.values, b.values]), grid.dt))

    header = ["beta", "psi_max", "gauge_gap", "beta_times_gap"]
    rows = []
    prev = None
    monotone = True
    for beta in config["betas"]:
        def psi(sp: Path, beta=beta) -> float:
            a = Path._wrap(sp.values[:1], sp.dt)
            b = Path._wrap(sp.values[1:], sp.dt)
            return comparison_psi(
                w1, w2, a, b, beta, config["eps"], config["nu"], grid.horizon
            )

        f = PathFunctional(eval=psi)
        domain = CandidateSet(tuple(stacked))
        start = max(stacked, key=f.eval)
        result = borwein_preiss(f, gauge.upsilon_bar, None, 1.0 / beta, start, domain)
        opt = result.optimum
        a = Path._wrap(opt.values[:1], opt.dt)
        b = Path._wrap(opt.values[1:], opt.dt)
        gap = gauge.upsilon(a, b)
        rows.append((beta, f.eval(opt), gap, beta * gap))
        if prev is not None and beta * gap > prev + 1e-12:
            monotone = False
        prev = beta * gap
    lines = [
        "comparison-demo: beta * gauge_gap ladder "
        + " -> ".join(format(r[3], ".6e") for r in rows),
        "PASS" if monotone else "FAIL",
    ]
    return header, rows, lines, EXIT_OK if monotone else EXIT_PROPERTY


SUBCOMMANDS = {
    "gauge-suite": (GAUGE_DEFAULT, run_gauge_suite, "pinch-bound and subadditivity sweep for the gauge family"),
    "ito-check": (ITO_DEFAULT, run_ito_check, "chain-rule residual refinement ladder on Euler paths"),
    "bp-demo": (BP_DEFAULT, run_bp_demo, "perturbed maximization over random candidate sets, verified exhaustively"),
    "value": (VALUE_DEFAULT, run_value, "tree value of a preset or inline problem"),
    "dpp": (DPP_DEFAULT, run_dpp, "dynamic-programming residual at each intermediate delta"),
    "markov-compare": (MARKOV_DEFAULT, run_markov_compare, "tree value vs explicit FD solution on a state-dependent instance"),
    "viscosity-probe": (VISC_DEFAULT, run_viscosity_probe, "touch-point probe and residual sign for a classical solution"),
    "bshjb-check": (BSHJB_DEFAULT, run_bshjb_check, "noise-path BSDE vs augmented value on in-contract instances"),
    "comparison-demo": (COMPARISON_DEFAULT, run_comparison_demo, "doubling-of-variables maximization across a beta ladder"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathhjb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (defaults, _, help_text) in SUBCOMMANDS.items():
        sp = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            epilog="default config:\n" + yaml.safe_dump(defaults, sort_keys=False),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument("--config", default=None, help="YAML config file")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--override", action="append", default=[], metavar="KEY=VALUE", help="dotted config override"
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults, runner, _ = SUBCOMMANDS[args.subcommand]
    try:
        config = _load_config(defaults, args.config, args.override)
    except (ConfigError, ExpressionError, yaml.YAMLError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows, lines, code = runner(config, args.seed)
    except (ConfigError, ExpressionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"config error: coefficient expression failed to evaluate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowupError, CapacityError, ContractError, CFLError, MarkovProbeError, PathError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    outdir = FsPath(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / f"{args.subcommand}.csv", header, rows)
    _write_summary(outdir / "summary.txt", lines)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

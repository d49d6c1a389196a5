"""Seeded task lists for the benchmark's three workloads.

A workload is a fixed list of tasks built from one seed. Each task runs one
call (or one short sequence of calls) into the public pathhjb API and returns
a tuple of numbers; its oracle checks that tuple afterwards, outside the
task's timed region, and returns None or a failure message. Oracles may read
the outputs of earlier tasks of the same pass through ``results``.

Problems are built by ``Workload.construct`` rather than at task-list build
time, so a traced run can build them again after its wrappers are installed.

Every task calls pathhjb through module attributes (``control.value``, not a
name imported from it), so that the traced run's wrappers see the call.

Composition: within a workload the task kinds have well separated latencies,
and their counts put the 50th and 90th latency percentiles several tasks away
from any boundary between two kinds, so that a percentile never flips between
kinds from run to run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable, Optional

import numpy as np
import yaml

from pathhjb import bshjb, cli, control, funcalc, gauge, phjb, presets, sampling, varprinciple
from pathhjb.pathspace import GridConfig, Path, _joint_gap

# Tolerances pinned by the acceptance suite.
EXACT_TOL = 1e-12
REPLAY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
SLACK_TOL = 1e-12
PROBE_TOL = 1e-8


@dataclass(frozen=True)
class Task:
    kind: str
    key: str
    run: Callable[[dict], tuple]
    check: Callable[[tuple, dict], Optional[str]]


@dataclass(frozen=True)
class Workload:
    tasks: tuple
    construct: Callable[[], dict]

    def kind_counts(self) -> dict:
        counts: dict = {}
        for task in self.tasks:
            counts[task.kind] = counts.get(task.kind, 0) + 1
        return counts


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _within(label: str, got: float, want: float, tol: float) -> Optional[str]:
    if abs(got - want) <= tol:
        return None
    return f"{label}: got {got!r}, expected {want!r} within {tol}"


def _at_least(label: str, got: float, floor: float) -> Optional[str]:
    return None if got >= floor else f"{label}: {got!r} < {floor}"


def _first(*messages: Optional[str]) -> Optional[str]:
    return next((m for m in messages if m is not None), None)


def _value_and_replay(cp: control.ControlProblem, p0: Path) -> tuple:
    """Tree value, the cost of replaying its argmax strategy, and the root control."""
    v, strategy = control.value_with_strategy(cp, p0)
    replay = control.cost(cp, p0, strategy)
    return v, replay, float(strategy.control_at(p0))


def _check_replay(out: tuple, results: dict) -> Optional[str]:
    return _within("argmax replay", out[1], out[0], REPLAY_TOL)


def _check_residual(out: tuple, results: dict) -> Optional[str]:
    return None if out[0] <= RESIDUAL_TOL else f"residual {out[0]!r} > {RESIDUAL_TOL}"


# ---------------------------------------------------------------------------
# markov-ladder: endpoint-only presets, where the FD oracle does its work.

MARKOV_HORIZON = 0.5
VALUE_HORIZON = 1.0
X_LO, X_HI = -4.0, 4.0


def _heat_closed_form(x: float, tau: float, dt: float) -> float:
    return x * x + tau


def _quartic_tree_closed_form(x: float, tau: float, dt: float) -> float:
    # E[(x + S)^4] for S a sum of tau/dt independent +-sqrt(dt) moves.
    return x**4 + 6.0 * x * x * tau + 3.0 * tau * tau - 2.0 * tau * dt


_MARKOV_PRESETS = {
    "heat": (presets.heat_problem, _heat_closed_form),
    "quartic": (presets.quartic_problem, _quartic_tree_closed_form),
}


def _consistency_task(kind: str, preset: str, steps: int, nx: int, x: float, probe_seed: int, i: int) -> Task:
    key = f"{kind}.{preset}.{i}"
    closed_form = _MARKOV_PRESETS[preset][1]
    dt = MARKOV_HORIZON / steps

    def run(problems: dict) -> tuple:
        cp = problems[(preset, steps)]
        p = Path.constant(x, 0, dt)
        rep = phjb.markov_consistency(cp, p, phjb.XGrid(X_LO, X_HI, nx), seed=probe_seed)
        return rep.residual, rep.tree_value, rep.fd_value, rep.error_bound

    def check(out: tuple, results: dict) -> Optional[str]:
        residual, tree_value, _, bound = out
        return _first(
            None if residual <= bound else f"residual {residual!r} above its bound {bound!r}",
            _within("tree value", tree_value, closed_form(x, MARKOV_HORIZON, dt), EXACT_TOL),
        )

    return Task(kind, key, run, check)


def _preset_value_task(kind: str, preset: str, steps: int, x: float, i: int) -> Task:
    key = f"{kind}.{i}"
    dt = VALUE_HORIZON / steps

    def run(problems: dict) -> tuple:
        return _value_and_replay(problems[(preset, steps)], Path.constant(x, 0, dt))

    def check(out: tuple, results: dict) -> Optional[str]:
        # lq: max_u (u - u^2) over {0, 0.5, 1} is 0.25 per unit time.
        closed = _within("lq value", out[0], x + 0.25 * VALUE_HORIZON, EXACT_TOL) if preset == "lq" else None
        return _first(_check_replay(out, results), closed)

    return Task(kind, key, run, check)


def markov_ladder(seed: int, workdir: FsPath) -> Workload:
    """60 coarse consistency checks, 36 bang-bang values, 2 lq values, 2 fine checks.

    Latencies rise in that order (about 70, 130, 230 and 400 ms unscaled on a
    2-vCPU 2.0 GHz Xeon), so the median falls inside the coarse consistency
    checks and the 90th percentile inside the bang-bang values, with 10 tasks
    beyond it.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for i, s in enumerate(_seeds(rng, 60)):
        preset = ("heat", "quartic")[i % 2]
        tasks.append(_consistency_task("consistency_coarse", preset, 4, 41, float(rng.uniform(-1, 1)), s, i))
    for i in range(36):
        tasks.append(_preset_value_task("value_bangbang", "bangbang", 6, float(rng.uniform(-1, 1)), i))
    for i in range(2):
        tasks.append(_preset_value_task("value_lq", "lq", 5, float(rng.uniform(-1, 1)), i))
    for i, s in enumerate(_seeds(rng, 2)):
        preset = ("heat", "quartic")[i % 2]
        tasks.append(_consistency_task("consistency_fine", preset, 8, 81, float(rng.uniform(-1, 1)), s, i))

    def construct() -> dict:
        problems = {}
        for preset, (builder, _) in _MARKOV_PRESETS.items():
            for steps in (4, 8):
                problems[(preset, steps)] = builder(GridConfig(steps, MARKOV_HORIZON, 1, 1))
        problems[("bangbang", 6)] = presets.bangbang_problem(GridConfig(6, VALUE_HORIZON, 1, 1))
        problems[("lq", 5)] = presets.lq_problem(GridConfig(5, VALUE_HORIZON, 1, 1))
        return problems

    return Workload(tuple(tasks), construct)


# ---------------------------------------------------------------------------
# path-dependent: coefficients that read the whole path.

RANDOM_STEPS = 4
REMARK_STEPS = 8
REMARK_T_INDEX = 2
INLINE_STEPS = 4
INLINE_CONFIGS = 6
CLI_DPP_DELTAS = [2]


def _inline_config(rng: np.random.Generator) -> dict:
    """A seeded inline problem that reads rint, rmax, y and z through the grammar."""
    a = [round(float(c), 6) for c in rng.uniform(-0.3, 0.3, size=3)]
    b0, b1 = round(float(rng.uniform(0.5, 0.7)), 6), round(float(rng.uniform(0.05, 0.2)), 6)
    # The y coefficient has a fixed size, so that the implicit step takes about
    # as many fixed-point rounds whatever the seed.
    c = [0.2 * float(rng.choice((-1, 1)))] + [round(float(v), 6) for v in rng.uniform(-0.3, 0.3, size=2)]
    d = [round(float(v), 6) for v in rng.uniform(0.1, 0.3, size=2)]
    controls = sorted(round(float(u), 3) for u in rng.uniform(-1.0, 1.0, size=2))
    return {
        "problem": {
            "inline": {
                "drift": [f"{a[0]}*u + {a[1]}*tanh(x) + {a[2]}*tanh(rint)"],
                "diffusion": [[f"{b0} + {b1}*tanh(rmax)"]],
                "generator": f"-0.1*u*u + {c[0]}*tanh(y) + {c[1]}*tanh(z) + {c[2]}*tanh(rint)",
                "terminal": f"tanh(x) + {d[0]}*rmax + {d[1]}*sin(rint)",
                "controls": controls,
            }
        },
        "grid": {"steps": INLINE_STEPS, "horizon": 1.0, "dim": 1, "noise_dim": 1},
        "start_value": round(float(rng.uniform(-0.5, 0.5)), 6),
    }


def _capture_cli(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().splitlines()


def path_dependent(seed: int, workdir: FsPath) -> Workload:
    """40 reduction checks, 20 values, 6 open-loop sweeps, 6 DPP checks, 6 inline
    values, 6 CLI values and 16 CLI DPP runs.

    Latencies are about 20, 35, 60-100 and 150 ms unscaled on a 2-vCPU 2.0 GHz
    Xeon: the median falls among the reduction checks and random-problem
    values, and the 90th percentile inside the CLI DPP runs, with 10 tasks
    beyond it.
    """
    rng = np.random.default_rng(seed)
    grid = GridConfig(RANDOM_STEPS, 1.0, 1, 1)
    n_random = 20
    random_seeds = _seeds(rng, n_random)
    starts = [float(rng.normal() * 0.3) for _ in range(n_random)]
    tasks = []

    augmented_seeds = _seeds(rng, 40)
    for i in range(len(augmented_seeds)):
        omega = sampling.random_path(rng, 1, 1.0 / REMARK_STEPS, REMARK_T_INDEX)

        def run(problems, i=i, omega=omega):
            return (bshjb.remark64_check(problems[("augmented", i)], omega),)

        tasks.append(Task("remark64", f"remark64.{i}", run, _check_residual))

    for i in range(n_random):

        def run(problems, i=i):
            return _value_and_replay(problems[("random", i)], Path.constant(starts[i], 0, grid.dt))

        tasks.append(Task("value_random", f"value_random.{i}", run, _check_replay))

    for i in range(6):

        def run(problems, i=i):
            cp = problems[("random", i)]
            p0 = Path.constant(starts[i], 0, grid.dt)
            costs = [
                control.cost(cp, p0, control.ControlStrategy(open_loop=seq))
                for seq in itertools.product(cp.controls, repeat=RANDOM_STEPS)
            ]
            return max(costs), min(costs)

        def check(out, results, i=i):
            v = results[f"value_random.{i}"][0]
            return None if v >= out[0] - REPLAY_TOL else f"open loop {out[0]!r} beats the value {v!r}"

        tasks.append(Task("open_loop", f"open_loop.{i}", run, check))

    for j, delta in enumerate((1, 2, 3) * 2):
        i = n_random - 1 - j // 3

        def run(problems, i=i, delta=delta):
            return (control.dpp_check(problems[("random", i)], Path.constant(starts[i], 0, grid.dt), delta),)

        tasks.append(Task("dpp", f"dpp.{j}", run, _check_residual))

    configs = [_inline_config(rng) for _ in range(INLINE_CONFIGS)]
    config_files = []
    for i, config in enumerate(configs):
        value_file = workdir / f"inline{i}.value.yaml"
        dpp_file = workdir / f"inline{i}.dpp.yaml"
        value_file.write_text(yaml.safe_dump(config), encoding="utf-8")
        dpp_file.write_text(yaml.safe_dump(dict(config, deltas=CLI_DPP_DELTAS)), encoding="utf-8")
        config_files.append((str(value_file), str(dpp_file)))
    cli_out = str(workdir / "cli")

    for i, config in enumerate(configs):

        def run(problems, i=i, config=config):
            cp = problems[("inline", i)]
            return _value_and_replay(cp, Path.constant(config["start_value"], 0, cp.grid.dt))

        tasks.append(Task("value_inline", f"value_inline.{i}", run, _check_replay))

    for i in range(INLINE_CONFIGS):

        def run(problems, i=i):
            code, lines = _capture_cli(["value", "--config", config_files[i][0], "--out", cli_out])
            # The summary line is "value: <repr> with root control <repr>".
            v = float(lines[-1].split()[1]) if code == 0 else float("nan")
            return code, v

        def check(out, results, i=i):
            want = results[f"value_inline.{i}"][0]
            return _first(
                None if out[0] == cli.EXIT_OK else f"exit code {out[0]}",
                _within("CLI value against the API value", out[1], want, EXACT_TOL),
            )

        tasks.append(Task("cli_value", f"cli_value.{i}", run, check))

    for j in range(16):
        i = j % INLINE_CONFIGS

        def run(problems, i=i):
            code, lines = _capture_cli(["dpp", "--config", config_files[i][1], "--out", cli_out])
            return code, float(lines[-1] == "PASS")

        def check(out, results):
            return None if out == (cli.EXIT_OK, 1.0) else f"exit code {out[0]}, PASS summary {bool(out[1])}"

        tasks.append(Task("cli_dpp", f"cli_dpp.{j}", run, check))

    def construct() -> dict:
        problems = {}
        for i, s in enumerate(random_seeds):
            problems[("random", i)] = presets.random_problem(grid, seed=s)
        for i, s in enumerate(augmented_seeds):
            problems[("augmented", i)] = presets.random_augmented_problem(REMARK_STEPS, 1.0, seed=s)
        for i, config in enumerate(configs):
            # The CLI's own builder, so the API tasks see the problems the CLI runs.
            full = cli._load_config(cli.VALUE_DEFAULT, config_files[i][0], [])
            problems[("inline", i)] = cli._problem_from(full, cli._grid_from(full))
        return problems

    return Workload(tuple(tasks), construct)


# ---------------------------------------------------------------------------
# pathwise: no tree; gauge, functional calculus, perturbed maximization.

GAUGE_PAIRS = 300
ITO_PATHS = 150
ITO_STEPS = 16
BP_CANDIDATES = 200
PROBE_CLOUD = 200


def _probe_task(i: int, s: int) -> Task:
    key = f"probe.{i}"

    def run(problems: dict) -> tuple:
        cp, sol = problems["heat"]
        rng = np.random.default_rng(s)
        p = sampling.random_path(rng, 1, cp.grid.dt, int(rng.integers(0, cp.grid.steps)))
        probe = phjb.subsolution_probe(cp, sol, sol, p, n_cloud=PROBE_CLOUD, seed=s)
        return float(probe.is_touch_point), probe.residual, phjb.phjb_residual(cp, sol, p)

    def check(out: tuple, results: dict) -> Optional[str]:
        return _first(
            None if out[0] == 1.0 else "the classical solution is not a touch point",
            _at_least("probe residual", out[1], -PROBE_TOL),
            _at_least("classical residual", out[2], -PROBE_TOL),
        )

    return Task("probe", key, run, check)


def _bp_task(i: int, s: int) -> Task:
    key = f"borwein_preiss.{i}"
    eps = 0.5

    def run(problems: dict) -> tuple:
        rng = np.random.default_rng(s)
        items = tuple(sampling.random_path(rng, 1, 0.1, int(rng.integers(0, 7))) for _ in range(BP_CANDIDATES))
        domain = varprinciple.CandidateSet(items)
        c = rng.normal(size=3)
        f = funcalc.PathFunctional(
            eval=lambda p: float(c[0] * np.tanh(p.values[0, -1]) + c[1] * np.cos(p.t) + c[2] * np.tanh(p.values[0].mean()))
        )
        start = max(items, key=f.eval)
        result = varprinciple.borwein_preiss(f, gauge.upsilon_bar, None, eps, start, domain)
        ok = varprinciple.verify_bp(result, f, gauge.upsilon_bar, None, eps, start, domain)
        return float(ok), result.rounds, result.perturbation_value

    def check(out: tuple, results: dict) -> Optional[str]:
        return None if out[0] == 1.0 else "verify_bp rejected the result"

    return Task("borwein_preiss", key, run, check)


def _gauge_task(i: int, s: int) -> Task:
    key = f"gauge.{i}"
    m, big_m = list(itertools.product((1, 2, 3), (3.0, 5.0)))[i % 6]

    def run(problems: dict) -> tuple:
        rng = np.random.default_rng(s)
        g = gauge.GaugeParams(m, big_m)
        worst = np.inf
        for _ in range(GAUGE_PAIRS):
            p, q = sampling.random_pair(rng, 1, 0.125, 8, 0.5)
            ups = gauge.upsilon(p, q, g)
            gap = _joint_gap(p, q) ** (2 * m)
            worst = min(worst, ups - gap, big_m * gap - ups, gauge.subadditivity_gap(p, q, g))
        return (worst,)

    def check(out: tuple, results: dict) -> Optional[str]:
        return _at_least("worst slack", out[0], -SLACK_TOL)

    return Task("gauge", key, run, check)


def _ito_task(i: int, s: int, coeffs: np.ndarray) -> Task:
    slope, shift, drift, vol, x0 = (float(v) for v in coeffs)

    def run(problems: dict) -> tuple:
        affine = funcalc.endpoint_functional(
            lambda x: slope * float(x[0]) + shift,
            grad=lambda x: np.array([slope]),
            hess=lambda x: np.zeros((1, 1)),
        )
        p0 = Path.constant(x0, 0, 1.0 / ITO_STEPS)
        res = funcalc.ito_check(
            affine, lambda p: np.array([drift]), lambda p: np.array([[vol]]), p0, ITO_STEPS, ITO_PATHS, s
        )
        return (res,)

    return Task("ito", f"ito.{i}", run, _check_residual)


def pathwise(seed: int, workdir: FsPath) -> Workload:
    """20 viscosity probes, 30 perturbed maximizations, 40 gauge batches, 30 Ito batches.

    Latencies are about 10, 10-25, 45 and 85 ms unscaled on a 2-vCPU 2.0 GHz
    Xeon: the median falls inside the gauge batches and the 90th percentile
    inside the Ito batches.
    """
    rng = np.random.default_rng(seed)
    tasks = [_probe_task(i, s) for i, s in enumerate(_seeds(rng, 20))]
    tasks += [_bp_task(i, s) for i, s in enumerate(_seeds(rng, 30))]
    tasks += [_gauge_task(i, s) for i, s in enumerate(_seeds(rng, 40))]
    for i, s in enumerate(_seeds(rng, 30)):
        coeffs = np.array([rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5), rng.uniform(-1, 1)])
        tasks.append(_ito_task(i, s, coeffs))

    def construct() -> dict:
        grid = GridConfig(6, 0.75, 1, 1)
        return {"heat": (presets.heat_problem(grid), presets.heat_solution(grid))}

    return Workload(tuple(tasks), construct)


WORKLOADS = {
    "markov-ladder": markov_ladder,
    "path-dependent": path_dependent,
    "pathwise": pathwise,
}


def build(name: str, seed: int, workdir: FsPath) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed % 2**63, workdir)

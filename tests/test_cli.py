import filecmp
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path as FsPath

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pathhjb import cli
from pathhjb.cli import BP_DEFAULT, SUBCOMMANDS, _load_config, build_parser, main, run_bp_demo

FAST_OVERRIDES = {
    "gauge-suite": ["pairs=100"],
    "ito-check": ["n_paths=100", "levels=2"],
    "bp-demo": ["cases=3", "candidates=60"],
    "value": [],
    "dpp": [],
    "markov-compare": ["levels=2", "base_nx=21"],
    "viscosity-probe": ["n_paths=3", "cloud=50"],
    "bshjb-check": ["instances=3"],
    "comparison-demo": ["pairs=60"],
}


def _run(name, out, extra=()):
    argv = [name, "--out", str(out)]
    for ov in FAST_OVERRIDES[name] + list(extra):
        argv += ["--override", ov]
    return main(argv)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommand_runs_and_writes_outputs(name, tmp_path):
    code = _run(name, tmp_path)
    assert code == 0
    csv_file = tmp_path / f"{name}.csv"
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert "," in header
    assert (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize("name", ["gauge-suite", "dpp", "comparison-demo"])
def test_outputs_bit_identical_across_runs(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(name, a) == 0
    assert _run(name, b) == 0
    assert filecmp.cmp(a / f"{name}.csv", b / f"{name}.csv", shallow=False)
    assert filecmp.cmp(a / "summary.txt", b / "summary.txt", shallow=False)


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gauge-suite", "--out", str(a), "--override", "pairs=50"])
    main(["gauge-suite", "--out", str(b), "--override", "pairs=50", "--seed", "1"])
    assert not filecmp.cmp(a / "gauge-suite.csv", b / "gauge-suite.csv", shallow=False)


def test_unknown_key_rejected(tmp_path):
    assert main(["gauge-suite", "--out", str(tmp_path), "--override", "bogus=1"]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    assert main(["dpp", "--out", str(tmp_path), "--override", "grid.bogus=1"]) == 2


def test_empty_config_file_rejected(tmp_path):
    cfg = tmp_path / "empty.yaml"
    cfg.write_text("")
    assert main(["gauge-suite", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_config_file_merges(tmp_path):
    cfg = tmp_path / "conf.yaml"
    cfg.write_text(yaml.safe_dump({"pairs": 40, "ms": [2]}))
    assert main(["gauge-suite", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "gauge-suite.csv").read_text().splitlines()
    assert len(rows) == 1 + 40 * 2  # header + pairs * len(big_ms)


def test_cap_violation_exit_code(tmp_path):
    assert main(["dpp", "--out", str(tmp_path), "--override", "grid.steps=25"]) == 3


def test_inline_problem_expressions(tmp_path):
    cfg = tmp_path / "inline.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "problem": {
                    "inline": {
                        "drift": ["u"],
                        "diffusion": [["1"]],
                        "generator": "-u*u",
                        "terminal": "x",
                        "controls": [0.0, 0.5, 1.0],
                    }
                }
            }
        )
    )
    assert main(["value", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    row = (tmp_path / "value.csv").read_text().splitlines()[1]
    assert float(row.split(",")[0]) == pytest.approx(0.25)


def test_inline_path_dependent_problem_dpp(tmp_path):
    # running-statistics variables exercise the grammar on genuinely
    # path-dependent coefficients; the DPP identity must still hold
    cfg = tmp_path / "pd.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "problem": {
                    "inline": {
                        "drift": ["0.2*tanh(rint) + 0.1*u"],
                        "diffusion": [["0.5 + 0.1*tanh(x)"]],
                        "generator": "0.1*tanh(y) + 0.05*z - 0.1*u*u",
                        "terminal": "tanh(x) + 0.1*rmax",
                        "controls": [0.0, 1.0],
                    }
                }
            }
        )
    )
    assert main(["dpp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "dpp.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) <= 1e-10 for r in rows)


def test_expression_runtime_error_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "div.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "problem": {
                    "inline": {
                        "drift": ["1/x"],  # blows up at the zero start value
                        "diffusion": [["1"]],
                        "generator": "0",
                        "terminal": "x",
                        "controls": [0.0],
                    }
                }
            }
        )
    )
    assert main(["value", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == "config error: expression '1/x' failed to evaluate: float division by zero"
    # an overflow in exp or ** names the expression too
    for terminal, why in (("exp(1000 * x)", "math range error"), ("(2 + x) ** 2000", "(34, 'Numerical result out of range')")):
        assert main(["value", "--config", _inline(tmp_path, terminal=terminal), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: expression {terminal!r} failed to evaluate: {why}"


def _inline(tmp_path, **coeffs):
    inline = {"drift": ["u"], "diffusion": [["1"]], "generator": "0", "terminal": "x", "controls": [0.0, 1.0]}
    cfg = tmp_path / "inline.yaml"
    cfg.write_text(yaml.safe_dump({"problem": {"inline": {**inline, **coeffs}}}))
    return str(cfg)


def test_expression_domain_error_is_config_error(tmp_path, capsys):
    assert main(["value", "--config", _inline(tmp_path, terminal="log(x)"), "--out", str(tmp_path)]) == 2
    assert "math domain error" in capsys.readouterr().err
    assert main(["value", "--config", _inline(tmp_path, terminal="(x - 1)**0.5"), "--out", str(tmp_path)]) == 2
    assert main(["value", "--config", _inline(tmp_path, terminal="min(x)"), "--out", str(tmp_path)]) == 2
    assert main(["value", "--config", _inline(tmp_path, terminal="x\x00"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "key,text",
    [("generator", "-((-1.5) ** t)"), ("drift", "-((-1.5) ** dt)"), ("diffusion", "-((-1.5) ** dt)"), ("terminal", "-((-1.5) ** (T / 2))")],
)
def test_a_complex_coefficient_of_scalar_operands_is_a_config_error(key, text, tmp_path, capsys):
    value = {"drift": [text], "diffusion": [[text]]}.get(key, text)
    assert main(["value", "--config", _inline(tmp_path, **{key: value}), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: expression {text!r} evaluated to a complex number"


def test_integer_literal_too_large_for_a_float_is_named(tmp_path, capsys):
    drift = "1" + "0" * 400 + " * u"
    assert main(["value", "--config", _inline(tmp_path, drift=[drift]), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: expression {drift!r} has an integer literal that does not fit a float")
    assert not (tmp_path / "value.csv").exists()


@pytest.mark.parametrize(
    "coeffs,code,message",
    [
        ({"generator": "8*y"}, 3, "contract violation: implicit generator step does not contract: observed contraction ratio 2 "),
        ({"generator": "1e300*1e300*y"}, 3, "contract violation: generator produced a non-finite value"),
        # fails at the level-1 nodes below 0 only, inside one array call over the level
        ({"drift": ["sqrt(x)"]}, 2, "config error: expression 'sqrt(x)' failed to evaluate: math domain error"),
    ],
)
def test_a_coefficient_failing_inside_the_tree_exits_and_names_the_expression(coeffs, code, message, tmp_path, capsys):
    argv = ["value", "--config", _inline(tmp_path, **coeffs), "--override", "start_value=0.3", "--out", str(tmp_path)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)


def test_state_blowup_is_contract_violation(tmp_path):
    assert main(["value", "--config", _inline(tmp_path, drift=["1e300*1e300*u"]), "--out", str(tmp_path)]) == 3


def test_path_statistics_overflow_quietly_like_the_expressions(tmp_path, capsys):
    # the states pass 1e154, so rmax's squares overflow to inf; tanh(x) reads 1.0 there
    config = _inline(tmp_path, drift=["1e200*u"], terminal="tanh(x)", controls=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["value", "--config", config, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "value: 1.0 with root control 1.0"


def test_fd_solve_over_the_work_cap_fails_before_any_fd_work(tmp_path, capsys):
    # 4 steps x 21,701,389 substeps x 100,001 nodes: hours of explicit updates
    assert main(["markov-compare", "--override", "base_nx=100001", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.strip() == (
        "contract violation: explicit FD solve needs 4 steps x 21701389 substeps x 100001 nodes x 1 controls"
        " = 8.681e+12 node updates, over the cap 1e+08"
    )
    assert not (tmp_path / "summary.txt").exists()


def test_value_cap_counts_the_control_fan_out(tmp_path, capsys):
    assert main(["value", "--override", "grid.steps=12", "--out", str(tmp_path)]) == 3
    assert "6^12 = 2176782336 leaves, over the node cap 262144" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["ito-check", "--override", "n_paths=1000000000000000000"],
            "contract violation: Euler batch needs 1000000000000000000 paths x 1 x 9 = 9000000000000000000 path values, over the draw cap 1e+08",
        ),
        (
            ["gauge-suite", "--override", "pairs=1000000000000000000"],
            "contract violation: pair_sweep needs 2000000000000000000 paths x 1 x 9 = 18000000000000000000 path values, over the draw cap 1e+08",
        ),
    ],
)
def test_an_absurd_batch_exits_3_before_drawing(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not (tmp_path / "summary.txt").exists()


_NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "3", "1e300"])


def _expressions(names):
    leaves = st.one_of(_NUMBERS, st.sampled_from(sorted(names)))

    def extend(sub):
        unary = st.tuples(st.sampled_from(["abs", "sqrt", "exp", "log", "sin", "cos", "tanh", "-"]), sub)
        binary = st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "**"]), sub)
        pair = st.tuples(st.sampled_from(["min", "max"]), sub, sub)
        return st.one_of(
            unary.map(lambda a: f"{a[0]}({a[1]})"),
            binary.map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
            pair.map(lambda a: f"{a[0]}({a[1]}, {a[2]})"),
        )

    return st.recursive(leaves, extend, max_leaves=5)


# x1, rint1 and z1 name coordinates the one-dimensional fuzzed grid does not have
_PATH_NAMES = {"t", "T", "dt", "x", "rmax", "rint", "x0", "x1", "rint0", "rint1"}


@settings(max_examples=60, deadline=None)
@given(
    subcommand=st.sampled_from(["value", "dpp"]),
    steps=st.integers(1, 3),
    start=st.sampled_from([-1.0, 0.0, 0.5]),
    drift=_expressions(_PATH_NAMES | {"u"}),
    diffusion=_expressions(_PATH_NAMES | {"u"}),
    generator=_expressions(_PATH_NAMES | {"u", "y", "z", "z0", "z1"}),
    terminal=_expressions(_PATH_NAMES),
    controls=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=3),
)
def test_fuzzed_inline_configs_exit_with_a_documented_code(subcommand, steps, start, drift, diffusion, generator, terminal, controls):
    config = {
        "problem": {
            "inline": {
                "drift": [drift],
                "diffusion": [[diffusion]],
                "generator": generator,
                "terminal": terminal,
                "controls": controls,
            }
        },
        "grid": {"steps": steps, "horizon": 1.0, "dim": 1, "noise_dim": 1},
        "start_value": start,
    }
    if subcommand == "dpp":
        config["deltas"] = list(range(1, steps + 1))
    with tempfile.TemporaryDirectory() as out:
        cfg = f"{out}/fuzz.yaml"
        with open(cfg, "w") as fh:
            yaml.safe_dump(config, fh)
        assert main([subcommand, "--config", cfg, "--out", out]) in (0, 2, 3, 4)


@pytest.mark.parametrize(
    "argv",
    [
        ["value", "--override", "grid.steps=abc"],
        ["value", "--override", "grid.horizon=[1, 2]"],
        ["value", "--override", "cap=.inf"],
        ["dpp", "--override", "deltas=3"],
        ["dpp", "--override", "deltas=[1, x]"],
        ["markov-compare", "--override", "levels=abc"],
        ["markov-compare", "--override", "x_lo=foo"],
        ["markov-compare", "--override", "preset=[1]"],
        ["bp-demo", "--override", "max_t_index=null"],
        ["value", "--override", "grid=5"],
    ],
)
def test_malformed_override_is_config_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_malformed_inline_values_are_config_errors(tmp_path):
    for coeffs in ({"controls": ["a"]}, {"controls": 1.0}, {"drift": "u"}, {"diffusion": ["1"]}, {"generator": 0}):
        assert main(["value", "--config", _inline(tmp_path, **coeffs), "--out", str(tmp_path)]) == 2


def test_override_merges_into_the_config_file(tmp_path):
    cfg = tmp_path / "conf.yaml"
    cfg.write_text(yaml.safe_dump({"grid": {"steps": 2}}))
    argv = ["value", "--config", str(cfg), "--out", str(tmp_path), "--override", "grid.horizon=2"]
    assert main(argv + ["--override", "problem.preset=heat"]) == 0
    # heat: x^2 + T at the zero start
    assert (tmp_path / "value.csv").read_text().splitlines()[1] == "2,0"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# SHA-256 of the CSV and summary.txt; any drift in a last digit shows here
_PINNED = {
    "markov-compare": (
        "markov-compare",
        [],
        "97f6a15191cbca208ad9a9c74ea81b4375d0bbf3f6e356781489407262a38f97",
        "cab3b19611604e864bed63f4c177e56b6d13fea2137f3aa1889ba0beb634dc5e",
    ),
    "viscosity-probe": (
        "viscosity-probe",
        [],
        "77e8276fd1a12a5ca8ca9030639f6e6de364b4ce8aa0a6149ef9a911a0a6dc28",
        "86bf16c79a07576a29ed0e4fffb4ce02feee631114bc736f50d9523b144da50c",
    ),
    "ito-check-square": (
        "ito-check",
        ["n_paths=100", "functional=square"],
        "cd29bbcb48fe5391f56793625e1688cf2ca3e9a73eeed707b1ac275a82c5727c",
        "c2f5550403dc40687ae93b4a027a15461c805cf86e9e602387a7e1868c388ca7",
    ),
    "ito-check-gauge": (
        "ito-check",
        ["n_paths=100", "functional=gauge"],
        "d5d2b4a0463618a176552aaa33cc58443cc45e86918ea9eb29659f8b8a924d46",
        "60ec2078fb95a87d9c47bdda15f84b2d5820028a7805ad7680875b310a9a516a",
    ),
    "gauge-suite": (
        "gauge-suite",
        [],
        "d882feabbf128e06b4ac46cd3d5ffdd4bf4cdbff7c3fc7e1ec3ecc34435aaa46",
        "a2271aebf579f7093d81a82a0c24994b979fae495da5461e365e56773db6f08e",
    ),
    # the gauge sweep off its defaults: d > 1, one-node paths, zero paths (the zero
    # branch of every pair) and the largest m
    "gauge-suite-dim2": (
        "gauge-suite",
        ["dim=2"],
        "26c9b092bfff1cfbd29e6253efd24103a9323b067a9e767a2ec3b9c609f3a4cb",
        "5f039307ea43dcb46f36b7ec840e9ad4bd4b8d81d8e6ab699dd46b99905fc85d",
    ),
    "gauge-suite-t0": (
        "gauge-suite",
        ["t_index=0"],
        "25c12a452d481e5bb0462c005791ade66a194d4c49e92755e96276ea1da172f6",
        "e68d1a28e358f9d63270da8fbce3b31ef9db88ed4fd7617a170d3d6268031cba",
    ),
    "gauge-suite-scale0": (
        "gauge-suite",
        ["scale=0.0"],
        "2ff4d56a11b0b9651fc302b71b225275003ab108f5e02f9497d9ccb884423e26",
        "e68d1a28e358f9d63270da8fbce3b31ef9db88ed4fd7617a170d3d6268031cba",
    ),
    "gauge-suite-m6": (
        "gauge-suite",
        ["ms=[6]"],
        "709035cc204c0cc55c7b6f2b5354acb60e4604a587fff231766eb75d9eb11803",
        "6133c026ba552e91c76c2409ee43cfc137362fd020074e0264e01b591ecca957",
    ),
    "comparison-demo": (
        "comparison-demo",
        [],
        "24d2ec08d0ccba13204434ba7f6044400509810263947095fe24cfab68f166f4",
        "6bc4b58993e02dbe783d267b20981c4ed1142b7b18088b549e8aba78ba0b733f",
    ),
    "bp-demo": (
        "bp-demo",
        [],
        "4927b0b5a1a0c22cfa525b3351be245999d43f1dfb2746a78328edd0ba11da3d",
        "09de4a3113ef62fd5707def5650636258d51938edfbb3f67fdddfaf33b94b165",
    ),
    # the one subcommand that runs augment, remark64_check and random_augmented_problem
    "bshjb-check": (
        "bshjb-check",
        [],
        "8830d157e5cbf8b407592f2778b32bfc123ceacb954f7f8cf2504ca16635b49c",
        "6f6a20040551366559dc0ba1af400efc4e2efce9b87ea991bb66d74f37bfb7ab",
    ),
    # the named presets, read through their array forms
    "value": (
        "value",
        [],
        "ac8412b3f9bd2974c78d5332f0e8878d9ae78d9459d9feddc4057d39af1204fc",
        "80506987a395e799cf77d75879a62792094ce4cd67a6189faf69139a69bc5f2b",
    ),
    "dpp": (
        "dpp",
        [],
        "a0ccc9fcd88b968e2a81d521ea73e2b4761d562666ad694c704429ec1ee83892",
        "dd634cf1aca308230fc878369bc196a949361fec1cd3dec3ff43d10be424d039",
    ),
    "value-bangbang": (
        "value",
        ["problem.preset=bangbang"],
        "58534c7d0ad1c208511d78740ac4bd77244ac3c53d92dd791f5656dcb89ed158",
        "eabd3de0aeb11f6cc96e6399e7a5ab3d98bb900fdfdc187678b70ef0adc01191",
    ),
    # the inline grammar on path-dependent coefficients: rint, rmax, y and z
    "value-inline": (
        "value",
        [
            'problem.inline.drift=["0.2*tanh(rint) + 0.1*u"]',
            'problem.inline.diffusion=[["0.5 + 0.1*tanh(rmax)"]]',
            "problem.inline.generator=0.1*tanh(y) + 0.05*z - 0.1*u*u",
            "problem.inline.terminal=tanh(x) + 0.1*rmax + 0.05*sin(rint)",
            "problem.inline.controls=[0.0, 1.0]",
        ],
        "9aebd3e6ecbd50f0557af91a76abfcfccc4ec38442d17138299dd4f426b57542",
        "c4374b8e3748e45b4da107ef6d67b1f4e13b4ef3532cb1827aee57017eb54e26",
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_outputs_are_pinned(case, tmp_path):
    subcommand, overrides, csv_digest, summary_digest = _PINNED[case]
    argv = [subcommand, "--out", str(tmp_path)]
    for spec in overrides:
        argv += ["--override", spec]
    assert main(argv) == 0
    assert _digest(tmp_path / f"{subcommand}.csv") == csv_digest
    assert _digest(tmp_path / "summary.txt") == summary_digest


def test_bp_demo_default_rows_exercise_the_perturbation():
    # the start is the first candidate within eps/2 of the maximum, so some
    # rows select another point and pay a nonzero perturbation
    _, rows, _, code = run_bp_demo(BP_DEFAULT, 0)
    assert code == 0 and any(row[3] > 0 for row in rows)


@pytest.mark.parametrize("subcommand", ["value", "dpp", "viscosity-probe", "comparison-demo"])
@pytest.mark.parametrize("spec", ["grid.dim=2", "grid.noise_dim=2"])
def test_one_dimensional_presets_reject_other_grids(subcommand, spec, tmp_path, capsys):
    assert main([subcommand, "--override", spec, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("contract violation: one-dimensional preset") and spec.split(".")[1] in err


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["ito-check", "--override", "n_paths=-3"], 2, "config error: n_paths must be a nonnegative int, got -3"),
        (["gauge-suite", "--override", "pairs=-1"], 2, "config error: pairs must be a nonnegative int, got -1"),
        (["bp-demo", "--override", "cases=-2"], 2, "config error: cases must be a nonnegative int, got -2"),
        (["ito-check", "--override", "n_paths=0"], 3, "contract violation: ito_check n_paths must be an integer >= 1, got 0"),
        (["gauge-suite", "--override", "pairs=0"], 2, "config error: pairs must be at least 1, got 0"),
        (["gauge-suite", "--override", "big_ms=[]"], 2, "config error: big_ms must be nonempty, got []"),
        (["bp-demo", "--override", "cases=0"], 2, "config error: cases must be at least 1, got 0"),
        (["dpp", "--override", "deltas=[]"], 2, "config error: deltas must be nonempty, got []"),
        (["viscosity-probe", "--override", "n_paths=0"], 2, "config error: n_paths must be at least 1, got 0"),
        (["bshjb-check", "--override", "instances=0"], 2, "config error: instances must be at least 1, got 0"),
        (["comparison-demo", "--override", "betas=[]"], 2, "config error: betas must be nonempty, got []"),
        (["ito-check", "--override", "n_paths=2.7"], 2, "config error: n_paths must be a nonnegative int, got 2.7"),
        (["ito-check", "--override", "levels=true"], 2, "config error: levels must be a nonnegative int, got True"),
        (["dpp", "--override", "deltas=[1, 1.5]"], 2, "config error: deltas must be a nonnegative int, got 1.5"),
        (["gauge-suite", "--override", "scale=-1"], 3, "contract violation: pair_sweep needs 0 < dt < inf and 0 <= scale < inf, got 0.125, -1.0"),
        (["ito-check", "--override", "levels=0"], 2, "config error: levels must be at least 1, got 0"),
        (["markov-compare", "--override", "levels=0"], 2, "config error: levels must be at least 1, got 0"),
        (["ito-check", "--override", "base_steps=0"], 2, "config error: base_steps must be at least 1, got 0"),
        (["markov-compare", "--override", "base_steps=0"], 2, "config error: base_steps must be at least 1, got 0"),
        (["viscosity-probe", "--override", "cloud=0"], 2, "config error: cloud must be at least 1, got 0"),
        (["bshjb-check", "--override", "steps=0"], 2, "config error: steps must be at least 1, got 0"),
        *(([name, "--seed", "-1"], 2, "config error: seed must be an integer >= 0, got -1") for name in SUBCOMMANDS),
        (["value", "--override", "grid.horizon=true"], 2, "config error: grid.horizon must be a float, got True"),
        (["value", "--override", "start_value=true"], 2, "config error: start_value must be a float, got True"),
        (["dpp", "--override", "tolerance=false"], 2, "config error: tolerance must be a float, got False"),
        (["gauge-suite", "--override", "big_ms=[true]"], 2, "config error: big_ms must be a float, got True"),
        (["gauge-suite", "--override", "scale=true"], 2, "config error: scale must be a float, got True"),
        (["gauge-suite", "--override", "dt=true"], 2, "config error: dt must be a float, got True"),
        (["bp-demo", "--override", "dt=true"], 2, "config error: dt must be a float, got True"),
        (["gauge-suite", "--override", "big_ms=[1e300]"], 3, "contract violation: M must be at most 1e+130 in size, got 1e+300"),
        (
            ["markov-compare", "--override", "base_steps=64"],
            3,
            "contract violation: tree of depth 64 needs 2^64 leaves, more than 2^63, over the node cap 262144",
        ),
    ],
)
def test_counts_out_of_range_are_rejected(argv, code, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize(
    "out,errno_text",
    [
        ("taken", "[Errno 17] File exists"),  # --out names a file
        ("taken/sub", "[Errno 20] Not a directory"),  # a path under one
        ("dir", "[Errno 21] Is a directory"),  # the CSV's own name is a directory
    ],
)
def test_an_out_path_that_cannot_hold_the_outputs_is_a_config_error(out, errno_text, tmp_path, capsys):
    (tmp_path / "taken").write_text("kept\n")
    (tmp_path / "dir" / "value.csv").mkdir(parents=True)
    where = tmp_path / out
    assert main(["value", "--out", str(where)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot write the outputs to --out {where}: {errno_text}")
    assert captured.out == ""
    assert (tmp_path / "taken").read_text() == "kept\n"


_OUT_OF_RANGE = "config error: a value left the double range: (34, 'Numerical result out of range')"
_DX_SQUARED = (
    "contract violation: x grid spacing dx=5e+298 has a square past the double range, from lo=-1e+300, hi=1e+300, nx=41"
)


@pytest.mark.parametrize(
    "argv,code,message",
    [
        # Python float powers past the double range, in commands that read no expression
        (["gauge-suite", "--override", "scale=1e30"], 2, _OUT_OF_RANGE),
        # an x grid spacing whose square leaves the double range is refused before the FD rates
        (["markov-compare", "--override", "x_lo=-1e300", "--override", "x_hi=1e300"], 3, _DX_SQUARED),
        (["bp-demo", "--override", "dt=1e300"], 2, _OUT_OF_RANGE),
        (["ito-check", "--override", "horizon=1e308"], 2, _OUT_OF_RANGE),
        (["value", "--override", "problem.preset=heat", "--override", "start_value=1e308"], 2, _OUT_OF_RANGE),
        # no start within eps/2 of the max: the perturbed maximization refuses eps, as at 0
        (["bp-demo", "--override", "eps_slack=-1"], 3, "contract violation: eps must be > 0"),
        (["bp-demo", "--override", "eps_slack=.nan"], 3, "contract violation: eps must be > 0"),
        (["bp-demo", "--override", "eps_slack=0"], 3, "contract violation: eps must be > 0"),
        # a scale whose square on the path passes the double range
        (["gauge-suite", "--override", "scale=1e160", "--override", "pairs=5"], 2, _OUT_OF_RANGE),
    ],
)
def test_arithmetic_outside_the_expressions_is_not_named_an_expression(argv, code, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow on the way
        assert main(argv + ["--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["ito-check", "--override", "horizon=1e308"], 2, _OUT_OF_RANGE),
        (["markov-compare", "--override", "x_lo=-1e300", "--override", "x_hi=1e300"], 3, _DX_SQUARED),
        (["gauge-suite", "--override", "scale=1e160", "--override", "pairs=5"], 2, _OUT_OF_RANGE),
        (["gauge-suite", "--override", "scale=1e30", "--override", "pairs=5"], 2, _OUT_OF_RANGE),
        (["gauge-suite", "--override", "scale=1e308", "--override", "pairs=5"], 3, "contract violation: path values must be finite"),
    ],
)
def test_out_of_range_runs_raise_no_warning_on_the_way(argv, code, message, tmp_path, capsys):
    # ito_check accumulates its residuals under errstate: an overflow leaves a non-finite
    # residual, and only the exit message reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("spec,got", [("x_lo=-.inf", "lo=-inf, hi=4.0"), ("x_hi=.inf", "lo=-4.0, hi=inf"), ("x_hi=1e308", None)])
def test_infinite_x_grids_are_contract_violations_before_any_arithmetic(spec, got, tmp_path, capsys):
    argv = ["markov-compare", "--override", spec, "--override", "levels=1", "--out", str(tmp_path)]
    if got is None:  # -4 .. 1e308 is finite, but its span over 40 cells is not
        argv += ["--override", "x_lo=-1e308"]
        got = "lo=-1e+308, hi=1e+308"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 3
    assert capsys.readouterr().err.strip() == f"contract violation: x grid needs finite lo, hi and dx, got {got}, nx=41"


_NOT_NUMBERS = ["abc", "foo", "[1, 2]", "{a: 1}", "null", "''"]
_MALFORMED = _NOT_NUMBERS + [".nan", ".inf", "-.inf", "true", "1e400", "[]", "{}", "-3", "2.7"]
# Well-formed values per key, small enough that every run stays desk-scale.
_OVERRIDES = {
    "value": {
        "grid.steps": ["1", "2", "3"],
        "grid.horizon": ["0.5", "1.0", "0"],
        "grid.dim": ["1", "2"],
        "grid.noise_dim": ["1", "2"],
        "start_value": ["0", "-1.5", "2"],
        "cap": ["0", "10", "262144"],
        "problem.preset": ["lq", "heat", "bangbang", "running", "nope"],
        "problem.inline.controls": ["[0.0, 1.0]", "[2]"],
        "problem.inline.drift": ['["u"]', '["x*u"]'],
        "problem.inline.terminal": ["x", "rmax"],
    },
    "markov-compare": {
        "levels": ["0", "1"],
        "base_steps": ["1", "2"],
        "base_nx": ["3", "11", "21"],
        "horizon": ["0.25", "0.5", "2"],
        "x_lo": ["-4", "-2.5"],
        "x_hi": ["2", "4.0"],
        "eval_x": ["0.4", "-1", "9"],
        "preset": ["quartic", "heat", "lq", "bangbang", "running", "nope"],
    },
}
_OVERRIDES["dpp"] = {**_OVERRIDES["value"], "deltas": ["[1]", "[1, 2]", "[0]", "[9]", "[]"], "tolerance": ["1e-10", "-1"]}
_NUMERIC_KEYS = {"grid.steps", "grid.horizon", "grid.dim", "grid.noise_dim", "start_value", "cap", "tolerance"}
_NUMERIC_KEYS |= {"levels", "base_steps", "base_nx", "horizon", "x_lo", "x_hi", "eval_x"}
_INT_KEYS = {"grid.steps", "grid.dim", "grid.noise_dim", "cap", "levels", "base_steps", "base_nx"}
_BASE_OVERRIDES = {"value": [], "dpp": ["deltas=[1]"], "markov-compare": ["levels=1", "base_steps=2", "base_nx=11"]}


@st.composite
def _override_specs(draw):
    subcommand = draw(st.sampled_from(sorted(_OVERRIDES)))
    keys = _OVERRIDES[subcommand]
    specs = []
    for key in draw(st.lists(st.sampled_from(sorted(keys) + ["bogus", "grid.bogus"]), min_size=1, max_size=3)):
        good = keys.get(key, ["1"])
        specs.append((key, draw(st.one_of(st.sampled_from(good), st.sampled_from(_MALFORMED)))))
    return subcommand, draw(st.booleans()), specs


@settings(max_examples=80, deadline=None)
@given(_override_specs())
def test_fuzzed_overrides_exit_with_a_documented_code(drawn):
    subcommand, inline, specs = drawn
    argv = [subcommand]
    for spec in _BASE_OVERRIDES[subcommand] + [f"{k}={v}" for k, v in specs]:
        argv += ["--override", spec]
    with tempfile.TemporaryDirectory() as out:
        if inline and subcommand != "markov-compare":
            argv += ["--config", _inline(FsPath(out))]
        code = main(argv + ["--out", out])
    assert code in (0, 2, 3, 4)
    last = dict(specs)  # the last override wins
    if any(k in _NUMERIC_KEYS and v in _NOT_NUMBERS for k, v in last.items()):
        assert code == 2
    if any(k in _INT_KEYS and type(yaml.safe_load(v)) is int and yaml.safe_load(v) < 0 for k, v in last.items()):
        assert code == 2
    if any(k in _INT_KEYS and _non_integral(yaml.safe_load(v)) for k, v in last.items()):
        assert code == 2


def _non_integral(x) -> bool:
    """A boolean, or a float with a fractional part: no value for an integer key."""
    return isinstance(x, bool) or (isinstance(x, float) and not x.is_integer())


def test_inline_expression_rejects_unknown_names(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "problem": {
                    "inline": {
                        "drift": ["__import__"],
                        "diffusion": [["1"]],
                        "generator": "0",
                        "terminal": "x",
                        "controls": [0.0],
                    }
                }
            }
        )
    )
    assert main(["value", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "coeffs",
    [{"drift": ["x3"]}, {"terminal": "rint1"}, {"generator": "z4"}],
)
def test_names_the_grid_does_not_bind_are_config_errors(coeffs, tmp_path, capsys):
    # the default grid has dim 1 and noise_dim 1
    assert main(["value", "--config", _inline(tmp_path, **coeffs), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown variable")


def test_a_two_dimensional_inline_problem_names_its_second_coordinate(tmp_path):
    coeffs = {
        "drift": ["0.1*u + 0.2*tanh(x1)", "0.3*tanh(rint1) - 0.1*u"],
        "diffusion": [["0.5"], ["0.4 + 0.1*tanh(x0)"]],
        "generator": "0.1*tanh(y) - 0.1*u*u",
        "terminal": "tanh(x1) + 0.1*rint1 + 0.1*rmax",
    }
    argv = ["value", "--config", _inline(tmp_path, **coeffs), "--override", "grid.dim=2", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "value.csv").read_text().splitlines()[1] == "0.072640849725204071,0"


@pytest.mark.parametrize("depth", [1000, 3000])
def test_deeply_nested_expressions_are_config_errors(depth, tmp_path, capsys):
    assert main(["value", "--config", _inline(tmp_path, drift=["-" * depth + "u"]), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "nested too deeply" in err


def test_help_documents_preset(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["gauge-suite", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default config" in out
    assert "pairs" in out


def test_only_help_dumps_the_default_configs(monkeypatch, tmp_path, capsys):
    calls = []
    dump = yaml.safe_dump

    def counted(*args, **kwargs):
        calls.append(args)
        return dump(*args, **kwargs)

    monkeypatch.setattr(yaml, "safe_dump", counted)
    assert _run("value", tmp_path) == 0
    assert calls == []
    with pytest.raises(SystemExit) as exc:
        main(["value", "--help"])
    assert exc.value.code == 0
    assert len(calls) == 1 and "default config" in capsys.readouterr().out


def test_one_parser_serves_every_call_and_keeps_nothing_between_them(monkeypatch, tmp_path):
    seen = []
    defaults, _, help_text, counts = SUBCOMMANDS["value"]

    def runner(config, seed):
        seen.append((config, seed))
        return ["value"], [(0.0,)], ["value: 0.0"], 0

    monkeypatch.setitem(SUBCOMMANDS, "value", (defaults, runner, help_text, counts))
    assert main(["value", "--seed", "5", "--override", "start_value=0.5", "--override", "cap=7", "--out", str(tmp_path)]) == 0
    assert main(["value", "--out", str(tmp_path)]) == 0
    assert build_parser() is build_parser()
    (first, first_seed), (second, second_seed) = seen
    assert (first["start_value"], first["cap"], first_seed) == (0.5, 7, 5)
    assert (second, second_seed) == (_load_config(defaults, None, []), 0)


def test_help_is_the_same_on_every_call(capsys):
    for argv in (["--help"], ["dpp", "--help"]):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(argv)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("usage: pathhjb")


def test_importing_the_cli_builds_no_parser():
    code = "import pathhjb.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(FsPath(cli.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout == "0\n"


def test_configs_load_through_libyaml_where_pyyaml_has_it(tmp_path, capsys):
    assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = FsPath(_inline(tmp_path, generator="-0.1*u*u + 0.2*tanh(y)")).read_text()
    text += "grid: {steps: 3, horizon: 1.0}\nstart_value: -0.25\ndeltas: [1, 2]\nother: [1e3, .inf, null, true, '1']\n"
    assert yaml.load(text, Loader=cli._YAML_LOADER) == yaml.safe_load(text)
    # malformed YAML in a file or in an override is a config error
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {steps: 2\n")
    assert main(["value", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert main(["value", "--override", "grid.steps=[1, 2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")

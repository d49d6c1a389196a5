import filecmp
import hashlib
import tempfile
from pathlib import Path as FsPath

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pathhjb.cli import SUBCOMMANDS, build_parser, main

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


def test_expression_runtime_error_is_config_error(tmp_path):
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


def test_state_blowup_is_contract_violation(tmp_path):
    assert main(["value", "--config", _inline(tmp_path, drift=["1e300*1e300*u"]), "--out", str(tmp_path)]) == 3


def test_value_cap_counts_the_control_fan_out(tmp_path, capsys):
    assert main(["value", "--override", "grid.steps=12", "--out", str(tmp_path)]) == 3
    assert "6^12 = 2176782336 leaves, over the node cap 262144" in capsys.readouterr().err


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


_PATH_NAMES = {"t", "T", "dt", "x", "rmax", "rint"}


@settings(max_examples=60, deadline=None)
@given(
    subcommand=st.sampled_from(["value", "dpp"]),
    steps=st.integers(1, 3),
    start=st.sampled_from([-1.0, 0.0, 0.5]),
    drift=_expressions(_PATH_NAMES | {"u"}),
    diffusion=_expressions(_PATH_NAMES | {"u"}),
    generator=_expressions(_PATH_NAMES | {"u", "y", "z"}),
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
        (["ito-check", "--override", "n_paths=0"], 3, "contract violation: ito_check needs n_paths >= 1, got 0"),
    ],
)
def test_counts_out_of_range_are_rejected(argv, code, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err.strip() == message and captured.out == ""
    assert not (tmp_path / "summary.txt").exists()


_NOT_NUMBERS = ["abc", "foo", "[1, 2]", "{a: 1}", "null", "''"]
_MALFORMED = _NOT_NUMBERS + [".nan", ".inf", "-.inf", "true", "1e400", "[]", "{}", "-3"]
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


def test_help_documents_preset(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["gauge-suite", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "default config" in out
    assert "pairs" in out

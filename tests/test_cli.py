import filecmp
import tempfile

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

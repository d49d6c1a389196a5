"""Self-tests for the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import re
import sys
import types
from pathlib import Path as FsPath

import pytest

HERE = FsPath(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small(workload):
    """The first task of each kind: a short pass that still reaches every layer."""
    seen, tasks = set(), []
    for task in workload.tasks:
        if task.kind not in seen:
            seen.add(task.kind)
            tasks.append(task)
    return tasks


def _traced_pass(name, seed, tmp_path):
    wl = workloads.build(name, seed, tmp_path / name)
    tasks = _small(wl)
    if name == "path-dependent":
        # Oracles of open_loop and cli_value read the value tasks of the same index.
        tasks = [t for t in wl.tasks if t.key.endswith(".0")]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        problems = wl.construct()
        tracer.flush()
        tracer.totals.clear()
        result = worker.run_pass(tasks, problems, tracer)
    finally:
        patches.restore()
    return result, tracing.per_layer_metrics(tracer.totals, 1)


def test_self_time_on_a_synthetic_span_tree():
    #   control:value [0, 10]
    #     presets:coef.terminal [1, 3]
    #     control:ValueSolver.solve [4, 9]
    #       presets:coef.terminal [5, 6]
    #       presets:coef.generator [6, 8]
    #   gauge:upsilon [11, 12]
    names = ["control:value", "presets:coef.terminal", "control:ValueSolver.solve", "presets:coef.generator", "gauge:upsilon"]
    spans = [(0, -1, 0, 10), (1, 0, 1, 3), (2, 0, 4, 9), (1, 2, 5, 6), (3, 2, 6, 8), (4, -1, 11, 12)]
    idx, parent, start, end = zip(*spans)
    s = tracing.span_stats(names, idx, parent, start, end)
    assert s["control.calls"] == 2
    assert s["control.self_s"] == pytest.approx((10 - 2 - 5) + (5 - 1 - 2))
    assert s["presets.calls"] == 3
    assert s["presets.self_s"] == pytest.approx(2 + 1 + 2)
    assert s["gauge.self_s"] == pytest.approx(1)
    assert s["busy:value"] == pytest.approx(10)  # the nested solve is not counted twice
    assert s["busy:coeff"] == pytest.approx(5)
    assert s["value_leaves"] == 2
    assert s["implicit_iters"] == 1
    total_self = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(10 + 1)  # self times partition the root spans


def test_tracer_records_nesting_through_wrappers():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "gauge:inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "control:outer")
    assert outer(1) == 4
    assert list(tracer._parent) == [-1, 0]
    tracer.flush()
    assert tracer.totals["control.calls"] == 1 and tracer.totals["gauge.calls"] == 1
    assert len(tracer._name) == 0


def test_an_oracle_fed_a_wrong_value_counts_a_failure(tmp_path):
    wl = workloads.build("markov-ladder", 3, tmp_path)
    task = next(t for t in wl.tasks if t.kind == "value_lq")
    problems = wl.construct()
    good = task.run(problems)
    assert task.check(good, {}) is None
    wrong = (good[0] + 1e-6,) + good[1:]
    assert task.check(wrong, {}) is not None
    broken = workloads.Task(task.kind, task.key, lambda p: wrong, task.check)
    raising = workloads.Task(task.kind, "raises", lambda p: 1 / 0, task.check)
    result = worker.run_pass([task, broken, raising], problems)
    assert len(result["failures"]) == 2


def test_metric_names_and_units_follow_the_contract():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(declared) == len(set(declared))
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    produced = tracing.per_layer_metrics({}, 1)
    assert sorted(produced) == sorted(m["name"] for m in bench["per_layer"])
    for m in bench["per_layer"]:
        assert produced[m["name"]][1] == m["unit"]


def _public_attributes():
    snap = {}
    for mod in tracing.layer_modules().values():
        for name, obj in vars(mod).items():
            snap[(mod.__name__, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, desc in vars(obj).items():
                    snap[(mod.__name__, name, attr)] = desc
    return snap


def test_restore_puts_every_patched_attribute_back(tmp_path):
    before = _public_attributes()
    _traced_pass("pathwise", 5, tmp_path)
    after = _public_attributes()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert not any(getattr(v, "_bench_span", None) for v in after.values() if isinstance(v, types.FunctionType))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deterministic_counters_repeat_across_traced_runs(name, tmp_path):
    first, m1 = _traced_pass(name, 7, tmp_path / "a")
    second, m2 = _traced_pass(name, 7, tmp_path / "b")
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"]
    for key in tracing.DETERMINISTIC:
        assert m1[key][0] == m2[key][0], key
    assert m1["pathspace.paths_built"][0] > 0


def test_every_layer_does_work_on_some_workload(tmp_path):
    busy = set()
    for name in workloads.WORKLOADS:
        _, m = _traced_pass(name, 9, tmp_path)
        busy |= {k.split(".")[0] for k, (v, _) in m.items() if k.endswith(".calls") and v > 0}
    assert busy == set(tracing.LAYERS)

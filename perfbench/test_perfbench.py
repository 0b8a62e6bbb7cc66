"""Fast test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys

import pytest

import harness
import spans

sys.path.insert(0, str(harness.REPO / "src"))

TINY = harness.Scale(compare_seeds=1, compare_steps=6, mnist_n=600, mnist_steps=6,
                     mnist_switch=4, mlp_steps=3)
BENCHMARK = json.loads((harness.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _names(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module", params=list(harness.WORKLOADS))
def traced(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return harness.measure(request.param, 3, 0.0, True, work, TINY)


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)


def test_traced_run_has_every_per_layer_metric(traced):
    assert traced.failed == 0
    for name, unit in _names("per_layer").items():
        assert name in traced.metrics, name
        assert traced.metrics[name][1] == unit, name


def test_span_tree_is_well_formed(traced):
    arrays = traced.spans
    assert arrays["name"].size > 0
    assert spans.check_tree(arrays) == []
    assert (spans.self_times(arrays) >= -1e-9).all()
    roots = arrays["parent"] < 0
    assert set(arrays["names"][arrays["name"][roots]]) == {spans.ROOT_SPAN}


def test_check_tree_reports_a_child_outside_its_parent(traced):
    arrays = {k: v.copy() for k, v in traced.spans.items()}
    child = int(arrays["parent"].argmax())
    arrays["end"][child] = arrays["end"][arrays["parent"][child]] + 1.0
    assert spans.check_tree(arrays)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    outcome = harness.measure(workload, 3, 0.0, False, tmp_path, TINY)
    assert outcome.failed == 0
    assert outcome.attempted >= 1
    assert {k: u for k, (_, u) in outcome.metrics.items()} == _names("end_to_end")
    assert all(v > 0 for v, _ in outcome.metrics.values())


def test_replay_mismatch_counts_as_failed(tmp_path):
    plan = harness.WORKLOADS["mnist-dpdr"](3, tmp_path, TINY)
    first = harness.run_repetition(plan)
    second = harness.run_repetition(plan)
    assert harness.replay_failures([first, second]) == 0
    second.digests = ["0" * 64]
    assert harness.replay_failures([first, second]) == 1


def test_driver_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (harness.REPO / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mnist-dpdr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Workloads, repetitions, output checks and end-to-end metrics.

One repetition imports dplab afresh, so it pays what a new ``dplab``
process pays (package import, dataset build, every calibration) and no
module-level state survives from the previous repetition. Repetitions run
in a closed loop: each starts when the previous one ends. All repetitions
of one benchmark invocation use the same inputs, so each must replay the
first one bit for bit.

The untraced run calls only public entry points (``dplab.cli.main`` and
``dplab.train``). It observes ``train`` through one wrapper per training
run, to read the returned ``TrainResult``: per-step ``wall_ms``, final
parameters and telemetry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import spans

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

# calibrate_sigma's default relative tolerance: a run's final eps_cum must
# lie this close to its target
EPS_REL_TOL = 1e-3


@dataclass(frozen=True)
class Scale:
    """Workload sizes. The defaults are the benchmark's; the fast test shrinks them."""

    compare_seeds: int = 2
    compare_steps: int | None = None  # None keeps the shipped configs' steps
    mnist_n: int = 10_000
    mnist_steps: int = 75
    mnist_switch: int = 50
    mlp_steps: int = 20


@dataclass(frozen=True)
class Plan:
    """One repetition: ``runs`` training runs started by ``execute``, which
    receives the freshly imported ``dplab`` package and returns an exit code."""

    runs: int
    execute: Callable[[object], int]


def _write_json(path: Path, doc: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _mnist_shaped(n: int, seed: int) -> dict:
    # noisy enough that no run reaches accuracy 1.0, so a change that breaks
    # the arithmetic shows in final_accuracy
    return {"n": n, "d_in": 784, "n_classes": 10, "margin": 12.0, "std": 1.0, "seed": seed}


def synth_compare(seed: int, work: Path, scale: Scale) -> Plan:
    """``dplab compare`` over the shipped synthetic dpsgd/diff/dpdr configs,
    with the dataset seed taken from the benchmark seed."""
    paths = []
    for method in ("dpsgd", "diff", "dpdr"):
        doc = json.loads((CONFIGS / f"synthetic_{method}.json").read_text(encoding="utf-8"))
        doc["dataset"]["params"]["seed"] = seed
        if scale.compare_steps is not None:
            doc["total_steps"] = scale.compare_steps
            if "switch_step" in doc:
                doc["switch_step"] = max(1, scale.compare_steps // 2)
        paths.append(_write_json(work / f"synthetic_{method}.json", doc))
    argv = ["compare", "--configs", *paths, "--seeds", str(scale.compare_seeds),
            "--out", str(work / "compare")]
    return Plan(runs=3 * scale.compare_seeds, execute=lambda dp: dp.cli.main(argv))


def mnist_dpdr(seed: int, work: Path, scale: Scale) -> Plan:
    """``dplab train`` on a config shaped like configs/mnist_dpdr.json, on
    synthetic MNIST-shaped data; most steps are in the decomposition phase."""
    doc = {
        "method": "dpdr",
        "total_steps": scale.mnist_steps,
        "switch_step": scale.mnist_switch,
        "batch": 256,
        "lr": 0.5,
        "clip": {"c_g": 1.0, "c_perp": 0.5, "c_alpha": 1.0},
        "privacy": {"eps": 3.0, "delta": 1e-05, "sigma_alpha": 2.0},
        "dataset": {"kind": "synthetic", "params": _mnist_shaped(scale.mnist_n, seed)},
        "seed": seed,
    }
    argv = ["train", "--config", _write_json(work / "mnist_dpdr.json", doc),
            "--out", str(work / "train")]
    return Plan(runs=1, execute=lambda dp: dp.cli.main(argv))


def mlp_dpsgd(seed: int, work: Path, scale: Scale) -> Plan:
    """Library ``train()`` of a one-hidden-layer MLP with dpsgd on the
    MNIST-shaped data; one calibration per run."""
    params = _mnist_shaped(scale.mnist_n, seed)

    def execute(dp) -> int:
        dataset = dp.gen_synthetic(
            n=params["n"], d_in=params["d_in"], n_classes=params["n_classes"],
            margin=params["margin"], seed=params["seed"], std=params["std"],
        )
        config = dp.TrainConfig(
            method="dpsgd", total_steps=scale.mlp_steps, batch=256, lr=4.0, seed=seed,
            clip=dp.ClipSpec(c_g=1.0, c_perp=1.0, c_alpha=1.0), eps_target=3.0,
            delta=1e-05, arch=dp.mlp(784, (64,), 10),
        )
        dp.train(config, dataset)
        return 0

    return Plan(runs=1, execute=execute)


WORKLOADS = {
    "synth-compare": synth_compare,
    "mnist-dpdr": mnist_dpdr,
    "mlp-dpsgd": mlp_dpsgd,
}


def fresh_dplab():
    """Import dplab as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "dplab" or n.startswith("dplab.")]:
        del sys.modules[name]
    importlib.import_module("dplab.cli")
    return sys.modules["dplab"]


def observe_train(sink: list) -> None:
    """Record (TrainResult, exit time) of every ``train`` call."""
    original = sys.modules["dplab.trainers"].train

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((result, time.perf_counter()))
        return result

    spans.patch_everywhere(original, observed)


def replay_digest(result) -> str:
    """Digest of final parameters and deterministic telemetry (every run
    artifact except the wall_ms / runtime_ms timings)."""
    h = hashlib.sha256()
    for block in result.model.params.blocks:
        h.update(block.tobytes())
    for row in result.rows:
        fields = tuple(getattr(row, f.name) for f in dataclasses.fields(row) if f.name != "wall_ms")
        h.update(repr(fields).encode())
    h.update(repr(sorted(result.phase_steps.items())).encode())
    h.update(repr(result.noise).encode())
    if result.perp_snapshot is not None:
        h.update(np.ascontiguousarray(result.perp_snapshot).tobytes())
    return h.hexdigest()


@dataclass
class Repetition:
    wall_s: float
    setup_s: float | None
    step_ms: list[float]
    samples: float
    accuracies: list[float]
    digests: list[str]
    runs: int
    failed: int
    steps: int
    gdr_steps: int


def run_repetition(plan: Plan, tracer: spans.Tracer | None = None) -> Repetition:
    # free the previous repetition's module and data cycles, so that memory
    # peaks do not depend on how many repetitions ran before
    gc.collect()
    started = time.perf_counter()
    root = tracer.begin_run() if tracer else None
    observed: list = []
    code = None
    try:
        dp = fresh_dplab()
        if tracer:
            tracer.install()
        observe_train(observed)
        with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the report
            code = plan.execute(dp)
    except Exception:  # a failing run is counted, and the benchmark goes on
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer:
            tracer.end_run(root)
    wall_s = time.perf_counter() - started

    step_ms: list[float] = []
    accuracies, digests = [], []
    samples = 0.0
    steps = gdr_steps = 0
    failed = 0
    for result, _ in observed:
        step_ms.extend(row.wall_ms for row in result.rows)
        samples += result.config.batch * result.config.total_steps
        steps += len(result.rows)
        gdr_steps += result.phase_steps.get("gdr", 0)
        accuracies.append(result.rows[-1].train_accuracy)
        digests.append(replay_digest(result))
        if not _run_ok(result):
            failed += 1
    if code != 0:
        print(f"check failed: exit code {code}", file=sys.stderr)
        failed = plan.runs
    failed = max(failed, plan.runs - len(observed))

    setup_s = None
    if observed:
        first, exited = observed[0]
        first_step = exited - sum(row.wall_ms for row in first.rows) / 1e3
        setup_s = first_step - started
    return Repetition(wall_s, setup_s, step_ms, samples, accuracies, digests,
                      plan.runs, min(failed, plan.runs), steps, gdr_steps)


def _run_ok(result) -> bool:
    if not all(np.all(np.isfinite(b)) for b in result.model.params.blocks):
        print("check failed: non-finite final parameters", file=sys.stderr)
        return False
    target = result.config.eps_target
    if target is not None and not abs(result.rows[-1].eps_cum - target) <= EPS_REL_TOL * target:
        print(f"check failed: final eps {result.rows[-1].eps_cum!r} vs target {target!r}",
              file=sys.stderr)
        return False
    return True


def replay_failures(reps: list[Repetition]) -> int:
    """Runs whose digest differs from the first repetition's run at that index."""
    reference = reps[0].digests
    failed = 0
    for rep in reps[1:]:
        if rep.failed:
            continue  # already counted
        if len(rep.digests) != len(reference):
            failed += rep.runs
            continue
        mismatched = sum(a != b for a, b in zip(rep.digests, reference))
        if mismatched:
            print(f"check failed: {mismatched} run(s) do not replay the first repetition",
                  file=sys.stderr)
        failed += mismatched
    return failed


def loop(plan: Plan, until: float, tracer: spans.Tracer | None = None) -> list[Repetition]:
    """Closed loop: at least one repetition, then more while the median
    repetition still fits before ``until``."""
    reps = [run_repetition(plan, tracer)]
    while time.perf_counter() + statistics.median(r.wall_s for r in reps) <= until:
        reps.append(run_repetition(plan, tracer))
    return reps


def end_to_end(reps: list[Repetition]) -> dict[str, tuple[float, str]]:
    steps = np.array([ms for r in reps for ms in r.step_ms])
    setups = [r.setup_s for r in reps if r.setup_s is not None]
    if steps.size == 0 or not setups:
        raise RuntimeError("no training step completed")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (
            statistics.median(r.samples / (sum(r.step_ms) / 1e3) for r in reps if r.step_ms),
            "1/s"),
        "step_ms.p50": (float(np.percentile(steps, 50)), "ms"),
        "step_ms.p90": (float(np.percentile(steps, 90)), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        "final_accuracy": (
            statistics.median(float(np.mean(r.accuracies)) for r in reps if r.accuracies),
            "fraction"),
    }


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    notes: list[str]
    spans: dict[str, np.ndarray] | None = None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            scale: Scale = Scale()) -> Outcome:
    """Run one workload for about ``seconds`` seconds.

    Untraced, the result holds the end-to-end metrics. Traced, the first
    third of the time runs untraced to give the tracing overhead, and the
    rest runs traced to give the per-layer metrics.
    """
    plan = WORKLOADS[workload](seed, work / workload, scale)
    begin = time.perf_counter()
    if not trace:
        reps = loop(plan, begin + seconds)
        traced_reps: list[Repetition] = []
    else:
        reps = loop(plan, begin + seconds / 3)
        tracer = spans.Tracer()
        traced_reps = loop(plan, begin + seconds, tracer)
    everything = reps + traced_reps
    attempted = sum(r.runs for r in everything)
    failed = sum(r.failed for r in everything) + replay_failures(everything)

    e2e = end_to_end(reps)
    steps = [ms for r in reps for ms in r.step_ms]
    notes = [
        f"{len(reps)} untraced repetition(s) of {plan.runs} training run(s)",
        f"step_ms pooled over {len(steps)} steps",
        "repetition wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in everything),
        "repetition setup_s: " + " ".join(f"{r.setup_s or 0:.3f}" for r in everything),
    ]
    if not trace:
        return Outcome(e2e, attempted, failed, notes)

    arrays = tracer.arrays()
    ops = sum(r.runs for r in traced_reps)
    metrics = spans.per_layer(arrays, tracer.counts, ops,
                              sum(r.steps for r in traced_reps),
                              sum(r.gdr_steps for r in traced_reps))
    traced_wall = statistics.median(r.wall_s for r in traced_reps)
    untraced_wall = e2e["wall_s"][0]
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    notes.append(f"{len(traced_reps)} traced repetition(s), {arrays['name'].size} spans; "
                 f"per-layer values are per training run")
    problems = spans.check_tree(arrays)
    if problems:
        raise RuntimeError("malformed span tree: " + "; ".join(problems))
    return Outcome(metrics, attempted, failed, notes, arrays)

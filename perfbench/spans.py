"""Span recording for the traced benchmark run.

The tracer wraps public dplab functions from outside the package. Callers
bind names at import (``from .mechanism import clip_to_norm``), so every
wrapper is patched into each dplab module namespace that holds the original
object, and methods are patched on their class. Spans (name, start, end,
parent, run id) go into flat in-memory arrays, are written out once at the
end, and self time is computed from them afterwards.
"""

from __future__ import annotations

import os
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

# (module, qualified name) of every traced function. Each yields the per-layer
# metrics <module>.<qualname>.{calls,ms,self_ms}.
TRACED = (
    ("datasets", "gen_synthetic"),
    ("datasets", "poisson_sample"),
    ("models", "per_sample_gradients"),
    ("models", "evaluate"),
    ("models", "apply_update"),
    ("vectors", "l2_norm"),
    ("vectors", "sub"),
    ("vectors", "gaussian_sample"),
    ("mechanism", "aggregate_and_perturb"),
    ("mechanism", "clip_to_norm"),
    ("mechanism", "aggregate_and_perturb_scalars"),
    ("mechanism", "clip_alpha_vec"),
    ("decomposition", "decompose_batch"),
    ("decomposition", "normalize_base"),
    ("decomposition", "reconstruct"),
    ("accountant", "calibrate_sigma"),
    ("accountant", "PrivacyLedger.append"),
    ("accountant", "PrivacyLedger.epsilon"),
    ("diagnostics", "coherence_stats"),
    ("trainers", "train"),
    ("trainers", "resolve_noise"),
    ("trainers", "dpsgd_step"),
    ("trainers", "diff_step"),
    ("trainers", "gdr_step"),
    ("runio", "write_run"),
    ("cli", "parse_config"),
    ("cli", "build_dataset"),
)

ROOT_SPAN = "bench.repetition"
CALIBRATE = "accountant.calibrate_sigma"
LEDGER_EPSILON = "accountant.PrivacyLedger.epsilon"
TRAIN = "trainers.train"


def patch_everywhere(original, replacement) -> None:
    """Rebind every dplab module global that holds ``original``."""
    modules = [m for n, m in sys.modules.items() if n == "dplab" or n.startswith("dplab.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Records spans and boundary counts for one benchmark process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: Counter = Counter()
        self._calibrations_seen: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def begin_run(self) -> int:
        """Open the root span of one repetition; its spans share a run id."""
        self.run_id += 1
        self._calibrations_seen = set()
        return self._open(self._name_id(ROOT_SPAN))

    def end_run(self, root: int) -> None:
        self._close(root)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            i = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function of the currently imported dplab."""
        counts = self.counts
        for module_name, qualname in TRACED:
            module = sys.modules[f"dplab.{module_name}"]
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            traced = self.wrap(name, self._counted(name, original))
            if owner_name:
                setattr(owner, attr, traced)
            else:
                patch_everywhere(original, traced)
        vector_cls = sys.modules["dplab.vectors"].LayeredVector
        post_init = vector_cls.__post_init__

        def counted_post_init(self_):
            counts["vectors.LayeredVector.constructed"] += 1
            post_init(self_)

        vector_cls.__post_init__ = counted_post_init

    def _counted(self, name: str, fn):
        """Add the boundary counts some functions carry besides their span."""
        counts = self.counts
        if name == "datasets.poisson_sample":
            def poisson_sample(*args, **kwargs):
                batch = fn(*args, **kwargs)
                counts["datasets.batch_rows"] += batch.size
                return batch
            return poisson_sample
        if name == "models.per_sample_gradients":
            def per_sample_gradients(*args, **kwargs):
                grads = fn(*args, **kwargs)
                if grads:
                    counts["models.per_sample_gradients.bytes"] += 8 * len(grads) * grads[0].total_dim
                return grads
            return per_sample_gradients
        if name == "accountant.PrivacyLedger.append":
            seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

            def append(ledger, event, *args, **kwargs):
                keys = seen.setdefault(ledger, set())
                key = (event.q, event.sigma_eff)
                counts["accountant.PrivacyLedger.append.hits"] += key in keys
                keys.add(key)
                return fn(ledger, event, *args, **kwargs)
            return append
        if name == CALIBRATE:
            def calibrate_sigma(*args, **kwargs):
                key = repr((args, sorted(kwargs.items())))
                counts["accountant.calibrate_sigma.repeats"] += key in self._calibrations_seen
                self._calibrations_seen.add(key)
                return fn(*args, **kwargs)
            return calibrate_sigma
        if name == "runio.write_run":
            def write_run(*args, **kwargs):
                paths = fn(*args, **kwargs)
                counts["runio.write_run.bytes"] += sum(os.path.getsize(p) for p in paths.values())
                return paths
            return write_run
        return fn

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the time its direct children cover (seconds)."""
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(
        spans["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def check_tree(spans: dict[str, np.ndarray]) -> list[str]:
    """Problems with the span tree; empty when it is well formed."""
    problems = []
    parent, start, end, run = spans["parent"], spans["start"], spans["end"], spans["run"]
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if np.any(p >= child):
        problems.append("a parent does not precede its child")
        return problems
    if np.any(run[p] != run[child]):
        problems.append("a parent lies in another run")
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        problems.append("a child span leaves its parent's interval")
    if np.any(end < start):
        problems.append("a span ends before it starts")
    if np.any(self_times(spans) < -1e-9):
        problems.append("negative self time")
    return problems


def _mask(spans: dict[str, np.ndarray], name: str) -> np.ndarray:
    names = list(spans["names"])
    if name not in names:
        return np.zeros(spans["name"].size, dtype=bool)
    return spans["name"] == names.index(name)


def _under(spans: dict[str, np.ndarray], ancestor: str) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    is_ancestor = _mask(spans, ancestor)
    parent = spans["parent"]
    has_parent = parent >= 0
    under = np.zeros(parent.size, dtype=bool)
    while True:
        # a span is under the ancestor if its parent is that ancestor or is under it
        grown = under.copy()
        grown[has_parent] = is_ancestor[parent[has_parent]] | under[parent[has_parent]]
        if np.array_equal(grown, under):
            return under
        under = grown


def per_layer(spans: dict[str, np.ndarray], counts: Counter, ops: int, steps: int,
              gdr_steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a total over the traced runs divided by ``ops``."""
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    out: dict[str, tuple[float, str]] = {}

    for module_name, qualname in TRACED:
        name = f"{module_name}.{qualname}"
        mask = _mask(spans, name)
        out[f"{name}.calls"] = (int(mask.sum()) / ops, "count")
        out[f"{name}.ms"] = (float(duration[mask].sum()) * 1e3 / ops, "ms")
        out[f"{name}.self_ms"] = (float(own[mask].sum()) * 1e3 / ops, "ms")

    for name, unit in (("datasets.batch_rows", "count"),
                       ("models.per_sample_gradients.bytes", "bytes"),
                       ("vectors.LayeredVector.constructed", "count"),
                       ("runio.write_run.bytes", "bytes")):
        out[name] = (counts[name] / ops, unit)

    evals = int(np.sum(_mask(spans, LEDGER_EPSILON) & _under(spans, CALIBRATE)))
    out["accountant.calibrate_sigma.evals"] = (evals / ops, "count")
    # ratios; each base is the matching .calls metric, or trainers.train.steps
    out["accountant.calibrate_sigma.repeat_share"] = (_share(
        counts["accountant.calibrate_sigma.repeats"], int(_mask(spans, CALIBRATE).sum())),
        "ratio")
    out["accountant.PrivacyLedger.append.hit_ratio"] = (_share(
        counts["accountant.PrivacyLedger.append.hits"],
        int(_mask(spans, "accountant.PrivacyLedger.append").sum())), "ratio")
    out["trainers.train.steps"] = (steps / ops, "count")
    out["trainers.train.gdr_share"] = (_share(gdr_steps, steps), "ratio")

    train = _mask(spans, TRAIN)
    train_total = float(duration[train].sum())
    covered = train_total - float(own[train].sum())
    out["trace.train_coverage_pct"] = (100.0 * _share(covered, train_total), "%")
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

"""Run artifact persistence: metrics CSV and summary JSON.

Artifacts are written atomically (temp file + rename) and are byte-stable:
floats go through repr, and the wall_ms / runtime_ms fields are zeroed on
disk so rerunning an identical config reproduces files exactly. Real
timings stay on the in-memory result.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, astuple
from pathlib import Path

from .diagnostics import CSV_COLUMNS, MetricsRow
from .errors import ContractViolation
from .trainers import TrainResult

__all__ = [
    "build_summary",
    "read_metrics_csv",
    "write_metrics_csv",
    "write_run",
]


def _fmt(value: float) -> str:
    return repr(float(value))


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        step, *values, _wall_ms = astuple(r)
        # wall time is zeroed on disk to keep reruns byte-identical
        lines.append(",".join([str(step), *map(_fmt, values), "0"]))
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _float(path, lineno: int, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ContractViolation(f"{path}: line {lineno}: not a number: {cell!r}") from None


def read_metrics_csv(path) -> list[dict[str, float]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [(i, line) for i, line in enumerate(text.split("\n"), 1) if line]
    if not lines:
        raise ContractViolation(f"{path}: empty metrics file")
    (_, head), *body = lines
    header = tuple(head.split(","))
    if header != CSV_COLUMNS:
        raise ContractViolation(
            f"{path}: unexpected columns {header}, expected {CSV_COLUMNS}"
        )
    rows = []
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ContractViolation(f"{path}: malformed row {line!r}")
        rows.append({name: _float(path, lineno, v) for name, v in zip(CSV_COLUMNS, parts)})
    return rows


def build_summary(config_echo: dict, result: TrainResult) -> dict:
    """Summary JSON payload. eps/order are null for non-private runs (the
    sgd baseline, or any zero noise multiplier the method relies on)."""
    last = result.rows[-1]
    if result.config.method == "sgd":
        privacy = {"eps": None, "delta": None, "order": None}
    elif result.non_private:
        privacy = {"eps": None, "delta": result.ledger.delta, "order": None}
    else:
        eps, order = result.ledger.epsilon()
        privacy = {"eps": eps, "delta": result.ledger.delta, "order": order}
    return {
        "config": config_echo,
        "resolved_noise": None if result.noise is None else asdict(result.noise),
        "final": {"loss": last.train_loss, "accuracy": last.train_accuracy},
        "privacy": privacy,
        "phase_steps": dict(result.phase_steps),
        "seed": result.config.seed,
        "runtime_ms": 0,  # zeroed on disk; real timing lives on TrainResult
    }


def write_run(out_dir, result: TrainResult, summary: dict) -> dict[str, str]:
    """Persist one run and its :func:`build_summary` payload under out_dir;
    returns the artifact paths."""
    out = Path(out_dir)
    metrics_path = out / "metrics.csv"
    summary_path = out / "summary.json"
    write_metrics_csv(metrics_path, result.rows)
    _atomic_write(summary_path, json.dumps(summary, indent=2) + "\n")
    return {"metrics": str(metrics_path), "summary": str(summary_path)}

"""Command-line entry point.

Subcommands: ``train`` (one seeded run from a JSON config), ``calibrate``
(solve noise multipliers for a privacy budget), ``compare`` (multi-seed
matrix over several configs with shared batch sampling), and ``plot-data``
(plot-ready text files from a metrics CSV).

Subcommands raise; :func:`main` is the one place where an exception becomes
an exit code and an ``error:`` line on stderr. Exit codes: 0 success, 2
config or argument errors (including an unreadable or unwritable argument
path and a malformed artifact file), 3 calibration infeasibility or
non-convergence, 4 dataset reads, 5 partial failure of a comparison matrix.
No other code is used.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .accountant import calibrate_sigma, effective_sigma, schedule_ledger
from .datasets import Dataset, gen_synthetic, load_idx_pair
from .diagnostics import steps_to_target_loss
from .errors import (
    CalibrationError,
    CalibrationInfeasible,
    ConfigError,
    ContractViolation,
    IdxFormatError,
)
from .mechanism import ClipSpec, NoisePlan
from .runio import _atomic_write, build_summary, read_metrics_csv, write_run
from .trainers import SETTINGS, TrainConfig, TrainResult, privacy_schedule, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_DATASET = 4
EXIT_PARTIAL = 5

# exception -> (exit code, message prefix); the first matching row wins
_FAILURES = {
    ConfigError: (EXIT_CONFIG, ""),
    ContractViolation: (EXIT_CONFIG, ""),
    CalibrationInfeasible: (EXIT_CALIBRATION, "calibration infeasible: "),
    CalibrationError: (EXIT_CALIBRATION, "calibration failed: "),
    IdxFormatError: (EXIT_DATASET, "dataset: "),
    OSError: (EXIT_CONFIG, ""),  # dataset reads arrive as IdxFormatError
}

# a config document's top-level keys, in the order the echo writes them
_DOCUMENT_KEYS = (
    "method", "total_steps", "switch_step", "batch", "lr", "clip", "noise", "privacy",
    "dataset", "seed",
)
# the keys of the privacy block, from the settings table
_PRIVACY_KEYS = {path.split(".")[1] for path, _ in SETTINGS.values() if path.startswith("privacy.")}


_REQUIRED = object()  # default of a key that must be present


def _key(doc: dict, key: str, types, where: str = "config", default=_REQUIRED):
    """``doc[key]`` checked against ``types``; ``default`` when the key is absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where}: key '{key}' has the wrong type")
    return value


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key '{key}'")


def _number(doc: dict, key: str, where: str, default=_REQUIRED) -> float:
    return float(_key(doc, key, (int, float), where, default))


def _setting(doc: dict, key: str, where: str, method: str):
    """The setting at ``doc[key]``: a switch step, a number, or a clip or noise
    spec. A method other than dpdr may leave out the channels it does not use:
    c_perp defaults to c_g, c_alpha to 1, sigma_perp and sigma_alpha to 0."""
    if key == "switch_step":
        return _key(doc, key, int, where)
    if key not in ("clip", "noise"):
        return _number(doc, key, where)
    block, where = _key(doc, key, dict, where), f"{where}.{key}"
    spec = ClipSpec if key == "clip" else NoisePlan
    first, *rest = (f.name for f in fields(spec))
    _check_keys(block, {first, *rest}, where)
    value = _number(block, first, where)
    fills = {"clip": (value, 1.0), "noise": (0.0, 0.0)}[key]
    if method == "dpdr":  # dpdr uses every channel, so it must give each one
        fills = (_REQUIRED, _REQUIRED)
    return spec(value, *(_number(block, k, where, fill) for k, fill in zip(rest, fills)))


def parse_config(doc: dict, seed_override: int | None = None) -> tuple[TrainConfig, dict]:
    """Check a config document's keys and types; returns (TrainConfig, dataset spec).

    Each optional setting is read at its key in :data:`dplab.trainers.SETTINGS`.
    How the values fit together (which settings a method takes or needs,
    switch step, value ranges) is checked by :class:`TrainConfig` and the
    clip and noise specs; their ContractViolation becomes a ConfigError here.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config: document must be a JSON object")
    _check_keys(doc, set(_DOCUMENT_KEYS), "config")
    method = _key(doc, "method", str)
    values = {
        "method": method,
        "total_steps": _key(doc, "total_steps", int),
        "batch": _key(doc, "batch", int),
        "lr": _number(doc, "lr", "config"),
        "seed": _key(doc, "seed", int) if seed_override is None else seed_override,
    }
    dataset_spec = _key(doc, "dataset", dict)
    _validate_dataset_spec(dataset_spec)
    blocks = {"": doc, "privacy": _key(doc, "privacy", dict, default={})}
    _check_keys(blocks["privacy"], _PRIVACY_KEYS, "config.privacy")
    if "privacy" in doc:  # an eps target states the delta it is for
        _key(blocks["privacy"], "delta", (int, float), "config.privacy")
    try:
        for name, (path, _) in SETTINGS.items():
            block, _, key = path.rpartition(".")
            if key in blocks[block]:
                where = f"config.{block}" if block else "config"
                values[name] = _setting(blocks[block], key, where, method)
        config = TrainConfig(**values)
    except ContractViolation as exc:
        raise ConfigError(f"config: {exc}") from exc
    return config, dataset_spec


def _validate_dataset_spec(spec: dict) -> None:
    _check_keys(spec, {"kind", "params", "path"}, "config.dataset")
    kind = _key(spec, "kind", str, "config.dataset")
    if kind == "synthetic":
        params = _key(spec, "params", dict, "config.dataset")
        _check_keys(
            params, {"n", "d_in", "n_classes", "margin", "std", "seed"}, "config.dataset.params"
        )
        _key(params, "n", int, "config.dataset.params")
        _key(params, "d_in", int, "config.dataset.params")
        _key(params, "n_classes", int, "config.dataset.params")
        _key(params, "margin", (int, float), "config.dataset.params")
        _key(params, "std", (int, float), "config.dataset.params", 1.0)
        _key(params, "seed", int, "config.dataset.params", 0)
        if "path" in spec:
            raise ConfigError("config.dataset: synthetic datasets take 'params', not 'path'")
    elif kind == "idx":
        path = _key(spec, "path", dict, "config.dataset")
        _check_keys(path, {"images", "labels", "limit"}, "config.dataset.path")
        _key(path, "images", str, "config.dataset.path")
        _key(path, "labels", str, "config.dataset.path")
        limit = _key(path, "limit", int, "config.dataset.path", None)
        if limit is not None and limit < 1:
            raise ConfigError(f"config.dataset.path: limit must be >= 1, got {limit}")
        if "params" in spec:
            raise ConfigError("config.dataset: idx datasets take 'path', not 'params'")
    else:
        raise ConfigError(f"config.dataset: unknown kind '{kind}' (expected 'synthetic' or 'idx')")


def build_dataset(spec: dict) -> Dataset:
    if spec["kind"] == "synthetic":
        try:
            return gen_synthetic(**{"seed": 0, **spec["params"]})
        except ContractViolation as exc:
            raise ConfigError(f"config.dataset.params: {exc}") from exc
    path = spec["path"]
    try:
        return load_idx_pair(path["images"], path["labels"], path.get("limit"))
    except OSError as exc:
        raise IdxFormatError(str(exc)) from exc


def config_echo(config: TrainConfig, dataset_spec: dict) -> dict:
    """The run's config as a document: feeding it back reproduces the run.
    Each setting the run takes is written at its key in
    :data:`dplab.trainers.SETTINGS`, so a calibrated run echoes its privacy
    block (calibration is deterministic) and any other private run its
    noise block."""
    doc = {name: getattr(config, name) for name in ("method", "total_steps", "batch", "lr")}
    doc.update(dataset=dataset_spec, seed=config.seed)
    for name, (path, _) in SETTINGS.items():
        value = getattr(config, name)
        if value is not None:
            block, _, key = path.rpartition(".")
            (doc.setdefault(block, {}) if block else doc)[key] = (
                asdict(value) if is_dataclass(value) else value
            )
    return {key: doc[key] for key in _DOCUMENT_KEYS if key in doc}


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _report(exc: Exception, where: str = "") -> int:
    """Print ``exc`` under its :data:`_FAILURES` prefix; returns its exit code."""
    code, prefix = next(v for kind, v in _FAILURES.items() if isinstance(exc, kind))
    print(f"error: {where}{prefix}{exc}", file=sys.stderr)
    return code


def _check_out_dir(out_dir: Path) -> None:
    """Raise the OSError that writing a run under ``out_dir`` would meet:
    its nearest existing ancestor must be a writable directory. Creates nothing."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(existing))


def _run_one(
    config: TrainConfig, dataset_spec: dict, out_dir: Path, build
) -> tuple[dict, TrainResult]:
    """Check out_dir, build the dataset with ``build``, train, persist;
    returns the summary and run."""
    _check_out_dir(out_dir)
    result = train(config, build(dataset_spec))
    summary = build_summary(config_echo(config, dataset_spec), result)
    write_run(out_dir, result, summary)
    return summary, result


def cmd_train(args) -> int:
    config, dataset_spec = parse_config(_load_config_file(args.config), seed_override=args.seed)
    out_dir = Path(args.out) if args.out else Path(f"runs/{config.method}_seed{config.seed}")
    summary, _ = _run_one(config, dataset_spec, out_dir, build_dataset)
    eps = summary["privacy"]["eps"]
    eps_text = "none" if eps is None else f"{eps:.4f}"
    print(
        f"{config.method} seed={config.seed}: final_loss={summary['final']['loss']:.6f} "
        f"final_accuracy={summary['final']['accuracy']:.4f} eps={eps_text} -> {out_dir}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.batch < 1 or args.n < args.batch:
        raise ConfigError("need n >= batch >= 1")
    # steps, switch, eps, delta or sigma-alpha out of range raise ContractViolation
    schedule = privacy_schedule("dpdr", args.batch / args.n, args.steps, args.switch)
    sigma = calibrate_sigma(args.eps, args.delta, schedule, args.sigma_alpha)

    uses_gdr = args.switch >= 2
    eps, order = schedule_ledger(schedule, args.delta, sigma, args.sigma_alpha).epsilon()
    out = {
        "sigma_perp": sigma if uses_gdr else None,
        "sigma_alpha": args.sigma_alpha if uses_gdr else None,
        "sigma_g": sigma,
        "sigma_eff": effective_sigma(sigma, args.sigma_alpha) if uses_gdr else None,
        "eps": eps,
        "order": order,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    parsed = [(Path(path).stem, *parse_config(_load_config_file(path))) for path in args.configs]

    out_root = Path(args.out)
    held: tuple[str, Dataset] | None = None  # the latest build, the only dataset kept

    def build_or_reuse(spec: dict) -> Dataset:
        # runs go config by config, so the seeds of a config (and consecutive
        # configs on one spec) share a build
        nonlocal held
        key = json.dumps(spec, sort_keys=True)
        if held is None or held[0] != key:
            held = None  # free the previous dataset before building the next
            held = (key, build_dataset(spec))
        return held[1]

    completed: list[str] = []
    runs: dict[int, list[dict]] = {i: [] for i in range(len(parsed))}
    for idx, (stem, config, dataset_spec) in enumerate(parsed):
        for seed in range(args.seeds):
            run_dir = out_root / f"c{idx}_{stem}_seed{seed}"
            run_config = replace(config, seed=seed)
            try:
                summary, result = _run_one(run_config, dataset_spec, run_dir, build_or_reuse)
            except tuple(_FAILURES) as exc:
                _report(exc, f"run c{idx}({config.method}) seed={seed}: ")
                print("completed runs: " + (", ".join(completed) or "none"), file=sys.stderr)
                return EXIT_PARTIAL
            runs[idx].append({"seed": seed, "summary": summary, "rows": result.rows})
            completed.append(f"c{idx}_{stem}_seed{seed}")

    # a target every method should reach: the worst of the mean final losses
    mean_final_losses = [
        float(np.mean([r["summary"]["final"]["loss"] for r in runs[idx]]))
        for idx in range(len(parsed))
    ]
    target = max(mean_final_losses)

    lines = ["method,seed,final_accuracy,steps_to_target_loss,eps"]
    table: list[tuple[str, float, float, float, float]] = []
    for idx, (stem, config, _) in enumerate(parsed):
        accs, steps_list, eps_list = [], [], []
        for rec in runs[idx]:
            acc = rec["summary"]["final"]["accuracy"]
            crossing = steps_to_target_loss([r.train_loss for r in rec["rows"]], target)
            crossed = crossing if crossing is not None else config.total_steps
            eps_value = rec["rows"][-1].eps_cum
            lines.append(
                f"{config.method},{rec['seed']},{acc!r},{crossed},{eps_value!r}"
            )
            accs.append(acc)
            steps_list.append(crossed)
            eps_list.append(eps_value)
        table.append(
            (
                f"c{idx}:{config.method}",
                float(np.mean(accs)),
                float(np.std(accs)),
                float(np.mean(steps_list)),
                float(np.mean(eps_list)),
            )
        )
    _atomic_write(out_root / "comparison.csv", "\n".join(lines) + "\n")

    print(f"target_loss={target!r} (max of per-config mean final losses)")
    print(f"{'config':<24}{'final_acc (mean+/-std)':<28}{'steps_to_target':<18}eps")
    for name, acc_mean, acc_std, steps_mean, eps_mean in table:
        print(f"{name:<24}{acc_mean:.4f} +/- {acc_std:.4f}{'':<8}{steps_mean:<18.1f}{eps_mean:.4f}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    rows = read_metrics_csv(args.metrics)
    out_path = Path(args.out)
    if args.kind == "norms":
        lines = ["# step grad_norm_median perp_norm_median diff_norm_median"]
        for r in rows:
            lines.append(
                f"{int(r['step'])} {r['grad_norm_median']!r} {r['perp_norm_median']!r} "
                f"{r['diff_norm_median']!r}"
            )
    else:  # convergence
        lines = ["# eps_cum train_accuracy"]
        for r in rows:
            lines.append(f"{r['eps_cum']!r} {r['train_accuracy']!r}")
    _atomic_write(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dplab", description="Differentially private training lab"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one seeded experiment from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_cal = sub.add_parser("calibrate", help="solve noise multipliers for a privacy budget")
    p_cal.add_argument("--eps", type=float, required=True)
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--n", type=int, required=True, help="dataset size")
    p_cal.add_argument("--batch", type=int, required=True)
    p_cal.add_argument("--steps", type=int, required=True)
    p_cal.add_argument("--switch", type=int, required=True)
    p_cal.add_argument("--sigma-alpha", type=float, required=True, dest="sigma_alpha")
    p_cal.set_defaults(func=cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="run configs over shared seeds and tabulate")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--seeds", type=int, required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot-data", help="emit plot-ready text data from a metrics CSV")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--kind", required=True, choices=("norms", "convergence"))
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``train`` (one seeded run from a JSON config), ``calibrate``
(solve noise multipliers for a privacy budget), ``compare`` (multi-seed
matrix over several configs with shared batch sampling), and ``plot-data``
(plot-ready text files from a metrics CSV).

Exit codes: 0 success, 2 config/argument errors, 3 calibration
infeasibility or non-convergence, 4 dataset I/O errors, 5 partial failure
of a comparison matrix.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .accountant import PrivacyLedger, ReleaseEvent, calibrate_sigma, effective_sigma
from .datasets import Dataset, gen_synthetic, load_idx_pair
from .diagnostics import histogram, steps_to_target_loss
from .errors import (
    CalibrationError,
    CalibrationInfeasible,
    ConfigError,
    ContractViolation,
    IdxFormatError,
)
from .mechanism import ClipSpec, NoisePlan
from .runio import (
    PERP_SNAPSHOT_FILENAME,
    read_metrics_csv,
    read_perp_snapshot,
    write_run,
)
from .trainers import METHODS, TrainConfig, privacy_schedule, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CALIBRATION = 3
EXIT_DATASET = 4
EXIT_PARTIAL = 5

_TOP_KEYS = {
    "method",
    "total_steps",
    "switch_step",
    "batch",
    "lr",
    "clip",
    "noise",
    "privacy",
    "dataset",
    "seed",
}


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _require(doc: dict, key: str, types, where: str = "config"):
    if key not in doc:
        raise _fail(f"{where}: missing required key '{key}'")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise _fail(f"{where}: key '{key}' has the wrong type")
    return value


def _optional(doc: dict, key: str, types, default, where: str = "config"):
    if key not in doc:
        return default
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise _fail(f"{where}: key '{key}' has the wrong type")
    return value


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise _fail(f"{where}: unknown key '{key}'")


def parse_config(doc: dict, seed_override: int | None = None) -> tuple[TrainConfig, dict]:
    """Validate a config document; returns (TrainConfig, dataset spec)."""
    if not isinstance(doc, dict):
        raise _fail("config: document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")

    method = _require(doc, "method", str)
    if method not in METHODS:
        raise _fail(f"config: method must be one of {METHODS}, got '{method}'")
    total_steps = _require(doc, "total_steps", int)
    batch = _require(doc, "batch", int)
    lr = float(_require(doc, "lr", (int, float)))
    seed = _require(doc, "seed", int) if seed_override is None else seed_override
    dataset_spec = _require(doc, "dataset", dict)
    _validate_dataset_spec(dataset_spec)

    clip = None
    noise = None
    eps_target = None
    delta = 1e-5
    sigma_alpha = None
    ratio_g = 1.0
    switch_step = None

    if method == "sgd":
        for key in ("clip", "noise", "privacy", "switch_step"):
            if key in doc:
                raise _fail(f"config: key '{key}' is not used by method=sgd")
    else:
        clip_doc = _require(doc, "clip", dict)
        _check_keys(clip_doc, {"c_g", "c_perp", "c_alpha"}, "config.clip")
        c_g = float(_require(clip_doc, "c_g", (int, float), "config.clip"))
        if method == "dpdr":
            c_perp = float(_require(clip_doc, "c_perp", (int, float), "config.clip"))
            c_alpha = float(_require(clip_doc, "c_alpha", (int, float), "config.clip"))
        else:
            c_perp = float(_optional(clip_doc, "c_perp", (int, float), c_g, "config.clip"))
            c_alpha = float(_optional(clip_doc, "c_alpha", (int, float), 1.0, "config.clip"))
        try:
            clip = ClipSpec(c_g=c_g, c_perp=c_perp, c_alpha=c_alpha)
        except ContractViolation as exc:
            raise _fail(f"config.clip: {exc}") from exc

        if "noise" in doc and "privacy" in doc:
            raise _fail("config: give either 'noise' or 'privacy', not both")
        if "noise" not in doc and "privacy" not in doc:
            raise _fail(f"config: method={method} needs a 'noise' or 'privacy' block")
        if "noise" in doc:
            noise_doc = doc["noise"]
            if not isinstance(noise_doc, dict):
                raise _fail("config: key 'noise' has the wrong type")
            _check_keys(noise_doc, {"sigma_g", "sigma_perp", "sigma_alpha"}, "config.noise")
            sigma_g = float(_require(noise_doc, "sigma_g", (int, float), "config.noise"))
            if method == "dpdr":
                sigma_perp = float(
                    _require(noise_doc, "sigma_perp", (int, float), "config.noise")
                )
                sigma_a = float(
                    _require(noise_doc, "sigma_alpha", (int, float), "config.noise")
                )
            else:
                sigma_perp = float(
                    _optional(noise_doc, "sigma_perp", (int, float), 0.0, "config.noise")
                )
                sigma_a = float(
                    _optional(noise_doc, "sigma_alpha", (int, float), 0.0, "config.noise")
                )
            try:
                noise = NoisePlan(sigma_g=sigma_g, sigma_perp=sigma_perp, sigma_alpha=sigma_a)
            except ContractViolation as exc:
                raise _fail(f"config.noise: {exc}") from exc
        else:
            priv = doc["privacy"]
            if not isinstance(priv, dict):
                raise _fail("config: key 'privacy' has the wrong type")
            _check_keys(priv, {"eps", "delta", "sigma_alpha", "ratio_g"}, "config.privacy")
            eps_target = float(_require(priv, "eps", (int, float), "config.privacy"))
            delta = float(_require(priv, "delta", (int, float), "config.privacy"))
            if method == "dpdr":
                sigma_alpha = float(
                    _require(priv, "sigma_alpha", (int, float), "config.privacy")
                )
            else:
                raw = _optional(priv, "sigma_alpha", (int, float), None, "config.privacy")
                sigma_alpha = float(raw) if raw is not None else None
            ratio_g = float(_optional(priv, "ratio_g", (int, float), 1.0, "config.privacy"))

        if method == "dpdr":
            switch_step = _require(doc, "switch_step", int)
        elif "switch_step" in doc:
            raise _fail("config: switch_step is only valid for method=dpdr")

    try:
        config = TrainConfig(
            method=method,
            total_steps=total_steps,
            batch=batch,
            lr=lr,
            seed=seed,
            clip=clip,
            noise=noise,
            switch_step=switch_step,
            eps_target=eps_target,
            delta=delta,
            sigma_alpha=sigma_alpha,
            ratio_g=ratio_g,
            dataset_ref=dataset_spec,
        )
    except ContractViolation as exc:
        raise _fail(f"config: {exc}") from exc
    return config, dataset_spec


def _validate_dataset_spec(spec: dict) -> None:
    _check_keys(spec, {"kind", "params", "path"}, "config.dataset")
    kind = _require(spec, "kind", str, "config.dataset")
    if kind == "synthetic":
        params = _require(spec, "params", dict, "config.dataset")
        _check_keys(
            params, {"n", "d_in", "n_classes", "margin", "std", "seed"}, "config.dataset.params"
        )
        _require(params, "n", int, "config.dataset.params")
        _require(params, "d_in", int, "config.dataset.params")
        _require(params, "n_classes", int, "config.dataset.params")
        _require(params, "margin", (int, float), "config.dataset.params")
        _optional(params, "std", (int, float), 1.0, "config.dataset.params")
        _optional(params, "seed", int, 0, "config.dataset.params")
        if "path" in spec:
            raise _fail("config.dataset: synthetic datasets take 'params', not 'path'")
    elif kind == "idx":
        path = _require(spec, "path", dict, "config.dataset")
        _check_keys(path, {"images", "labels", "limit"}, "config.dataset.path")
        _require(path, "images", str, "config.dataset.path")
        _require(path, "labels", str, "config.dataset.path")
        _optional(path, "limit", int, None, "config.dataset.path")
        if "params" in spec:
            raise _fail("config.dataset: idx datasets take 'path', not 'params'")
    else:
        raise _fail(f"config.dataset: unknown kind '{kind}' (expected 'synthetic' or 'idx')")


def build_dataset(spec: dict) -> Dataset:
    if spec["kind"] == "synthetic":
        params = spec["params"]
        try:
            return gen_synthetic(
                n=params["n"],
                d_in=params["d_in"],
                n_classes=params["n_classes"],
                margin=float(params["margin"]),
                seed=params.get("seed", 0),
                std=float(params.get("std", 1.0)),
            )
        except ContractViolation as exc:
            raise _fail(f"config.dataset.params: {exc}") from exc
    path = spec["path"]
    return load_idx_pair(path["images"], path["labels"], path.get("limit"))


def config_echo(config: TrainConfig, dataset_spec: dict) -> dict:
    """Fully resolved config: feeding it back reproduces the run."""
    echo: dict = {"method": config.method, "total_steps": config.total_steps}
    if config.method == "dpdr":
        echo["switch_step"] = config.switch_step
    echo["batch"] = config.batch
    echo["lr"] = config.lr
    if config.clip is not None:
        echo["clip"] = {
            "c_g": config.clip.c_g,
            "c_perp": config.clip.c_perp,
            "c_alpha": config.clip.c_alpha,
        }
    echo["dataset"] = dataset_spec
    echo["seed"] = config.seed
    return echo


def _echo_with_noise(echo: dict, noise: NoisePlan | None) -> dict:
    if noise is None:
        return echo
    out = dict(echo)
    out["noise"] = {
        "sigma_g": noise.sigma_g,
        "sigma_perp": noise.sigma_perp,
        "sigma_alpha": noise.sigma_alpha,
    }
    # fixed key order: method, total_steps, switch_step, batch, lr, clip, noise, dataset, seed
    ordered = {}
    for key in ("method", "total_steps", "switch_step", "batch", "lr", "clip", "noise",
                "dataset", "seed"):
        if key in out:
            ordered[key] = out[key]
    return ordered


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _fail(f"{path}: cannot read config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _run_one(config: TrainConfig, dataset_spec: dict, out_dir: Path) -> dict:
    """Build the dataset, train, persist; returns the summary dict."""
    dataset = build_dataset(dataset_spec)
    if config.batch > dataset.n:
        raise _fail(f"config: batch {config.batch} exceeds dataset size {dataset.n}")
    result = train(config, dataset)
    echo = _echo_with_noise(config_echo(config, dataset_spec), result.noise)
    write_run(out_dir, result, echo)
    from .runio import build_summary

    return build_summary(echo, result)


def cmd_train(args) -> int:
    try:
        doc = _load_config_file(args.config)
        config, dataset_spec = parse_config(doc, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else Path(f"runs/{config.method}_seed{config.seed}")
    try:
        summary = _run_one(config, dataset_spec, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationInfeasible as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (IdxFormatError, OSError) as exc:
        print(f"error: dataset: {exc}", file=sys.stderr)
        return EXIT_DATASET
    eps = summary["privacy"]["eps"]
    eps_text = "none" if eps is None else f"{eps:.4f}"
    print(
        f"{config.method} seed={config.seed}: final_loss={summary['final']['loss']:.6f} "
        f"final_accuracy={summary['final']['accuracy']:.4f} eps={eps_text} -> {out_dir}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.eps <= 0 or not 0.0 < args.delta < 1.0 or args.sigma_alpha <= 0 or args.ratio_g <= 0:
        print("error: eps, sigma-alpha, ratio-g must be positive and delta in (0, 1)",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.batch < 1 or args.n < args.batch or args.steps < 1:
        print("error: need n >= batch >= 1 and steps >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if not 1 <= args.switch <= args.steps:
        print(f"error: switch must lie in [1, {args.steps}]", file=sys.stderr)
        return EXIT_CONFIG
    q = args.batch / args.n
    schedule = privacy_schedule("dpdr", q, args.steps, args.switch)
    try:
        sigma_perp, sigma_g = calibrate_sigma(
            args.eps, args.delta, schedule, args.sigma_alpha, args.ratio_g
        )
    except CalibrationInfeasible as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except CalibrationError as exc:
        print(f"error: calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION

    ledger = PrivacyLedger(args.delta)
    uses_gdr = args.switch >= 2
    for sq, steps, role in schedule:
        sigma = effective_sigma(sigma_perp, args.sigma_alpha) if role == "gdr" else sigma_g
        ledger.append(ReleaseEvent(sq, sigma, steps))
    eps, order = ledger.epsilon()
    out = {
        "sigma_perp": sigma_perp if uses_gdr else None,
        "sigma_alpha": args.sigma_alpha if uses_gdr else None,
        "sigma_g": sigma_g,
        "sigma_eff": effective_sigma(sigma_perp, args.sigma_alpha) if uses_gdr else None,
        "eps": eps,
        "order": order,
    }
    print(json.dumps(out))
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    parsed = []
    try:
        for path in args.configs:
            doc = _load_config_file(path)
            config, dataset_spec = parse_config(doc)
            parsed.append((Path(path).stem, config, dataset_spec))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = Path(args.out)
    completed: list[str] = []
    runs: dict[int, list[dict]] = {i: [] for i in range(len(parsed))}
    from dataclasses import replace as dc_replace

    for idx, (stem, config, dataset_spec) in enumerate(parsed):
        for seed in range(args.seeds):
            run_dir = out_root / f"c{idx}_{stem}_seed{seed}"
            run_config = dc_replace(config, seed=seed)
            try:
                summary = _run_one(run_config, dataset_spec, run_dir)
            except (ConfigError, CalibrationInfeasible, CalibrationError, IdxFormatError,
                    OSError) as exc:
                print(f"error in run c{idx}({config.method}) seed={seed}: {exc}",
                      file=sys.stderr)
                if completed:
                    print("completed runs: " + ", ".join(completed), file=sys.stderr)
                else:
                    print("completed runs: none", file=sys.stderr)
                return EXIT_PARTIAL
            rows = read_metrics_csv(run_dir / "metrics.csv")
            runs[idx].append(
                {
                    "seed": seed,
                    "summary": summary,
                    "losses": [r["train_loss"] for r in rows],
                }
            )
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
            crossing = steps_to_target_loss(rec["losses"], target)
            crossed = crossing if crossing is not None else config.total_steps
            eps = rec["summary"]["privacy"]["eps"]
            if eps is None:
                eps_value = 0.0 if config.method == "sgd" else math.inf
            else:
                eps_value = eps
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
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "comparison.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"target_loss={target!r} (max of per-config mean final losses)")
    print(f"{'config':<24}{'final_acc (mean+/-std)':<28}{'steps_to_target':<18}eps")
    for name, acc_mean, acc_std, steps_mean, eps_mean in table:
        print(f"{name:<24}{acc_mean:.4f} +/- {acc_std:.4f}{'':<8}{steps_mean:<18.1f}{eps_mean:.4f}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    try:
        rows = read_metrics_csv(args.metrics)
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_path = Path(args.out)
    if args.kind == "norms":
        lines = ["# step grad_norm_median perp_norm_median diff_norm_median"]
        for r in rows:
            lines.append(
                f"{int(r['step'])} {r['grad_norm_median']!r} {r['perp_norm_median']!r} "
                f"{r['diff_norm_median']!r}"
            )
    elif args.kind == "convergence":
        lines = ["# eps_cum train_accuracy"]
        for r in rows:
            lines.append(f"{r['eps_cum']!r} {r['train_accuracy']!r}")
    else:  # hist-perp
        snap_path = Path(args.metrics).parent / PERP_SNAPSHOT_FILENAME
        if not snap_path.exists():
            print(
                f"error: no {PERP_SNAPSHOT_FILENAME} beside {args.metrics}; "
                "hist-perp needs a run with decomposition steps",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        values = read_perp_snapshot(snap_path)
        lines = ["# bin_left_edge count"]
        for edge, count in histogram(values, args.bins):
            lines.append(f"{edge!r} {count}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    p_cal.add_argument("--ratio-g", type=float, default=1.0, dest="ratio_g")
    p_cal.set_defaults(func=cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="run configs over shared seeds and tabulate")
    p_cmp.add_argument("--configs", nargs="+", required=True)
    p_cmp.add_argument("--seeds", type=int, required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot-data", help="emit plot-ready text data from a metrics CSV")
    p_plot.add_argument("--metrics", required=True)
    p_plot.add_argument("--kind", required=True, choices=("norms", "convergence", "hist-perp"))
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--bins", type=int, default=20)
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""dplab benchmark driver.

    python3 perfbench/run.py --workload mnist-dpdr --seed 1 --seconds 56 --trace 0

Runs one workload in this process for about ``--seconds`` seconds, checks
every training run's output, prints each metric by name with its unit, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to perfbench/out/). Workloads:
synth-compare, mnist-dpdr, mlp-dpsgd; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS threads to at most 2 (nproc on the reference machine) in
    this process's environment; must run before numpy is imported."""
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def blas_thread_invariant(seed: int) -> bool | str:
    """Whether a short mnist-dpdr run gives the same replay digest at 1 and
    at 2 BLAS threads, each in its own process. Reported, never failed on."""
    probes = []
    for threads in ("1", "2"):
        env = dict(os.environ, **{var: threads for var in BLAS_ENV})
        probes.append(subprocess.Popen(
            [sys.executable, str(HERE / "thread_probe.py"), str(seed), threads],
            env=env, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    try:
        outputs = [proc.communicate(timeout=120) for proc in probes]
    finally:
        for proc in probes:
            proc.kill()
            proc.wait()
    for proc, (_, err) in zip(probes, outputs):
        if proc.returncode != 0:
            return f"probe failed: {err.strip().splitlines()[-1:]}"
    return outputs[0][0].strip() == outputs[1][0].strip()


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": threads,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    if not (REPO / "src" / "dplab" / "__init__.py").is_file():
        print(f"error: no dplab sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    outcome = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              OUT / "work")
    env = environment(args.seed, threads)
    env["blas_thread_invariant"] = blas_thread_invariant(args.seed)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if outcome.spans is not None:
        np.savez_compressed(OUT / f"{stem}-spans.npz", **outcome.spans)
    record = {
        "workload": args.workload,
        "environment": env,
        "notes": outcome.notes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {outcome.attempted} training runs, "
          f"{outcome.failed} failed")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print("environment " + json.dumps(env))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden artifacts: the sha256 of every file ``dplab train`` writes for four
short runs on the shipped synthetic task. The file set is pinned too: every
run writes ``metrics.csv`` and ``summary.json`` and nothing else.

The runs are sgd and the three ``configs/synthetic_*.json`` (dpsgd, diff,
dpdr), cut to 60 steps, with dpdr switching at step 20; sgd is the dpsgd
config without its clip and privacy blocks. A change meant to keep every
trajectory keeps these bytes. A change that moves trajectories on purpose
(ROADMAP item 1, say) updates the pins and records each before → after in
CHANGES.md.

A fifth run, ``dpdr-wide``, is the dpdr run on a 12000 x 200 dataset: its
inputs, upcast to float64 (19.2 MB), span three chunks of the dataset's scan
(``models.EVAL_CHUNK_BYTES``), so a slip at a chunk boundary in the cached
row norms moves its bytes. Its pins were recorded before layer 0's norms
were cached.

The pins hold for the environment they were recorded in: numpy 2.4 with
scipy-openblas 0.3.31. At these sizes (D = 102 and 402, products over at
most 200 inputs) the same bytes came out at 1 and 2 OpenBLAS threads.
``train_loss`` (and ``summary.json``'s ``final``) comes from the float32
evaluation, so its last digits follow the float32 products; every other
column is float64 training output.

Each run is scored in one evaluation window of all 60 steps: the byte
budget (``trainers._eval_windows``) allows 225 models of the 4096 x 50 task
per window and 76 of the 12000 x 200 one. The pins were recorded under
windows of 8 steps (seven of 8 and one of 4) and held bit for bit when the
windows grew. They were re-recorded when every release came to be divided
by the expected batch size ``batch`` instead of the realized Poisson size.
The four private runs' ``summary.json`` pins were re-recorded once more when
the ``privacy.ratio_g`` setting was removed: calibration sets sigma_g equal
to sigma_perp, so the echoed ``privacy`` block lost its ``"ratio_g": 1.0``
line and nothing else changed; no ``metrics.csv`` pin moved. All ten pins
were re-recorded when datasets came to hold float32 inputs: training steps
on the rows rounded once to float32 and upcast, so the gradient
telemetry, ``train_loss`` and the final parameters moved in their last
digits (about 1e-8 relative), while every batch, noise draw, ``eps_cum`` and
``train_accuracy`` kept its value. The new pins held at 1 and 2 OpenBLAS
threads.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dplab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

STEPS, SWITCH = 60, 20

PINS = {
    "sgd": {
        "metrics.csv": "f98efd4e631d4e2be91bb0d265380d9f7a314f1551617e1a93b10b45c7b01852",
        "summary.json": "c16d297d18fe537e82a6df9fbb1d81e73957e7df21cd7b03282a962f1e7f16d2",
    },
    "dpsgd": {
        "metrics.csv": "d4a30285ab52693673430f6e3508680ecba9c818d152ea3bc857cc0785a8e37f",
        "summary.json": "a8417abc664e7cf43cec5835a87ba8a4435febee2a265d89b32874780ce5882e",
    },
    "diff": {
        "metrics.csv": "436b036a0604b0113a23ed169db1393931e006c3d88f156d88a93dfc20bbac85",
        "summary.json": "3fd018f6cfb00d8862c8305d24149a3e74fca4e34de4035d8dcd65c751f7a10d",
    },
    "dpdr": {
        "metrics.csv": "3dc1efbcea8f941f19f98ab539ffff518593d3f8f42a5753539c88b4636117ba",
        "summary.json": "59cff5c486d3ee47235d9bd5ccc18f88cf023dca930a395204dda850bc91891d",
    },
    "dpdr-wide": {
        "metrics.csv": "e69e70a08b35094cc448f2a874279084f5af3770958ecc7bc0647c1670bec044",
        "summary.json": "4ff5d97b1960333f863dd67c90e1cc7871392239630a503fdba8de971bea5d52",
    },
}


def short_config(method: str) -> dict:
    if method == "dpdr-wide":
        doc = short_config("dpdr")
        doc["dataset"]["params"].update(n=12000, d_in=200)
        return doc
    source = "dpsgd" if method == "sgd" else method
    doc = json.loads((CONFIGS / f"synthetic_{source}.json").read_text(encoding="utf-8"))
    doc["total_steps"] = STEPS
    if method == "sgd":
        doc["method"] = "sgd"
        del doc["clip"], doc["privacy"]
    if method == "dpdr":
        doc["switch_step"] = SWITCH
    return doc


@pytest.mark.parametrize("method", sorted(PINS))
def test_artifacts_match_pins(method, tmp_path):
    config = tmp_path / f"{method}.json"
    config.write_text(json.dumps(short_config(method)), encoding="utf-8")
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    written = {p.name for p in out.iterdir()}
    assert written == set(PINS[method])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written}
    assert digests == PINS[method]

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
19.2 MB of inputs span three chunks of the dataset's scan
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
windows grew.
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
        "metrics.csv": "563b166c4f49d10bb742eb357ab85ef9d44b01fe9e804fbb640940b654a40c77",
        "summary.json": "6131ffd9b28a35a92dc941db581cf623db3b84e2e903e9858a73e5319e701227",
    },
    "dpsgd": {
        "metrics.csv": "bb86458a5a5e1594c1138122274dd3a74fd205921d43961b62bbc1441c1ee8cc",
        "summary.json": "2cfd46170cbc08830ca1521251a67bc6c7ea32f5361993bcd080b349a9e7040b",
    },
    "diff": {
        "metrics.csv": "76d67ea4e6372407c3cccc6edee99ee82ea86067a87e2a26b203dee86c4a3ad7",
        "summary.json": "9ee9a07adbca353fd040ad54bc30738ef92605c4860d4e0814620b432c960a34",
    },
    "dpdr": {
        "metrics.csv": "185a8587ae471e659353c2aba9d1f2bf53c252e60ff39e8a3a69d18db552556e",
        "summary.json": "10a6f884297e44bce0af7f390ba622bcabe299ffe58cb3f1ddc2dd060ed584f5",
    },
    "dpdr-wide": {
        "metrics.csv": "3b6d3951d0ffd8e97c3f8db272b69a2041b490eb3da4fb3661df0aa72045237e",
        "summary.json": "b84d9755ba15d943abf26322211fca6c2ce59918313c20da066d55c71d65e23c",
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

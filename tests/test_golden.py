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
windows grew. They were re-recorded when every release came to be divided
by the expected batch size ``batch`` instead of the realized Poisson size.
The four private runs' ``summary.json`` pins were re-recorded once more when
the ``privacy.ratio_g`` setting was removed: calibration sets sigma_g equal
to sigma_perp, so the echoed ``privacy`` block lost its ``"ratio_g": 1.0``
line and nothing else changed; no ``metrics.csv`` pin moved.
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
        "metrics.csv": "89fbc715853d59db79c7ed5578bddcd178f01a433e40831796f2848b131ba011",
        "summary.json": "d3042570afd6e686174b97d818417c124a1aee145499049365be3172652447fd",
    },
    "dpsgd": {
        "metrics.csv": "71eaff8bca3c1a4ea7ff87a727ee7387a398dcbb4ea59757a235fcc5fc63ed1c",
        "summary.json": "fedbdcebeba16a0515482275c809dede6e5cec96a89609332f0d40ceeca0caa7",
    },
    "diff": {
        "metrics.csv": "4358c2bea6797788c60a6caa7346ed3b9ee5f19a5151d274905bb56b94f9bf09",
        "summary.json": "3a8099aa61071fdf63b9f19a5d09c257cc6923e58f7a3238326dc4f786566f01",
    },
    "dpdr": {
        "metrics.csv": "ae88081d4e39ceff37199de40e7a501b2f48fbc4a62913ee320b6fc40b9a8b64",
        "summary.json": "238fdb408b9d2c145a769d3adef50cab9e9e81e0b8c1fe9ec90b9642e8d606a1",
    },
    "dpdr-wide": {
        "metrics.csv": "d71bc59ebda3f9ded6721af856ea3b65e0ed2c10f9081e1a1206c7b30d659172",
        "summary.json": "da1915ac44180f64e191b220882b93541ae6de753a794566930d38293f27b25b",
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

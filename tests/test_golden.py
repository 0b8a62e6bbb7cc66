"""Golden artifacts: the sha256 of every file ``dplab train`` writes for four
short runs on the shipped synthetic task.

The runs are sgd and the three ``configs/synthetic_*.json`` (dpsgd, diff,
dpdr), cut to 60 steps, with dpdr switching at step 20; sgd is the dpsgd
config without its clip and privacy blocks. A change meant to keep every
trajectory keeps these bytes. A change that moves trajectories on purpose
(ROADMAP item 1, say) updates the pins and records each before → after in
CHANGES.md.

The pins hold for the environment they were recorded in: numpy 2.4 with
scipy-openblas 0.3.31. At these sizes (D = 102) the same bytes came out at
1 and 2 OpenBLAS threads.
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
        "metrics.csv": "52739da95bbf5dfbcb815097ead9551ddca19d2b77434d34c3e556d9cd23bb60",
        "summary.json": "fb02b1e7fbf84d7900cff956630a4bab9cc00a3d6d49857eeb21f438339053e1",
    },
    "dpsgd": {
        "metrics.csv": "d169bdf212d2d88d9d99421fe5163216631c29e0c5ef73aeae8b246fb4ffa95d",
        "summary.json": "0136cba80406e2327775fb17a7f73da43cc5a81aa73196222555b30e86ff505b",
    },
    "diff": {
        "metrics.csv": "ad3f1c2ce31f7890ce7680c47ab39ec0e41a45823261e8e8d603bd84897e1f4a",
        "summary.json": "19ef5c1766ada45f29588fbb458529aa95bd1199407bc968e53ee3c2b560b2d5",
    },
    "dpdr": {
        "metrics.csv": "397ea690c62a960f3241f2c561827511a9f61c420eea507fc5e3371e7ac9188d",
        "summary.json": "0b9205509bd2ec44fdb49e6a0f90c796de40fc2fac00fde07418ca4c4e063804",
        "perp_norms.txt": "93a5d33649b86b5243ec2aaff2661b1c1416541c8be532a2cb68fd7600872126",
    },
}


def short_config(method: str) -> dict:
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

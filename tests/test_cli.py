import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dplab
from dplab.cli import config_echo, main, parse_config
from dplab.diagnostics import CSV_COLUMNS
from dplab.runio import read_metrics_csv
from dplab.trainers import SETTINGS, TAKES
from tests.test_data import write_idx_pair


def synthetic_spec(n=256, d_in=6, n_classes=2, margin=6.0, seed=0):
    return {
        "kind": "synthetic",
        "params": {"n": n, "d_in": d_in, "n_classes": n_classes, "margin": margin, "seed": seed},
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


PRIVATE_METHODS = ("dpsgd", "diff", "dpdr")


def method_doc(method, block="noise"):
    """A small valid config for ``method``, with a ``noise`` or ``privacy`` block."""
    doc = {"method": method, "total_steps": 6, "batch": 16, "lr": 0.5,
           "dataset": synthetic_spec(), "seed": 1}
    if method == "sgd":
        return doc
    dpdr = method == "dpdr"
    doc["clip"] = {"c_g": 1.0, "c_perp": 0.5, "c_alpha": 1.0} if dpdr else {"c_g": 1.0}
    if block == "noise":
        doc["noise"] = (
            {"sigma_g": 1.0, "sigma_perp": 1.0, "sigma_alpha": 2.0} if dpdr else {"sigma_g": 1.0}
        )
    else:
        doc["privacy"] = {"eps": 3.0, "delta": 1e-5}
        if dpdr:
            doc["privacy"]["sigma_alpha"] = 2.0
    if dpdr:
        doc["switch_step"] = 4
    return doc


def sgd_config(tmp_path, **kw):
    return write_config(tmp_path, {**method_doc("sgd"), "total_steps": 5, **kw})


def dpsgd_config(tmp_path, name="dpsgd.json", **kw):
    return write_config(tmp_path, {**method_doc("dpsgd"), **kw}, name)


def dpdr_config(tmp_path, name="dpdr.json", **kw):
    return write_config(tmp_path, {**method_doc("dpdr"), **kw}, name)


def _rejections():
    """(method, block, edit): ``edit`` turns the valid ``method_doc(method, block)``
    into a document the CLI must reject."""
    cases = [
        pytest.param("sgd", None, lambda d: d.update(clip={"c_g": 1.0}), id="sgd-clip"),
        pytest.param("sgd", None, lambda d: d.update(noise={"sigma_g": 1.0}), id="sgd-noise"),
        pytest.param("sgd", None, lambda d: d.update(privacy={"eps": 3.0, "delta": 1e-5}),
                     id="sgd-privacy"),
        pytest.param("sgd", None, lambda d: d.update(switch_step=2), id="sgd-switch_step"),
        pytest.param("sgd", None, lambda d: d.update(method="adam"), id="unknown-method"),
        # the files need not exist: the limit is checked before they are read
        pytest.param("sgd", None, lambda d: d.update(dataset={
            "kind": "idx", "path": {"images": "i.idx", "labels": "l.idx", "limit": 0}}),
            id="idx-limit-0"),
    ]
    for m in PRIVATE_METHODS:
        cases += [
            pytest.param(m, "noise", lambda d: d.update(privacy={"eps": 3.0, "delta": 1e-5,
                                                                  "sigma_alpha": 2.0}),
                         id=f"{m}-noise-and-privacy"),
            pytest.param(m, "noise", lambda d: d.pop("noise"), id=f"{m}-neither"),
            pytest.param(m, "noise", lambda d: d.pop("clip"), id=f"{m}-no-clip"),
            pytest.param(m, "noise", lambda d: d["noise"].update(sigma_g=-1.0),
                         id=f"{m}-negative-sigma_g"),
            pytest.param(m, "privacy", lambda d: d["privacy"].pop("delta"), id=f"{m}-no-delta"),
            pytest.param(m, "privacy", lambda d: d["privacy"].pop("eps"), id=f"{m}-no-eps"),
            pytest.param(m, "noise", lambda d: d.update(privacy={"delta": 1e-5}),
                         id=f"{m}-noise-and-delta"),
            pytest.param(m, "privacy", lambda d: d["privacy"].update(delta=1.0),
                         id=f"{m}-delta-1"),
            pytest.param(m, "privacy", lambda d: d["privacy"].update(eps=0.0), id=f"{m}-eps-0"),
            pytest.param(m, "privacy", lambda d: d["privacy"].update(eps="3"),
                         id=f"{m}-eps-string"),
        ]
    for m in ("dpsgd", "diff"):
        cases.append(pytest.param(m, "noise", lambda d: d.update(switch_step=2),
                                  id=f"{m}-switch_step"))
        cases.append(pytest.param(m, "privacy", lambda d: d["privacy"].update(sigma_alpha=2.0),
                                  id=f"{m}-sigma_alpha"))
    cases += [
        pytest.param("dpdr", "noise", lambda d: d.pop("switch_step"), id="dpdr-no-switch_step"),
        pytest.param("dpdr", "noise", lambda d: d.update(switch_step=0), id="dpdr-switch_step-0"),
        pytest.param("dpdr", "noise", lambda d: d.update(switch_step=7),
                     id="dpdr-switch_step-past-end"),
        pytest.param("dpdr", "noise", lambda d: d.update(switch_step=True),
                     id="dpdr-switch_step-bool"),
        pytest.param("dpdr", "noise", lambda d: d["clip"].pop("c_perp"), id="dpdr-no-c_perp"),
        pytest.param("dpdr", "noise", lambda d: d["noise"].pop("sigma_alpha"),
                     id="dpdr-no-noise-sigma_alpha"),
        pytest.param("dpdr", "privacy", lambda d: d["privacy"].pop("sigma_alpha"),
                     id="dpdr-no-privacy-sigma_alpha"),
    ]
    return cases


def _bad_privacy_values():
    """Privacy values that calibration cannot use; each must exit 2 up front."""
    cases = []
    for m in PRIVATE_METHODS:
        for key, value in (("eps", math.nan), ("eps", math.inf), ("ratio_g", 0.0),
                           ("ratio_g", -1.0), ("sigma_alpha", 0.0), ("sigma_alpha", -2.0)):
            cases.append(pytest.param(m, key, value, id=f"{m}-{key}={value}"))
    return cases


class TestTrain:
    def test_minimal_sgd_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", sgd_config(tmp_path), "--out", str(out)])
        assert code == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert len(rows) == 5
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "config", "resolved_noise", "final", "privacy", "phase_steps", "seed", "runtime_ms",
        }
        assert summary["privacy"]["eps"] is None

    def test_malformed_json_exits_2_without_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_key_exits_2(self, tmp_path):
        path = dpsgd_config(tmp_path)
        doc = json.loads(open(path).read())
        doc["momentum"] = 0.9
        assert main(["train", "--config", write_config(tmp_path, doc), "--out",
                     str(tmp_path / "o")]) == 2

    def test_missing_key_exits_2(self, tmp_path):
        doc = json.loads(open(dpsgd_config(tmp_path)).read())
        del doc["lr"]
        assert main(["train", "--config", write_config(tmp_path, doc), "--out",
                     str(tmp_path / "o")]) == 2

    def test_dataset_error_exits_4(self, tmp_path):
        doc = json.loads(open(dpsgd_config(tmp_path)).read())
        doc["dataset"] = {
            "kind": "idx",
            "path": {"images": str(tmp_path / "missing"), "labels": str(tmp_path / "missing2")},
        }
        assert main(["train", "--config", write_config(tmp_path, doc), "--out",
                     str(tmp_path / "o")]) == 4

    def test_infeasible_privacy_exits_3(self, tmp_path):
        doc = json.loads(open(dpdr_config(tmp_path)).read())
        del doc["noise"]
        doc["total_steps"] = 400
        doc["switch_step"] = 400
        doc["batch"] = 128
        # the alpha channel alone at sigma_alpha=0.2 overspends eps=1
        doc["privacy"] = {"eps": 1.0, "delta": 1e-5, "sigma_alpha": 0.2}
        assert main(["train", "--config", write_config(tmp_path, doc), "--out",
                     str(tmp_path / "o")]) == 3

    def test_privacy_block_round_trip(self, tmp_path):
        doc = json.loads(open(dpdr_config(tmp_path)).read())
        del doc["noise"]
        doc["total_steps"] = 60
        doc["switch_step"] = 20
        doc["privacy"] = {"eps": 3.0, "delta": 1e-5, "sigma_alpha": 2.0}
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["privacy"]["eps"] - 3.0) <= 3.0 * 1e-3

    def test_seed_override(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train", "--config", dpsgd_config(tmp_path), "--seed", "9",
                     "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 9

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = dpdr_config(tmp_path)
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "method,block,delta",
        [pytest.param("sgd", None, None, id="sgd-None")]
        + [pytest.param(m, b, 1e-5, id=f"{m}-{b}")
           for m in PRIVATE_METHODS for b in ("noise", "privacy")]
        + [pytest.param(m, "privacy", 1e-7, id=f"{m}-privacy-delta=1e-07")
           for m in PRIVATE_METHODS],
    )
    def test_config_echo_reproduces_run(self, tmp_path, method, block, delta):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        doc = method_doc(method, block)
        if block == "privacy":
            doc["privacy"]["delta"] = delta
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", cfg, "--out", str(out_a)]) == 0
        echo = json.loads((out_a / "summary.json").read_text())["config"]
        echo_path = write_config(tmp_path, echo, "echo.json")
        assert main(["train", "--config", echo_path, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_non_private_ablation_flagged(self, tmp_path):
        doc = json.loads(open(dpsgd_config(tmp_path)).read())
        doc["noise"] = {"sigma_g": 0.0}
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = read_metrics_csv(out / "metrics.csv")
        assert all(math.isinf(r["eps_cum"]) for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["privacy"]["eps"] is None


class TestConfigRules:
    """How a document's values fit together: every rejection exits 2 and
    writes nothing."""

    @pytest.mark.parametrize("method,block,edit", _rejections())
    def test_rejected_before_any_output(self, tmp_path, capsys, method, block, edit):
        doc = method_doc(method, block)
        edit(doc)
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("method,key,value", _bad_privacy_values())
    def test_bad_privacy_value_exits_2(self, tmp_path, capsys, command, method, key, value):
        doc = method_doc(method, "privacy")
        doc["privacy"][key] = value
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--config", cfg, "--out", str(out)]
        else:
            good = write_config(tmp_path, method_doc("dpsgd"), "good.json")
            argv = ["compare", "--configs", good, cfg, "--seeds", "1", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def accepted_configs(draw):
    """A TrainConfig the rules accept: every setting of a drawn TAKES row,
    those with a default left out at times, and no other setting."""
    method = draw(st.sampled_from(sorted(TAKES)))
    takes = TAKES[method][draw(st.sampled_from(list(TAKES[method])))]
    total_steps = draw(st.integers(1, 50))
    draws = {
        "switch_step": st.integers(1, total_steps),
        "clip": st.builds(dplab.ClipSpec, POSITIVE, POSITIVE, POSITIVE),
        "noise": st.builds(dplab.NoisePlan, *[st.floats(0.0, 1e300)] * 3),
        "delta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    }
    chosen = {}
    for name, (_, default) in SETTINGS.items():
        if name in takes and (default is None or draw(st.booleans())):
            chosen[name] = draw(draws.get(name, POSITIVE))
    return dplab.TrainConfig(
        method=method, total_steps=total_steps, batch=draw(st.integers(1, 10**6)),
        lr=draw(POSITIVE), seed=draw(st.integers(0, 2**63)), **chosen,
    )


@settings(max_examples=300, deadline=None)
@given(accepted_configs())
def test_config_echo_parses_back_to_the_config(config):
    echo = json.loads(json.dumps(config_echo(config, synthetic_spec())))
    assert parse_config(echo) == (config, synthetic_spec())


class TestCalibrate:
    BASE = ["calibrate", "--eps", "3", "--delta", "1e-5", "--n", "4096", "--batch", "128",
            "--steps", "200", "--sigma-alpha", "2.0"]

    def test_emits_json(self, tmp_path, capsys):
        assert main(self.BASE + ["--switch", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"sigma_perp", "sigma_alpha", "sigma_g", "sigma_eff", "eps", "order"}
        assert abs(out["eps"] - 3.0) <= 3e-3
        assert out["sigma_perp"] > 0
        assert out["sigma_eff"] < min(out["sigma_perp"], out["sigma_alpha"])

    def test_doubled_eps_shrinks_sigma(self, capsys):
        assert main(self.BASE + ["--switch", "50"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["calibrate", "--eps", "6", "--delta", "1e-5", "--n", "4096",
                     "--batch", "128", "--steps", "200", "--sigma-alpha", "2.0",
                     "--switch", "50"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["sigma_perp"] < first["sigma_perp"]

    def test_switch_one_marks_sigma_perp_unused(self, capsys):
        assert main(self.BASE + ["--switch", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sigma_perp"] is None
        assert out["sigma_eff"] is None
        assert out["sigma_g"] > 0

    def test_reference_row_band(self, capsys):
        # 20 epochs of 235 steps on 60000 examples at batch 256: the solved
        # sigma_perp lands inside the published-multiplier band [0.6, 1.1]
        assert main(["calibrate", "--eps", "3", "--delta", "1e-5", "--n", "60000",
                     "--batch", "256", "--steps", "4700", "--switch", "50",
                     "--sigma-alpha", "2.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.6 <= out["sigma_perp"] <= 1.1
        assert abs(out["eps"] - 3.0) <= 3e-3

    def test_infeasible_exits_3(self, capsys):
        code = main(["calibrate", "--eps", "0.5", "--delta", "1e-5", "--n", "1000",
                     "--batch", "100", "--steps", "500", "--switch", "500",
                     "--sigma-alpha", "0.3"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--switch", "300"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
         ("--delta", "1"), ("--sigma-alpha", "0"), ("--sigma-alpha", "nan"),
         ("--ratio-g", "-1"), ("--ratio-g", "inf"), ("--batch", "5000")],
    )
    def test_bad_arguments_exit_2(self, capsys, flag, value):
        args = dict(zip(self.BASE[1::2], self.BASE[2::2]), **{"--switch": "50"})
        args[flag] = value
        assert main(["calibrate", *(part for pair in args.items() for part in pair)]) == 2
        assert capsys.readouterr().out == ""


class TestCompare:
    def test_self_comparison_identical_rows(self, tmp_path, capsys):
        cfg = dpsgd_config(tmp_path, total_steps=4)
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", cfg, cfg, "--seeds", "2",
                     "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "method,seed,final_accuracy,steps_to_target_loss,eps"
        body = lines[1:]
        assert len(body) == 4
        assert body[0] == body[2] and body[1] == body[3]

    def test_k1_equals_single_train_run(self, tmp_path):
        cfg = dpsgd_config(tmp_path, total_steps=4)
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", cfg, "--seeds", "1", "--out", str(out)]) == 0
        solo = tmp_path / "solo"
        assert main(["train", "--config", cfg, "--seed", "0", "--out", str(solo)]) == 0
        cmp_metrics = (out / "c0_dpsgd_seed0" / "metrics.csv").read_bytes()
        assert cmp_metrics == (solo / "metrics.csv").read_bytes()

    def test_runs_on_one_spec_share_a_build(self, tmp_path, monkeypatch):
        built = []
        build = dplab.cli.build_dataset

        def counting(spec):
            built.append(spec)
            return build(spec)

        monkeypatch.setattr("dplab.cli.build_dataset", counting)
        shared = dpsgd_config(tmp_path, total_steps=2)
        other = dpdr_config(tmp_path, total_steps=2, switch_step=2,
                            dataset=synthetic_spec(seed=3))
        sgd = sgd_config(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", shared, other, sgd, "--seeds", "2",
                     "--out", str(out)]) == 0
        # one build per run of consecutive configs on one spec: 3, not 6
        assert built == [synthetic_spec(), synthetic_spec(seed=3), synthetic_spec()]
        solo = tmp_path / "solo"
        assert main(["train", "--config", sgd, "--seed", "1", "--out", str(solo)]) == 0
        # train looks the builder up when it runs, as the benchmark's tracer needs
        assert built[3:] == [synthetic_spec()]
        for name in ("metrics.csv", "summary.json"):
            assert (out / "c2_config_seed1" / name).read_bytes() == (solo / name).read_bytes()

    def test_partial_failure_exits_5(self, tmp_path, capsys):
        good = dpsgd_config(tmp_path, name="good.json", total_steps=3)
        doc = json.loads(open(dpdr_config(tmp_path)).read())
        del doc["noise"]
        # the alpha channel alone at sigma_alpha=0.2 overspends eps=0.5
        doc["privacy"] = {"eps": 0.5, "delta": 1e-5, "sigma_alpha": 0.2}
        doc["total_steps"] = 400
        doc["switch_step"] = 400
        doc["batch"] = 128
        bad = write_config(tmp_path, doc, "bad.json")
        out = tmp_path / "cmp"
        code = main(["compare", "--configs", good, bad, "--seeds", "1", "--out", str(out)])
        assert code == 5
        err = capsys.readouterr().err
        assert "completed runs" in err
        assert "c0_good_seed0" in err

    def test_invalid_config_exits_2_before_any_run(self, tmp_path):
        good = dpsgd_config(tmp_path, name="ok.json")
        bad = write_config(tmp_path, {"method": "nope"}, "broken.json")
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", good, bad, "--seeds", "1", "--out", str(out)]) == 2
        assert not out.exists()


class TestPlotData:
    def _run(self, tmp_path, cfg_fn):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_fn(tmp_path), "--out", str(out)]) == 0
        return out

    def test_norms_kind(self, tmp_path):
        run = self._run(tmp_path, dpdr_config)
        dest = tmp_path / "norms.dat"
        assert main(["plot-data", "--metrics", str(run / "metrics.csv"), "--kind", "norms",
                     "--out", str(dest)]) == 0
        rows = [line.split() for line in dest.read_text().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            step, grad, perp, diff = int(row[0]), float(row[1]), float(row[2]), float(row[3])
            assert perp <= grad or perp == 0.0

    def test_convergence_kind_monotone_eps(self, tmp_path):
        run = self._run(tmp_path, dpsgd_config)
        dest = tmp_path / "conv.dat"
        assert main(["plot-data", "--metrics", str(run / "metrics.csv"), "--kind",
                     "convergence", "--out", str(dest)]) == 0
        eps = [float(line.split()[0]) for line in dest.read_text().splitlines()[1:]]
        assert eps == sorted(eps)

    def test_unknown_kind_exits_2(self, tmp_path):
        run = self._run(tmp_path, dpsgd_config)
        for kind in ("spiral", "hist-perp"):
            assert main(["plot-data", "--metrics", str(run / "metrics.csv"), "--kind", kind,
                         "--out", str(tmp_path / "x.dat")]) == 2

    def test_missing_columns_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,oops\n1,2\n", encoding="utf-8")
        assert main(["plot-data", "--metrics", str(bad), "--kind", "norms",
                     "--out", str(tmp_path / "x.dat")]) == 2


def _run_dir(tmp_path, cell="0.5"):
    """A run directory with a one-row metrics.csv (second column ``cell``)."""
    run = tmp_path / "run"
    run.mkdir()
    row = ["1", cell] + ["0.5"] * (len(CSV_COLUMNS) - 2)
    (run / "metrics.csv").write_text(",".join(CSV_COLUMNS) + "\n" + ",".join(row) + "\n")
    return run


def _plot(run, kind):
    return ["plot-data", "--metrics", str(run / "metrics.csv"), "--kind", kind,
            "--out", str(run.parent / "plot.dat")]


def _single_class_compare(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((32, 2, 2)), np.zeros(32))
    doc = {**method_doc("dpsgd"),
           "dataset": {"kind": "idx", "path": {"images": str(img), "labels": str(lab)}}}
    return ["compare", "--configs", write_config(tmp_path, doc), "--seeds", "1",
            "--out", str(tmp_path / "cmp")]


def _out_under_file(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    return ["train", "--config", dpsgd_config(tmp_path), "--out", str(blocker / "run")]


def _missing_idx(tmp_path):
    doc = {**method_doc("dpsgd"), "dataset": {
        "kind": "idx", "path": {"images": str(tmp_path / "gone"), "labels": str(tmp_path / "x")}}}
    return ["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]


def _infeasible_train(tmp_path):
    doc = {**method_doc("dpdr", "privacy"), "total_steps": 400, "switch_step": 400, "batch": 128}
    # the alpha channel alone at sigma_alpha=0.2 overspends eps=1
    doc["privacy"] = {"eps": 1.0, "delta": 1e-5, "sigma_alpha": 0.2}
    return ["train", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "a" / "o")]


class TestExitCodes:
    """Every failure ends in its documented exit code and one ``error:`` report."""

    @pytest.mark.parametrize("argv,code,message", [
        pytest.param(lambda t: ["plot-data", "--metrics", str(t / "none.csv"), "--kind", "norms",
                                "--out", str(t / "x.dat")], 2,
                     "error: [Errno 2] No such file or directory", id="missing-metrics"),
        pytest.param(_single_class_compare, 5, "completed runs: none", id="compare-one-class"),
        pytest.param(lambda t: _plot(_run_dir(t, cell="xyz"), "norms"), 2,
                     "metrics.csv: line 2: not a number: 'xyz'", id="non-numeric-metrics"),
        pytest.param(_out_under_file, 2, "error: [Errno 20] Not a directory",
                     id="out-under-file"),
        pytest.param(_missing_idx, 4, "error: dataset: [Errno 2] No such file or directory",
                     id="missing-idx-file"),
        pytest.param(_infeasible_train, 3, "error: calibration infeasible: ",
                     id="infeasible-calibration"),
    ])
    def test_failure_reports(self, tmp_path, capsys, argv, code, message):
        args = argv(tmp_path)
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(args) == code
        assert set(tmp_path.rglob("*")) == before  # a failure writes nothing
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    def test_overflowing_margin_exits_2(self, tmp_path, capsys):
        """At margin 1e200 every row's ||x||^2 overflows float64, so no
        gradient could be clipped: the dataset is rejected before training,
        in one ``error:`` line that names a row."""
        doc = {**method_doc("dpsgd"), "dataset": synthetic_spec(margin=1e200)}
        out = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: config.dataset.params: row 0: squared norm overflows float64, "
            "so its gradient cannot be clipped"
        ]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_unusable_out_fails_before_training(self, tmp_path, capsys, monkeypatch, command):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although --out is unusable")

        monkeypatch.setattr("dplab.cli.train", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = dpsgd_config(tmp_path)
        if command == "train":
            argv, code = ["train", "--config", cfg, "--out", str(blocker / "run")], 2
        else:
            argv, code = ["compare", "--configs", cfg, "--seeds", "2", "--out", str(blocker)], 5
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "[Errno 20] Not a directory" in err
        assert command == "train" or "completed runs: none" in err

    def test_process_exit_code(self, tmp_path):
        src = str(Path(dplab.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "dplab.cli", *_plot(_run_dir(tmp_path, cell="xyz"), "norms")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

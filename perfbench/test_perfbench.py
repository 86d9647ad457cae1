"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from deepkt import autodiff, baselines, datasets, harness, metrics, models  # noqa: E402
from deepkt.metrics import PredictionSet  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEEPKT_MODULES = (autodiff, baselines, datasets, harness, metrics, models)

# the per-model figures each workload prints beside its result line
DETAILS = {
    "train": ["train.deep_irt.steps_per_s", "train.dkt.steps_per_s",
              "train.deep_irt.auc", "train.dkt.auc"],
    "eval_long": ["eval.deep_irt.steps_per_s", "eval.dkt.steps_per_s"],
    "baselines": ["baselines.pfa.s", "baselines.lfa.s", "baselines.irt.s",
                  "baselines.pfa.auc"],
}


def tiny(workload, trace, seed=3):
    return bench.run(workload, seed, 0.0, trace, scale="tiny")


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, report = tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in DETAILS[workload] + ["fail_ratio"]:
        assert "unit" in report["details"][name]
    # each timed model weighs the same; the AUC guard follows the worst model
    sz, prefix = bench.SIZES["tiny"][workload], bench.WORKLOADS[workload][2]
    detail = lambda m, x: report["details"][f"{prefix}.{m}.{x}"]["value"]
    rates = [detail(m, "steps_per_s") for m in sz["timed"]]
    assert result["metrics"]["steps_per_s"]["value"] == \
        pytest.approx(np.prod(rates) ** (1 / len(rates)))
    assert result["metrics"]["auc_ratio"]["value"] == \
        min(detail(m, "auc") / ref for m, ref in sz["auc_ref"].items())
    prov = report["provenance"]
    for key in ("nproc", "python", "numpy", "blas", "blas_threads", "seed",
                "commit", "sizes"):
        assert key in prov


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, _ = tiny(workload, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["datasets.generate_synthetic.s"] > 0
    assert values["trace.slowdown"] > 0
    if workload == "baselines":
        assert all(v == 0 for k, v in values.items() if k.startswith("autodiff."))
        assert values["baselines.fit_logistic.peak_alloc_mb"] > 0
    else:
        assert values["autodiff.op.gemm.calls"] > 0
        assert values["harness.evaluate.peak_alloc_mb"] > 0
        assert (values["autodiff.backward.s"] > 0) == (workload == "train")


def _functions(owner):
    # Tensor._counter is an int the program itself bumps; compare callables
    return {k: v for k, v in vars(owner).items() if callable(v)}


def _snapshot():
    owners = DEEPKT_MODULES + (autodiff.Tensor,)
    return {owner: (set(vars(owner)), _functions(owner)) for owner in owners}


def _assert_same(before):
    for owner, (names, functions) in before.items():
        assert set(vars(owner)) == names, owner
        after = _functions(owner)
        assert after.keys() == functions.keys(), owner
        assert all(after[k] is functions[k] for k in functions), owner


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_restores_deepkt_attributes(workload):
    before = _snapshot()
    tiny(workload, trace=True)
    _assert_same(before)


def test_tracer_restores_attributes_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            bench.instrument(tracer)
            assert harness.backward is not before[harness][1]["backward"]
            raise RuntimeError("boom")
    _assert_same(before)


def test_tracer_self_time_excludes_children():
    class Owner:
        @staticmethod
        def outer():
            Owner.inner()

        @staticmethod
        def inner():
            sum(range(10000))

    with Tracer() as tracer:
        tracer.wrap(Owner, "inner", "inner")
        tracer.wrap(Owner, "outer", "outer")
        Owner.outer()
    st = tracer.take()
    assert st["outer"].calls == st["inner"].calls == 1
    assert st["outer"].self_ns == st["outer"].busy_ns - st["inner"].busy_ns
    assert "inner" in vars(Owner) and not hasattr(Owner.inner, "__wrapped__")


def test_op_calls_per_batch_repeat_exactly():
    names = [f"autodiff.op_calls_per_batch.{m}" for m in bench.DEEP_MODELS]
    for workload in ("train", "eval_long"):
        first, _ = tiny(workload, trace=True, seed=1)
        second, _ = tiny(workload, trace=True, seed=2)
        for name in names:
            value = first["metrics"][name]["value"]
            assert value > 0 and value == int(value)
            assert second["metrics"][name]["value"] == value


def test_auc_repeats_exactly_for_a_seed():
    first, _ = tiny("train", trace=False)
    second, _ = tiny("train", trace=False)
    assert first["metrics"]["auc_ratio"]["value"] == \
        second["metrics"]["auc_ratio"]["value"]


def test_check_predictions_flags_each_defect():
    pred = PredictionSet([0.2, 0.7, 0.4], [0, 1, 1])
    assert bench.check_predictions(pred, 3, 0.75, 0.5) == []
    assert len(bench.check_predictions(pred, 4, 0.75, 0.5)) == 1
    assert len(bench.check_predictions(pred, 3, 0.75, 0.8)) == 1
    for bad in (1.0, 0.0, np.nan):
        pred = PredictionSet([0.2, bad, 0.4], [0, 1, 1])
        assert len(bench.check_predictions(pred, 3, 0.75, 0.5)) == 1


@pytest.mark.parametrize("model", bench.DEEP_MODELS)
def test_batch_of_one_check_flags_a_small_difference(model):
    sz = bench.SIZES["tiny"]["eval_long"]
    ds, params = bench.setup_eval_long(sz, 5)
    cfg = bench.deep_config(sz, model, 5)
    pred = harness.evaluate(params[model], ds, cfg, eval_batch=sz["eval_batch"])
    assert bench.check_batch_of_one(params[model], ds, pred, cfg.seq_len, model, 3) == []
    scores = pred.scores.copy()
    scores[-1] += 1e-8
    nudged = PredictionSet(scores, pred.labels)
    assert len(bench.check_batch_of_one(params[model], ds, nudged, cfg.seq_len,
                                        model, 3)) == 1


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    real = harness.evaluate

    def shifted(*args, **kwargs):
        pred = real(*args, **kwargs)
        return PredictionSet(pred.scores + 1.0, pred.labels)

    monkeypatch.setattr(harness, "evaluate", shifted)
    monkeypatch.setitem(bench.SIZES, "full", bench.SIZES["tiny"])
    code = run.main(["--workload", "eval_long", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The deepkt benchmark: workloads, correctness checks, metrics and tracing.

Each workload has a set-up (synthetic data from ``generate_synthetic``, plus a
short training run for ``eval_long``) and a round: one full unit of the work
it measures.  A run sets up several times, then repeats rounds until its time
budget is spent, and reports medians.  See NOTES.md for why each workload
exists and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from deepkt import autodiff, baselines, datasets, harness, metrics, models

from tracer import Tracer, total

DEEP_MODELS = ("deep_irt", "dkt")
BASELINE_MODELS = ("pfa", "lfa", "irt", "item_analysis")

# autodiff ops timed one by one (forward only; their backward closures run
# inside autodiff.backward)
TRACED_OPS = ("gemm", "add", "mul", "scale", "activation", "softmax_rows",
              "gather_rows", "concat_cols", "slice_cols", "take_per_row",
              "tile_rows", "attention_read", "memory_write",
              "binary_cross_entropy")

# `full` is the benchmark; `tiny` keeps the benchmark's own tests fast.
# `timed`: the models whose throughput is gated (item analysis takes 0.02 s, too
# short to time steadily).  `auc_ref`: each model's median AUC over seeds 1-10
# at the seed commit; `auc_floor` sits below the lowest of those seeds.
SIZES = {
    "full": {
        "train": {"students": 500, "questions": 50, "concepts": 5,
                  "test_fraction": 0.3, "epochs": 10, "seq_len": 50,
                  "batch_size": 32, "mem_slots": 20, "state_dim": 50,
                  "feature_dim": 50, "hidden": 50, "setup_repeats": 20,
                  "timed": DEEP_MODELS,
                  "auc_floor": {"deep_irt": 0.58, "dkt": 0.58},
                  "auc_ref": {"deep_irt": 0.672, "dkt": 0.680}},
        "eval_long": {"students": 1000, "questions": 200, "concepts": 5,
                      "seq_len": 200, "eval_batch": 200, "fit_students": 200,
                      "fit_epochs": 1, "fit_seq_len": 50, "fit_lr": 0.01,
                      "checked_students": 3, "setup_repeats": 3,
                      "timed": DEEP_MODELS,
                      "auc_floor": {"deep_irt": 0.55, "dkt": 0.55},
                      "auc_ref": {"deep_irt": 0.634, "dkt": 0.622}},
        "baselines": {"students": 300, "questions": 400, "concepts": 150,
                      "test_fraction": 0.3, "setup_repeats": 10,
                      "timed": ("pfa", "lfa", "irt"),
                      "auc_floor": {"pfa": 0.62, "lfa": 0.55, "irt": 0.5,
                                    "item_analysis": 0.5},
                      "auc_ref": {"pfa": 0.684, "lfa": 0.608, "irt": 0.552,
                                  "item_analysis": 0.552}},
    },
    "tiny": {
        "train": {"students": 40, "questions": 10, "concepts": 2,
                  "test_fraction": 0.3, "epochs": 1, "seq_len": 5,
                  "batch_size": 8, "mem_slots": 3, "state_dim": 4,
                  "feature_dim": 4, "hidden": 4, "setup_repeats": 2,
                  "timed": DEEP_MODELS,
                  "auc_floor": {"deep_irt": 0.0, "dkt": 0.0},
                  "auc_ref": {"deep_irt": 0.5, "dkt": 0.5}},
        "eval_long": {"students": 12, "questions": 12, "concepts": 2,
                      "seq_len": 12, "eval_batch": 5, "fit_students": 8,
                      "fit_epochs": 1, "fit_seq_len": 6, "fit_lr": 0.01,
                      "checked_students": 2, "setup_repeats": 2,
                      "timed": DEEP_MODELS,
                      "auc_floor": {"deep_irt": 0.0, "dkt": 0.0},
                      "auc_ref": {"deep_irt": 0.5, "dkt": 0.5}},
        "baselines": {"students": 30, "questions": 20, "concepts": 5,
                      "test_fraction": 0.3, "setup_repeats": 2,
                      "timed": ("pfa", "lfa", "irt"),
                      "auc_floor": {"pfa": 0.0, "lfa": 0.0, "irt": 0.0,
                                    "item_analysis": 0.0},
                      "auc_ref": {"pfa": 0.5, "lfa": 0.5, "irt": 0.5,
                                  "item_analysis": 0.5}},
    },
}

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "steps_per_s": "1/s",
                    "auc_ratio": "ratio"}


@dataclasses.dataclass
class Op:
    """One measured call of the program: a model trained, evaluated or fitted."""
    model: str
    seconds: float
    steps: int          # scored interactions
    auc: float
    problems: list


def _attempt(model, fn):
    """Run ``fn() -> Op``; an exception becomes a failed Op."""
    try:
        return fn()
    except Exception:  # the run must go on to report the failure
        traceback.print_exc(file=sys.stderr)
        return Op(model, float("nan"), 0, float("nan"),
                  [f"raised {sys.exc_info()[0].__name__}"])


# ---------------------------------------------------------------------------
# checks


def scored_steps(seqs, seq_len, model):
    """Interactions a model scores: all of them, less the first step of each
    chunk for DKT, which has no history to predict from."""
    steps = sum(len(s.steps) for s in seqs)
    if model == "dkt":
        steps -= sum(-(-len(s.steps) // seq_len) for s in seqs)
    return steps


def check_predictions(pred, expected_count, auc, floor):
    problems = []
    if len(pred.scores) != expected_count:
        problems.append(f"scored {len(pred.scores)} steps, expected {expected_count}")
    s = pred.scores
    if not (np.all(np.isfinite(s)) and np.all((s > 0.0) & (s < 1.0))):
        problems.append("a prediction is not finite or lies outside (0, 1)")
    if not auc >= floor:
        problems.append(f"AUC {auc:.4f} below floor {floor}")
    return problems


def check_batch_of_one(params, ds, pred, seq_len, model, count):
    """A few students forwarded alone must match the batched evaluation."""
    per_student = [scored_steps([s], seq_len, model) for s in ds.sequences]
    offsets = np.concatenate([[0], np.cumsum(per_student)])
    problems = []
    for i in np.linspace(0, len(ds.sequences) - 1, count).astype(int):
        out = models.forward(params, datasets.pad_and_mask(
            [ds.sequences[i]], seq_len, ds.num_kcs))
        alone = out.p[out.pred_mask == 1]
        together = pred.scores[offsets[i]:offsets[i + 1]]
        if alone.shape != together.shape or np.max(np.abs(alone - together)) > 1e-9:
            problems.append(f"student {i} alone differs from its batched scores")
    return problems


# ---------------------------------------------------------------------------
# workloads


def deep_config(sz, model, seed, **overrides):
    cfg = harness.TrainConfig(model=model, seq_len=sz["seq_len"], seed=seed,
                              **{k: sz[k] for k in ("epochs", "batch_size",
                                                    "mem_slots", "state_dim",
                                                    "feature_dim", "hidden")
                                 if k in sz})
    return dataclasses.replace(cfg, **overrides)


def synthetic(sz, seed, students):
    return datasets.generate_synthetic(datasets.SyntheticConfig(
        num_students=students, num_questions=sz["questions"],
        num_concepts=sz["concepts"], seed=seed))


def setup_train(sz, seed):
    ds, _ = synthetic(sz, seed, sz["students"])
    return datasets.split_train_test(ds, sz["test_fraction"], seed)


def round_train(sz, state, seed, untraced):
    train_ds, test_ds = state
    ops = []
    for model in DEEP_MODELS:
        def op():
            cfg = deep_config(sz, model, seed)
            start = time.perf_counter()
            params, losses = harness.train(cfg, train_ds)
            seconds = time.perf_counter() - start
            pred = harness.evaluate(params, test_ds, cfg)
            auc = metrics.auc(pred)
            with untraced():
                problems = check_predictions(
                    pred, scored_steps(test_ds.sequences, cfg.seq_len, model),
                    auc, sz["auc_floor"][model])
                if not np.all(np.isfinite(losses)):
                    problems.append("non-finite training loss")
            steps = cfg.epochs * scored_steps(train_ds.sequences, cfg.seq_len, model)
            return Op(model, seconds, steps, auc, problems)
        ops.append(_attempt(model, op))
    return ops


def setup_eval_long(sz, seed):
    # the first `students` are evaluated; the extra ones train the parameters
    ds, _ = synthetic(sz, seed, sz["students"] + sz["fit_students"])
    eval_ds = datasets.Dataset(ds.num_kcs, ds.sequences[:sz["students"]], "eval")
    fit_ds = datasets.Dataset(ds.num_kcs, ds.sequences[sz["students"]:], "fit")
    params = {}
    for model in DEEP_MODELS:
        cfg = deep_config(sz, model, seed, epochs=sz["fit_epochs"],
                          seq_len=sz["fit_seq_len"], lr=sz["fit_lr"])
        params[model], _ = harness.train(cfg, fit_ds)
    return eval_ds, params


def round_eval_long(sz, state, seed, untraced):
    eval_ds, params = state
    ops = []
    for model in DEEP_MODELS:
        def op():
            cfg = deep_config(sz, model, seed)
            start = time.perf_counter()
            pred = harness.evaluate(params[model], eval_ds, cfg,
                                    eval_batch=sz["eval_batch"])
            auc = metrics.auc(pred)
            acc = metrics.accuracy(pred)
            xent = metrics.mean_xent(pred)
            seconds = time.perf_counter() - start
            with untraced():
                steps = scored_steps(eval_ds.sequences, cfg.seq_len, model)
                problems = check_predictions(pred, steps, auc, sz["auc_floor"][model])
                if not (0.0 <= acc <= 1.0 and np.isfinite(xent)):
                    problems.append(f"accuracy {acc} or cross-entropy {xent} invalid")
                problems += check_batch_of_one(params[model], eval_ds, pred,
                                               cfg.seq_len, model,
                                               sz["checked_students"])
            return Op(model, seconds, steps, auc, problems)
        ops.append(_attempt(model, op))
    return ops


def by_concept(ds, truth, num_concepts):
    """Relabel each question by its generator concept.

    ``generate_synthetic`` asks every question once, so without this every
    PFA success/failure count is 0 and PFA reduces to IRT.
    """
    concept = truth.question_concept
    seqs = [datasets.InteractionSequence(
                s.student_id, [(int(concept[q - 1]), a) for q, a in s.steps])
            for s in ds.sequences]
    return datasets.Dataset(num_concepts, seqs, ds.name + "/by-concept")


def setup_baselines(sz, seed):
    ds, truth = synthetic(sz, seed, sz["students"])
    return datasets.split_train_test(by_concept(ds, truth, sz["concepts"]),
                                     sz["test_fraction"], seed)


def round_baselines(sz, state, seed, untraced):
    train_ds, test_ds = state
    steps = sum(len(s.steps) for s in test_ds.sequences)
    ops = []
    for model in BASELINE_MODELS:
        def op():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                pred = harness.evaluate_baseline(model, train_ds, test_ds)
                seconds = time.perf_counter() - start
            auc = metrics.auc(pred)
            # fit_logistic and fit_irt warn exactly when they return
            # converged=False; the scoring path does not expose the fit
            problems = [f"fit did not converge: {w.message}" for w in caught
                        if "stopped at gradient norm" in str(w.message)]
            with untraced():
                problems += check_predictions(pred, steps, auc,
                                              sz["auc_floor"][model])
            return Op(model, seconds, steps, auc, problems)
        ops.append(_attempt(model, op))
    return ops


WORKLOADS = {
    "train": (setup_train, round_train, "train"),
    "eval_long": (setup_eval_long, round_eval_long, "eval"),
    "baselines": (setup_baselines, round_baselines, "baselines"),
}


# ---------------------------------------------------------------------------
# tracing


def model_label(params, *args, **kwargs):
    if isinstance(params, models.DktParams):
        return "dkt"
    return "deep_irt" if params.arch.deep_irt else "dkvmn"


def instrument(tracer):
    """Wrap every measured layer at the attribute its callers look up."""
    tracer.wrap(datasets, "generate_synthetic", "datasets.generate_synthetic")
    for owner in (datasets, harness):
        tracer.wrap(owner, "pad_and_mask", "datasets.pad_and_mask")
    # graph nodes: every Tensor bumps the program's own counter
    tensors = lambda: autodiff.Tensor._counter
    tracer.wrap(models, "forward", "models.forward", label=model_label,
                counter=tensors)
    tracer.wrap(models, "sequence_loss", "models.sequence_loss", counter=tensors)
    for op in TRACED_OPS:
        tracer.wrap(autodiff, op, f"autodiff.op.{op}")
    for fn in ("backward", "clip_global_norm", "adam_step"):
        for owner in (autodiff, harness):
            tracer.wrap(owner, fn, f"autodiff.{fn}")
    tracer.wrap(harness, "train", "harness.train",
                label=lambda config, *a, **k: config.model)
    tracer.wrap(harness, "evaluate", "harness.evaluate", label=model_label)
    tracer.wrap(harness, "evaluate_baseline", "harness.evaluate_baseline",
                label=lambda model, *a, **k: model)
    tracer.wrap(metrics, "auc", "metrics.auc")
    for fn in ("build_pfa_features", "first_attempts", "fit_irt", "item_analysis"):
        tracer.wrap(baselines, fn, f"baselines.{fn}")
    tracer.wrap(baselines, "fit_logistic", "baselines.fit_logistic",
                label=lambda features, labels=None, design="PFA", **k: design.lower())


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    s = lambda *names: [(n, "s") for n in names]
    names = s("datasets.generate_synthetic.s", "datasets.pad_and_mask.s",
              "models.forward.deep_irt.s", "models.forward.dkt.s",
              "models.sequence_loss.s")
    for op in TRACED_OPS:
        names += [(f"autodiff.op.{op}.self_s", "s"), (f"autodiff.op.{op}.calls", "count")]
    names += [(f"autodiff.op_calls_per_batch.{m}", "count") for m in DEEP_MODELS]
    names += s("autodiff.backward.s", "autodiff.clip_global_norm.s",
               "autodiff.adam_step.s", "harness.train.deep_irt.s",
               "harness.train.dkt.s", "harness.evaluate.s")
    names += [("harness.evaluate.peak_alloc_mb", "MB")]
    names += s("metrics.auc.s", "baselines.build_pfa_features.s",
               "baselines.fit_logistic.pfa.s", "baselines.fit_logistic.lfa.s")
    names += [("baselines.fit_logistic.peak_alloc_mb", "MB")]
    names += s("baselines.first_attempts.s", "baselines.fit_irt.s",
               "baselines.item_analysis.s")
    names += [(f"harness.evaluate_baseline.{m}.self_s", "s") for m in ("pfa", "lfa", "irt")]
    names += [("trace.slowdown", "x")]
    return names


def round_layer_values(st):
    """Per-layer values of one traced round (layers not run read 0)."""
    sec = lambda prefix, field="busy_ns": total(st, prefix, field) / 1e9
    vals = {"datasets.pad_and_mask.s": sec("datasets.pad_and_mask"),
            "models.sequence_loss.s": sec("models.sequence_loss")}
    loss = st.get("models.sequence_loss")
    for m in DEEP_MODELS:
        vals[f"models.forward.{m}.s"] = sec(f"models.forward.{m}")
        vals[f"harness.train.{m}.s"] = sec(f"harness.train.{m}")
        fwd = st.get(f"models.forward.{m}")
        # graph nodes (Tensor objects) one batch creates in forward and loss
        per_batch = fwd.counted / fwd.calls if fwd else 0.0
        if fwd and loss:
            per_batch += loss.counted / loss.calls
        vals[f"autodiff.op_calls_per_batch.{m}"] = per_batch
    for op in TRACED_OPS:
        vals[f"autodiff.op.{op}.self_s"] = sec(f"autodiff.op.{op}", "self_ns")
        vals[f"autodiff.op.{op}.calls"] = total(st, f"autodiff.op.{op}", "calls")
    for name in ("autodiff.backward", "autodiff.clip_global_norm", "autodiff.adam_step",
                 "harness.evaluate", "metrics.auc", "baselines.build_pfa_features",
                 "baselines.fit_logistic.pfa", "baselines.fit_logistic.lfa",
                 "baselines.first_attempts", "baselines.fit_irt",
                 "baselines.item_analysis"):
        vals[name + ".s"] = sec(name)
    for m in ("pfa", "lfa", "irt"):
        vals[f"harness.evaluate_baseline.{m}.self_s"] = sec(
            f"harness.evaluate_baseline.{m}", "self_ns")
    return vals


# ---------------------------------------------------------------------------
# the run


def provenance(workload, seed, scale, sz, root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")},
            "seed": seed, "commit": git_commit(root), "workload": workload,
            "scale": scale, "sizes": sz}


def git_commit(root):
    """The checked-out commit, read from .git without running git; None outside
    a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return float(statistics.median(values))


def _run_rounds(run_round, seconds):
    """Repeat rounds while another one of average length still fits in
    ``seconds``; at least one."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        began = time.perf_counter()
        rounds.append(run_round())
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.mean(walls) > seconds:
            return rounds, walls


def _tally(rounds):
    """(attempted, failed, problems), counting a model whose AUC changed
    between rounds of one run as a failure: the program is deterministic."""
    attempted = failed = 0
    problems = []
    first = {op.model: op.auc for op in rounds[0]}
    for ops in rounds:
        for op in ops:
            attempted += 1
            bad = list(op.problems)
            if op.auc != first[op.model] and not np.isnan(op.auc):
                bad.append(f"AUC {op.auc!r} differs from first round {first[op.model]!r}")
            if bad:
                failed += 1
                problems += [f"{op.model}: {p}" for p in bad]
    return attempted, failed, problems


def run(workload, seed, seconds, trace, scale="full", trace_dir=None):
    """Run one workload; returns (result, report).

    ``result`` is the benchmark's one-line answer; ``report`` holds provenance,
    per-model figures and any failed checks.  Traced runs write their spans
    under ``trace_dir`` when it is given.
    """
    setup, round_fn, prefix = WORKLOADS[workload]
    sz = SIZES[scale][workload]
    root = Path(__file__).resolve().parent.parent
    report = {"provenance": provenance(workload, seed, scale, sz, root), "details": {}}
    make_state = lambda: setup(sz, seed)
    run_round = lambda state, untraced: round_fn(sz, state, seed, untraced)
    if trace:
        path = None if trace_dir is None else \
            Path(trace_dir) / f"trace-{workload}-seed{seed}.jsonl.gz"
        rounds, values = _traced(make_state, run_round, sz, seconds, report, path)
        units = dict(per_layer_names())
    else:
        rounds, values = _untraced(make_state, run_round, sz, seconds, report, prefix)
        units = END_TO_END_UNITS

    attempted, failed, problems = _tally(rounds)
    report["details"]["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    report["problems"] = problems
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    return result, report


def _untraced(make_state, run_round, sz, seconds, report, prefix):
    setup_times = []
    for _ in range(sz["setup_repeats"]):
        # start each set-up from a clean heap, as a fresh process would
        state = None
        gc.collect()
        start = time.perf_counter()
        state = make_state()
        setup_times.append(time.perf_counter() - start)
    rounds, _ = _run_rounds(lambda: run_round(state, nullcontext), seconds)

    report["rounds"] = len(rounds)
    report["samples_s"] = {}
    rate, auc = {}, {}
    for model in [op.model for op in rounds[0]]:
        mine = [op for ops in rounds for op in ops if op.model == model]
        report["samples_s"][model] = [op.seconds for op in mine]
        rate[model] = _median([op.steps / op.seconds for op in mine])
        auc[model] = mine[0].auc
        for name, value, unit in (("steps_per_s", rate[model], "1/s"),
                                  ("s", _median([op.seconds for op in mine]), "s"),
                                  ("auc", auc[model], "ratio")):
            report["details"][f"{prefix}.{model}.{name}"] = {"value": value, "unit": unit}
    # every timed model weighs the same in the throughput, however long it
    # runs, and the AUC guard follows the model that lost most
    values = {"setup_s": _median(setup_times),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "steps_per_s": float(np.exp(np.mean(np.log(
                  [rate[m] for m in sz["timed"]])))),
              "auc_ratio": min(auc[m] / ref for m, ref in sz["auc_ref"].items())}
    return rounds, values


def _traced(make_state, run_round, sz, seconds, report, path):
    tracer = Tracer()
    per_round = []

    def traced_round():
        ops = run_round(state, tracer.untraced)
        per_round.append(tracer.take())
        return ops

    with tracer:
        instrument(tracer)
        setup_stats = []
        for _ in range(sz["setup_repeats"]):
            state = None
            gc.collect()
            state = make_state()
            setup_stats.append(tracer.take())
        rounds, walls = _run_rounds(traced_round, seconds)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(path, report["provenance"])

    # an untraced round, run warm like the last traced ones, is the reference
    # for the tracing slowdown
    gc.collect()
    start = time.perf_counter()
    rounds.append(run_round(state, nullcontext))
    reference = time.perf_counter() - start

    # peak allocations come from one more round, with tracemalloc running only
    # inside the spans it measures
    with Tracer(alloc_names=("harness.evaluate", "baselines.fit_logistic")) as mem:
        mem.wrap(harness, "evaluate", "harness.evaluate")
        mem.wrap(baselines, "fit_logistic", "baselines.fit_logistic")
        rounds.append(run_round(state, nullcontext))
    alloc = mem.take()

    layer_rounds = [round_layer_values(st) for st in per_round]
    values = {name: _median([r[name] for r in layer_rounds]) for name in layer_rounds[0]}
    values["datasets.generate_synthetic.s"] = _median(
        [total(st, "datasets.generate_synthetic") / 1e9 for st in setup_stats])
    for name in ("harness.evaluate", "baselines.fit_logistic"):
        st = alloc.get(name)
        values[name + ".peak_alloc_mb"] = st.peak_bytes / 2**20 if st else 0.0
    values["trace.slowdown"] = _median(walls) / reference
    report["rounds"] = len(walls)
    report["spans"] = tracer.span_count
    return rounds, values

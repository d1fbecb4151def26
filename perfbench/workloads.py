"""The three workloads, their timed phases, and the metrics they yield.

Every workload is one closed loop in one process: a single caller, each call
waiting for the previous one.  It sets its layers up, checks them against the
oracle, then runs up to three timed phases:

* ``train``: ``training.train`` one epoch per call (desk_train also runs
  ``tenbed train`` in-process); desk_train evaluates each layer with
  ``eval_similarity`` once its training slice is used up;
* ``ckpt``: ``checkpoint.save_layer`` and ``load_layer`` round-trips; the
  loaded layer replaces the one that was saved;
* ``lookup``: ``forward_batch`` on batches of 64 ids from a Zipf stream.

Each phase gives every layer an equal slice of the phase's share of
``--seconds`` and at least one call (three when tracing: a warm-up, then an
untraced and a traced call).  The calls of all phases and layers are
interleaved in proportion to their slices.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import tenbed.checkpoint as checkpoint
import tenbed.cli as cli
import tenbed.layers as layers
import tenbed.synthetic as synthetic
import tenbed.training as training
from tenbed.audit import load_reference_rows
from tenbed.layers import LayerConfig, MethodKind

import oracle
from speed import Speed
from tracing import TENSOR_OPS, Tracer

LOOKUP_BATCH = 64
ZIPF_EXPONENT = 1.0
CHECK_IDS = 8  # sampled ids per layer for the oracle and round-trip checks
GRADCHECK_WORDS = 2  # words per layer for the central-difference check

# share of --seconds spent in each timed phase
SHARES = {
    "desk_train": {"train": 0.70, "ckpt": 0.10, "lookup": 0.20},
    "paper_train": {"train": 0.75, "ckpt": 0.15, "lookup": 0.10},
    "paper_lookup": {"ckpt": 0.30, "lookup": 0.70},
}


@dataclass(frozen=True)
class Size:
    desk_words: int = 500
    desk_morphemes: int = 79
    desk_pairs: tuple[int, int] = (2500, 1000)
    cli_words: int = 200
    cli_morphemes: int = 40
    cli_epochs: int = 10
    paper_words: int = 41280
    paper_morphemes: int = 10817  # plus the pad: morphte's M=10818
    paper_pairs: int = 32  # one batch: one optimizer step per epoch
    setup_reps: int = 5


SIZES = {
    "full": Size(),
    # a few seconds end to end, for the benchmark's own tests
    "tiny": Size(desk_words=60, desk_morphemes=15, desk_pairs=(100, 40), cli_words=30,
                 cli_morphemes=8, cli_epochs=3, paper_words=300, paper_morphemes=60,
                 paper_pairs=8, setup_reps=2),
}


class ZipfStream:
    """Word ids whose rank is Zipf-distributed; rank-to-id is a permutation."""

    def __init__(self, vocab_size: int, seed: int):
        self.rng = np.random.default_rng(seed)
        self.rank_to_id = self.rng.permutation(vocab_size)
        cdf = np.cumsum(1.0 / np.arange(1, vocab_size + 1) ** ZIPF_EXPONENT)
        self.cdf = cdf / cdf[-1]

    def batch(self, size: int = LOOKUP_BATCH) -> np.ndarray:
        ranks = np.searchsorted(self.cdf, self.rng.random(size), side="right")
        return self.rank_to_id[np.minimum(ranks, len(self.cdf) - 1)]


@dataclass(eq=False)
class Job:
    """One layer the workload trains, checkpoints and serves."""

    name: str  # the method kind, or "cli" for the `tenbed train` job
    layer: layers.EmbeddingLayer | None
    train_call: object = None  # () -> (examples, per-epoch losses)
    stream: ZipfStream | None = None
    history: list[float] = field(default_factory=list)
    eval_accuracy: float | None = None


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    workdir: Path
    tracer: Tracer = field(default_factory=Tracer)
    speed: Speed = field(default_factory=Speed)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # (phase, job, traced) -> [(start, seconds, items)]; ckpt items are bytes,
    # and traced is None for a traced run's warm-up calls
    samples: dict = field(default_factory=lambda: defaultdict(list))
    setup_s: float = 0.0  # at the reference speed
    setup_reps_s: list[float] = field(default_factory=list)  # imports, then set-ups

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def record(self, phase: str, job: str, traced: bool, start: float, end: float,
               items: float) -> None:
        self.samples[(phase, job, traced)].append((start, end - start, items))


# --- set-up ------------------------------------------------------------------

CLI_CONFIG = """method=morphte
vocab_size={words}
embed_dim=64
order=3
rank=4
q=4
morphemes={morphemes}
task=reconstruct
epochs={epochs}
batch=32
lr=0.02
optimizer=adam
"""


def _desk_setup(run: Run) -> list[Job]:
    """The criterion 7 sharing job for morphte and word2ket_rshare, and the
    criterion 8 reconstruction config for `tenbed train`."""
    size, seed = run.size, run.seed
    vocab, index, morph_sets = synthetic.make_sharing_task(
        size.desk_words, size.desk_morphemes, 3, seed=seed)
    pairs_train, pairs_eval = synthetic.make_sharing_pairs(
        morph_sets, *size.desk_pairs, seed=seed + 1)
    task = training.TrainTask("word_similarity", pairs=pairs_train, loss="cosine_contrastive")
    shape = dict(order=3, rank=2, subdim=4, seed=seed + 2)
    jobs = [
        Job("morphte", layers.build(
            LayerConfig(MethodKind.MORPHTE, size.desk_words, 64, **shape),
            vocab=vocab, index=index)),
        Job("word2ket_rshare", layers.build(
            LayerConfig(MethodKind.WORD2KET_RSHARE, size.desk_words, 64,
                        morpheme_vocab_size=vocab.size, **shape))),
    ]
    for job in jobs:
        job.train_call = _library_epochs(job, task, pairs_eval, batch_size=50, lr=0.05,
                                         seed=seed + 3)
    config_path = run.workdir / "cli.cfg"
    config_path.write_text(CLI_CONFIG.format(
        words=size.cli_words, morphemes=size.cli_morphemes, epochs=size.cli_epochs))
    cli_job = Job("cli", None)
    cli_job.train_call = _cli_invocations(run, cli_job, config_path)
    return jobs + [cli_job]


def paper_configs(vocab_size: int, morpheme_vocab_size: int, seed: int) -> list[LayerConfig]:
    """The en_it rows of the bundled reference table at the base or 20x level,
    plus morphsum and word2ket_rshare at morphte's morpheme vocabulary."""
    configs = {
        row.config.kind: row.config
        for row in load_reference_rows()
        if row.group != "summary" and row.dataset == "en_it" and row.level in ("base", "20x")
    }
    morphte = configs[MethodKind.MORPHTE]
    configs[MethodKind.MORPHSUM] = LayerConfig(MethodKind.MORPHSUM, morphte.vocab_size,
                                               morphte.embed_dim, order=morphte.order)
    configs[MethodKind.WORD2KET_RSHARE] = replace(morphte, kind=MethodKind.WORD2KET_RSHARE)
    return [
        replace(configs[kind], vocab_size=vocab_size, seed=seed + i,
                morpheme_vocab_size=(morpheme_vocab_size
                                     if kind in layers.MORPHOLOGICAL_KINDS else None))
        for i, kind in enumerate(MethodKind)
    ]


def _paper_setup(run: Run) -> list[Job]:
    size, seed = run.size, run.seed
    vocab, index, morph_sets = synthetic.make_sharing_task(
        size.paper_words, size.paper_morphemes, 3, seed=seed)
    jobs = []
    for config in paper_configs(size.paper_words, vocab.size, seed + 2):
        shared = config.kind in (MethodKind.MORPHTE, MethodKind.MORPHSUM)
        jobs.append(Job(config.kind.value, layers.build(
            config, vocab=vocab if shared else None, index=index if shared else None)))
    if "train" in SHARES[run.workload]:
        pairs, _ = synthetic.make_sharing_pairs(morph_sets, size.paper_pairs, 0, seed=seed + 1)
        task = training.TrainTask("word_similarity", pairs=pairs, loss="cosine_contrastive")
        for job in jobs:
            job.train_call = _library_epochs(job, task, None, batch_size=32, lr=0.01,
                                             seed=seed + 3)
    return jobs


IMPORT_PROBE = ("import time; start = time.perf_counter(); import numpy, tenbed, tenbed.cli; "
                "print(time.perf_counter() - start)")


def _import_seconds(run: Run) -> list[tuple[float, float]]:
    """(start, seconds) of importing numpy and tenbed in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(Path(layers.__file__).parents[1]))
    out = []
    for _ in range(run.size.setup_reps):
        run.speed.sample()
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        out.append((start, float(probe.stdout)))
    return out


def set_up(run: Run) -> list[Job]:
    """Run the set-up ``setup_reps`` times and keep the last.  ``setup_s`` is
    the median import of numpy and tenbed in a fresh interpreter plus the
    median repetition, both at the reference speed."""
    make = _desk_setup if run.workload == "desk_train" else _paper_setup
    imports = _import_seconds(run)
    reps, jobs = [], None
    for _ in range(run.size.setup_reps):
        jobs = None  # one set of layers in memory at a time
        run.speed.sample()
        start = time.perf_counter()
        jobs = make(run)
        reps.append((start, time.perf_counter() - start))
    run.speed.sample()
    run.setup_reps_s = [seconds for _, seconds in imports + reps]
    run.setup_s = sum(statistics.median(run.speed.scaled(*rep) for rep in part)
                      for part in (imports, reps))
    return jobs


# --- training calls ----------------------------------------------------------

def _library_epochs(job: Job, task, pairs_eval, batch_size: int, lr: float, seed: int):
    opt = training.OptimizerState(kind="adam", lr=lr)

    def one_epoch():
        losses = training.train(job.layer, task, opt, epochs=1, batch_size=batch_size,
                                seed=seed + len(job.history))
        job.history.extend(losses)
        return len(task.pairs), losses

    one_epoch.pairs_eval = pairs_eval
    return one_epoch


def _read_history(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "epoch,loss":
        return []
    return [float(line.split(",")[1]) for line in lines[1:]]


def _cli_invocations(run: Run, job: Job, config_path: Path):
    out = run.workdir / "cli_out"
    args = ["train", "--config", str(config_path), "--out", str(out), "--seed", str(run.seed)]

    def one_invocation():
        stderr = io.StringIO()
        code = 0
        try:
            with contextlib.redirect_stderr(stderr):
                cli.main.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        history = _read_history(out / "history.csv") if code == 0 else []
        run.check(code == 0, f"tenbed train exited {code}: {stderr.getvalue().strip()}")
        run.check(len(history) == run.size.cli_epochs,
                  f"history.csv has {len(history)} rows, expected {run.size.cli_epochs}")
        # every invocation repeats the same seeded run, so histories repeat exactly
        run.check(not job.history or history == job.history,
                  "tenbed train is not deterministic per seed")
        run.check(len(history) > 1 and history[-1] < history[0],
                  f"tenbed train did not reduce the loss: {history[:1]} -> {history[-1:]}")
        job.history = history
        return run.size.cli_epochs * run.size.cli_words, history

    return one_invocation


# --- phases ------------------------------------------------------------------

def _run_phases(run: Run, jobs: list[Job]) -> None:
    """Interleave every phase's calls in proportion to their time slices.

    The next call always goes to the (phase, job) that has used the smallest
    share of its slice, so every layer's samples of every phase spread over
    the whole run and see the same machine conditions.
    """
    phases = {phase: unit for phase, unit in (
        ("train", _train_unit), ("ckpt", _ckpt_unit), ("lookup", _lookup_unit))
        if phase in SHARES[run.workload]}
    # a traced run starts each (phase, job) with an untraced warm-up call
    # that no metric uses, then alternates untraced and traced calls
    min_calls = 3 if run.trace else 1
    # (phase, job) -> [seconds used, calls made]
    state = {(phase, job): [0.0, 0] for phase in phases for job in jobs
             if phase != "train" or job.train_call is not None}
    slices = {phase: SHARES[run.workload][phase] * run.seconds
              / sum(1 for ph, _ in state if ph == phase) for phase in phases}
    while state:
        run.speed.maybe_sample()
        # the `tenbed train` job has no layer to save or serve until it ran once
        ready = [key for key in state if key[0] == "train" or key[1].layer is not None]
        phase, job = min(ready, key=lambda key: state[key][0] / slices[key[0]])
        used = state[(phase, job)]
        traced = run.trace and (None if used[1] == 0 else used[1] % 2 == 0)
        start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if traced:
                # spans inside take the job's name as their kind, so the
                # `tenbed train` job's morphte layer stays apart
                stack.enter_context(run.tracer.installed())
                stack.enter_context(run.tracer.span(
                    "cli.train" if job.name == "cli" else f"bench.{phase}", job.name,
                    sticky=True))
            phases[phase](run, job, traced)
        used[0] += time.perf_counter() - start
        used[1] += 1
        if used[1] >= min_calls and used[0] >= slices[phase]:
            del state[(phase, job)]
            if phase == "train":
                _train_finish(run, job)
    run.speed.sample()


def _train_unit(run: Run, job: Job, traced: bool) -> None:
    start = time.perf_counter()
    examples, losses = job.train_call()
    run.record("train", job.name, traced, start, time.perf_counter(), examples)
    if job.layer is None:  # the `tenbed train` job serves what it wrote
        job.layer = checkpoint.load_layer(run.workdir / "cli_out" / "checkpoint.bin")
    run.check(bool(losses) and all(math.isfinite(x) for x in losses),
              f"{job.name}: non-finite loss {losses}")


def _train_finish(run: Run, job: Job) -> None:
    pairs_eval = getattr(job.train_call, "pairs_eval", None)
    job.train_call = None  # drops the optimizer moments before the next layer trains
    if run.workload == "desk_train":
        run.check(len(job.history) > 1 and job.history[-1] < job.history[0],
                  f"{job.name}: loss did not fall: {job.history[:1]} -> {job.history[-1:]}")
    if pairs_eval:
        with run.tracer.installed(run.trace):
            job.eval_accuracy = training.eval_similarity(job.layer, pairs_eval)


def _ckpt_unit(run: Run, job: Job, traced: bool) -> None:
    path = run.workdir / f"{job.name}.ckpt"
    start = time.perf_counter()
    checkpoint.save_layer(job.layer, path)
    saved = time.perf_counter()
    loaded = checkpoint.load_layer(path)
    done = time.perf_counter()
    size = path.stat().st_size
    path.unlink()
    run.record("save", job.name, traced, start, saved, size)
    run.record("load", job.name, traced, saved, done, size)
    ids = np.random.default_rng([run.seed, run.attempted]).integers(
        0, job.layer.config.vocab_size, CHECK_IDS)
    run.check(oracle.roundtrip_matches(job.layer, loaded, ids),
              f"{job.name}: checkpoint round-trip is not bit-exact")
    job.layer = loaded


def _lookup_unit(run: Run, job: Job, traced: bool) -> None:
    if job.stream is None:
        job.stream = ZipfStream(job.layer.config.vocab_size, seed=run.seed * 1000 + 11)
    ids = job.stream.batch()
    start = time.perf_counter()
    out = layers.forward_batch(job.layer, ids)
    run.record("lookup", job.name, traced, start, time.perf_counter(), len(ids))
    pos = int(np.random.default_rng([run.seed, run.attempted]).integers(len(ids)))
    run.check(len(out) == len(ids) and oracle.forward_matches(job.layer, int(ids[pos]), out[pos]),
              f"{job.name}: forward_batch output for id {int(ids[pos])} differs from the oracle")


def check_layers(run: Run, jobs: list[Job]) -> None:
    """Oracle forward on sampled ids and a gradient check on a few words."""
    rng = np.random.default_rng([run.seed, 7])
    for job in jobs:
        if job.layer is None:
            continue
        vocab_size = job.layer.config.vocab_size
        for w in rng.integers(0, vocab_size, CHECK_IDS):
            run.check(oracle.forward_matches(job.layer, int(w), layers.forward(job.layer, int(w))),
                      f"{job.name}: forward({int(w)}) differs from the oracle")
        for w in rng.integers(0, vocab_size, GRADCHECK_WORDS):
            run.check(oracle.gradient_matches(job.layer, int(w), rng),
                      f"{job.name}: backward({int(w)}) fails the central-difference check")


def execute(run: Run) -> list[Job]:
    """Set up, check, and run every timed phase of the workload."""
    with run.tracer.installed(run.trace):
        jobs = set_up(run)
        check_layers(run, jobs)
    _run_phases(run, jobs)
    return jobs


# --- metrics -----------------------------------------------------------------

def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def primary_phase(workload: str) -> str:
    return "train" if "train" in SHARES[workload] else "lookup"


def per_job(run: Run, phase: str, traced: bool = False, stat: str = "rate",
            scaled: bool = True) -> dict[str, list[float] | float]:
    """Per job, from its calls' seconds at the reference speed (as measured
    with ``scaled=False``): ``rate`` is items per second over all calls,
    ``ms`` the list of call times in ms, ``median_rate`` the median call's
    items per second."""
    out = {}
    for (ph, job, tr), samples in run.samples.items():
        if ph != phase or tr != traced:
            continue
        calls = [(run.speed.scaled(start, sec) if scaled else sec, items)
                 for start, sec, items in samples]
        if stat == "rate":
            out[job] = sum(items for _, items in calls) / sum(sec for sec, _ in calls)
        elif stat == "ms":
            out[job] = sorted(1e3 * sec for sec, _ in calls)
        else:
            out[job] = statistics.median(items / sec for sec, items in calls)
    return out


def end_to_end(run: Run) -> dict[str, float]:
    lookup_ms = per_job(run, "lookup", stat="ms")
    return {
        "setup_s": run.setup_s,
        "items_per_s": geomean(per_job(run, primary_phase(run.workload)).values()),
        "lookup_batch_ms_p50": geomean(statistics.median(ms) for ms in lookup_ms.values()),
        "ckpt_save_mb_per_s": geomean(
            v / 1e6 for v in per_job(run, "save", stat="median_rate").values()),
        "ckpt_load_mb_per_s": geomean(
            v / 1e6 for v in per_job(run, "load", stat="median_rate").values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end_detail(run: Run) -> dict:
    """Per-layer values behind the end-to-end metrics, and the machine speed."""
    phase = primary_phase(run.workload)
    percentiles = {}
    for job, ms in per_job(run, "lookup", stat="ms").items():
        row = {"samples": len(ms), "p50": statistics.median(ms)}
        # the highest percentile with at least ten samples beyond it
        for p in (99, 95, 90):
            if len(ms) * (100 - p) / 100 >= 10:
                row[f"p{p}"] = float(np.percentile(ms, p))
                break
        percentiles[job] = row
    slowdowns = run.speed.slowdowns
    return {
        "items_per_s": per_job(run, phase),
        "items_per_s_as_measured": per_job(run, phase, scaled=False),
        "lookup_batch_ms": percentiles,
        "ckpt_save_mb_per_s": {
            j: v / 1e6 for j, v in per_job(run, "save", stat="median_rate").items()},
        "ckpt_load_mb_per_s": {
            j: v / 1e6 for j, v in per_job(run, "load", stat="median_rate").items()},
        "slowdown": {"samples": len(slowdowns), "median": statistics.median(slowdowns),
                     "min": min(slowdowns), "max": max(slowdowns)},
    }


def per_layer(run: Run) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """The traced run's per-module metrics: the cross-kind aggregates every
    workload has, and the full per-kind table."""
    t = run.tracer
    detail: dict[str, dict[str, float]] = defaultdict(dict)
    kinds = t.kinds("layers.forward")
    tensor_calls = tensor_s = words = 0.0
    for k in kinds:
        n = t.calls("layers.forward", k)
        words += n
        detail["layers.forward_us"][k] = 1e6 * t.seconds("layers.forward", k) / n
        detail["layers.forward_self_us"][k] = 1e6 * t.seconds("layers.forward", k, True) / n
        calls = sum(t.calls(op, k) for op in TENSOR_OPS)
        tensor_calls += calls
        tensor_s += sum(t.seconds(op, k) for op in TENSOR_OPS)
        detail["tensor_ops.calls_per_word"][k] = calls / n
        detail["tensor_ops.self_us_per_word"][k] = 1e6 * sum(
            t.seconds(op, k, True) for op in TENSOR_OPS) / n
    for k in t.kinds("layers.build"):
        detail["layers.build_ms"][k] = (
            1e3 * t.seconds("layers.build", k) / t.calls("layers.build", k))
    for k in t.kinds("gradients.backward"):
        n = t.calls("gradients.backward", k)
        detail["gradients.backward_us"][k] = 1e6 * t.seconds("gradients.backward", k) / n
        detail["gradients.grad_bytes_per_word"][k] = t.counts[("grad_bytes", k)] / n
        detail["gradients.useful_grad_ratio"][k] = (
            t.counts[("grad_touched_bytes", k)] / t.counts[("grad_bytes", k)])
    for k in t.kinds("training.train"):
        train_s = t.seconds("training.train", k)
        examples = t.counts[("train_examples", k)]
        detail["training.examples_per_s"][k] = examples / train_s
        apply_n = t.calls("training.OptimizerState.apply", k)
        detail["training.opt_step_ms"][k] = (
            1e3 * t.seconds("training.OptimizerState.apply", k) / apply_n)
        detail["training.self_ms_per_example"][k] = (
            1e3 * t.seconds("training.train", k, True) / examples)
    for k in t.kinds("training.eval_similarity"):
        detail["training.eval_pairs_per_s"][k] = (
            t.counts[("eval_pairs", k)] / t.seconds("training.eval_similarity", k))
    for op, metric in (("checkpoint.save_layer", "checkpoint.save_mb_per_s"),
                       ("checkpoint.load_layer", "checkpoint.load_mb_per_s")):
        for k in t.kinds(op):
            detail[metric][k] = t.counts[(op + ".bytes", k)] / 1e6 / t.seconds(op, k)
    for op in ("synthetic.make_sharing_task", "synthetic.make_sharing_pairs",
               "synthetic.make_morphology", "morphology.build_vocab_and_index"):
        if t.kinds(op):
            detail[op + "_s"]["all"] = (sum(t.seconds(op, k) for k in t.kinds(op))
                                        / sum(t.calls(op, k) for k in t.kinds(op)))
    for k in t.kinds("cli.train"):
        n = t.calls("cli.train", k)
        detail["cli.train_s"][k] = t.seconds("cli.train", k) / n
        detail["cli.self_s"][k] = t.seconds("cli.train", k, True) / n

    train_spans = [s for s in t.spans if s[0] == "training.train"]
    if train_spans:
        total = sum(s[2] for s in train_spans)
        for share, child in (("fwd", "layers.forward"), ("bwd", "gradients.backward"),
                             ("opt", "training.OptimizerState.apply")):
            detail[f"trace.{share}_share"]["all"] = (
                sum(s[4].get(child, 0) for s in train_spans) / total)
        detail["trace.self_share"]["all"] = sum(s[2] - s[3] for s in train_spans) / total
    for name, kind, duration, child, by_child in t.spans:
        run.check(child == sum(by_child.values()) and 0 <= duration - child,
                  f"{name} span: children {child} ns do not fit in {duration} ns")

    phase = primary_phase(run.workload)
    traced, untraced = per_job(run, phase, traced=True), per_job(run, phase)
    detail["trace.overhead_ratio"] = {j: untraced[j] / traced[j] for j in traced}

    summary = {
        "layers.forward_us": geomean(detail["layers.forward_us"].values()),
        "layers.forward_self_us": geomean(detail["layers.forward_self_us"].values()),
        "layers.build_ms": geomean(detail["layers.build_ms"].values()),
        "tensor_ops.calls_per_word": tensor_calls / words,
        "tensor_ops.us_per_word": 1e6 * tensor_s / words,
        "gradients.backward_us": geomean(detail["gradients.backward_us"].values()),
        "gradients.useful_grad_ratio": geomean(detail["gradients.useful_grad_ratio"].values()),
        "checkpoint.save_mb_per_s": geomean(detail["checkpoint.save_mb_per_s"].values()),
        "checkpoint.load_mb_per_s": geomean(detail["checkpoint.load_mb_per_s"].values()),
        "synthetic.make_sharing_task_s": detail["synthetic.make_sharing_task_s"]["all"],
        "morphology.build_vocab_and_index_s": detail["morphology.build_vocab_and_index_s"]["all"],
        "trace.overhead_ratio": geomean(detail["trace.overhead_ratio"].values()),
    }
    return summary, dict(detail)

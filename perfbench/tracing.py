"""Spans around the calls into tenbed's modules, recorded from outside.

Nothing under ``src/`` knows about tracing: while a ``Tracer`` is installed it
replaces the module attributes through which tenbed's modules call each other
(``tenbed.training.backward``, ``tenbed.layers.entangled_sum``, ...) with
timing wrappers, and puts the originals back when it is removed.

Every call made while installed is a span.  Spans nest through a stack; a
span's kind is taken from its layer or config argument, or inherited from the
enclosing span.  Per (span name, kind) the tracer keeps the call count, the
total duration and the part of it covered by direct children, so self time is
``total - child``.  The spans of ``training.train`` and of a ``cli.train``
invocation are also kept whole, with their children's durations by name.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import tenbed.checkpoint
import tenbed.cli
import tenbed.gradients
import tenbed.layers
import tenbed.morphology
import tenbed.synthetic
import tenbed.training

TENSOR_OPS = ("tensor_ops.entangled_sum", "tensor_ops.tensor_product", "tensor_ops.truncate_to")
KEPT_SPANS = ("training.train", "cli.train")

# (module, attribute, span name): every reference through which one tenbed
# module calls a measured public function of another, or the benchmark does.
_TARGETS = [
    (tenbed.layers, "build", "layers.build"),
    (tenbed.cli, "build", "layers.build"),
    (tenbed.layers, "forward", "layers.forward"),
    (tenbed.training, "forward", "layers.forward"),
    (tenbed.cli, "forward", "layers.forward"),
    (tenbed.layers, "forward_batch", "layers.forward_batch"),
    (tenbed.layers, "entangled_sum", "tensor_ops.entangled_sum"),
    (tenbed.layers, "tensor_product", "tensor_ops.tensor_product"),
    (tenbed.layers, "truncate_to", "tensor_ops.truncate_to"),
    (tenbed.gradients, "backward", "gradients.backward"),
    (tenbed.training, "backward", "gradients.backward"),
    (tenbed.training, "train", "training.train"),
    (tenbed.training.OptimizerState, "apply", "training.OptimizerState.apply"),
    (tenbed.training, "eval_similarity", "training.eval_similarity"),
    (tenbed.checkpoint, "save_layer", "checkpoint.save_layer"),
    (tenbed.checkpoint, "load_layer", "checkpoint.load_layer"),
    (tenbed.morphology, "build_vocab_and_index", "morphology.build_vocab_and_index"),
    (tenbed.synthetic, "build_vocab_and_index", "morphology.build_vocab_and_index"),
    (tenbed.synthetic, "make_morphology", "synthetic.make_morphology"),
    (tenbed.synthetic, "make_sharing_task", "synthetic.make_sharing_task"),
    (tenbed.synthetic, "make_sharing_pairs", "synthetic.make_sharing_pairs"),
]


def _kind_of(args) -> str | None:
    if not args:
        return None
    first = args[0]
    config = getattr(first, "config", first)
    kind = getattr(config, "kind", None)
    return getattr(kind, "value", None)


def _train_examples(args, kwargs) -> int:
    layer, task = args[0], args[1]
    epochs = kwargs.get("epochs", args[3] if len(args) > 3 else 1)
    per_epoch = layer.config.vocab_size if task.kind == "reconstruct_table" else len(task.pairs)
    return int(epochs) * per_epoch


def _grad_bytes(args, result) -> tuple[int, int]:
    """Bytes returned by one backward call, and the bytes in rows it touches."""
    layer, word_id = args[0], args[1]
    returned = sum(slot.grad.nbytes for slot in result)
    touched = sum(
        len(rows) * layer.params[name].shape[1] * layer.params[name].itemsize
        for name, rows in tenbed.gradients.touched_rows(layer, int(word_id)).items()
    )
    return returned, touched


class Tracer:
    def __init__(self):
        # (name, kind) -> [calls, total_ns, child_ns]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        # (counter, kind) -> value: words, examples, bytes
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # kept spans: (name, kind, duration_ns, child_ns, {child name: ns})
        self.spans: list[tuple[str, str, int, int, dict[str, int]]] = []
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self, enabled: bool = True):
        """Trace every call into tenbed made inside the block."""
        if not enabled:
            yield
            return
        self._saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _TARGETS]
        for owner, attr, name in _TARGETS:
            setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
        try:
            yield
        finally:
            for owner, attr, original in self._saved:
                setattr(owner, attr, original)
            self._saved = []

    @contextmanager
    def span(self, name: str, kind: str, sticky: bool = False):
        """A span opened by the benchmark itself, e.g. a whole CLI invocation.

        A sticky span's kind is also the kind of every span inside it, so a
        job's calls stay apart from another job's layer of the same kind.
        """
        frame = self._enter(name, kind, sticky)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name: str, kind: str | None, sticky: bool = False) -> list:
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[5]:
            kind, sticky = parent[1], True
        elif kind is None:
            kind = parent[1] if parent is not None else "-"
        frame = [name, kind, 0, defaultdict(int), time.perf_counter_ns(), sticky]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> int:
        duration = time.perf_counter_ns() - frame[4]
        self._stack.pop()
        name, kind, child_ns, by_child = frame[0], frame[1], frame[2], frame[3]
        stat = self.stats[(name, kind)]
        stat[0] += 1
        stat[1] += duration
        stat[2] += child_ns
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3][name] += duration
        if name in KEPT_SPANS:
            self.spans.append((name, kind, duration, child_ns, dict(by_child)))
        return duration

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name, _kind_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            tracer._count(name, frame[1], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, kind, args, kwargs, result) -> None:
        counts = self.counts
        if name == "layers.forward_batch":
            counts[("batch_words", kind)] += len(args[1])
        elif name == "gradients.backward":
            returned, touched = _grad_bytes(args, result)
            counts[("grad_bytes", kind)] += returned
            counts[("grad_touched_bytes", kind)] += touched
        elif name == "training.train":
            counts[("train_examples", kind)] += _train_examples(args, kwargs)
        elif name == "training.eval_similarity":
            counts[("eval_pairs", kind)] += len(args[1])
        elif name in ("checkpoint.save_layer", "checkpoint.load_layer"):
            counts[(name + ".bytes", kind)] += os.path.getsize(args[-1])

    # --- reading the record ------------------------------------------------

    def calls(self, name: str, kind: str) -> int:
        return self.stats[(name, kind)][0] if (name, kind) in self.stats else 0

    def seconds(self, name: str, kind: str, self_only: bool = False) -> float:
        if (name, kind) not in self.stats:
            return 0.0
        calls, total, child = self.stats[(name, kind)]
        return (total - child if self_only else total) / 1e9

    def kinds(self, name: str) -> list[str]:
        return sorted({k for n, k in self.stats if n == name})

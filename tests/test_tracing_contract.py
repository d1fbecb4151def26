"""The names ``perfbench/tracing.py`` wraps stay bound where it looks for them.

The benchmark's tracer replaces module attributes by name, some of them
imported into a module only for it (``layers.entangled_sum``,
``training.forward``, ``cli.forward`` ...).  Removing or renaming one breaks
the benchmark, so these tests fail first.  They load the tracer from its file
and change nothing under ``perfbench/``.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

import tenbed.gradients
import tenbed.layers
import tenbed.training
from tenbed.layers import LayerConfig, MethodKind, build

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_the_tracer_looks():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in _tracing()._TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_tracer_records_a_forward_batch_and_a_backward_span():
    tracing = _tracing()
    layer = build(LayerConfig(MethodKind.WORD2KET, 6, 5, order=2, rank=2, subdim=3, seed=1))
    tracer = tracing.Tracer()
    with tracer.installed():
        tenbed.layers.forward_batch(layer, [0, 3, 3])
        tenbed.gradients.backward(layer, 4, np.ones(5))
    assert tracer.calls("layers.forward_batch", "word2ket") == 1
    assert tracer.counts[("batch_words", "word2ket")] == 3
    assert tracer.calls("gradients.backward", "word2ket") == 1
    assert tracer.counts[("grad_bytes", "word2ket")] == layer.params["word_factors"].nbytes
    assert not hasattr(tenbed.layers.forward_batch, "__wrapped__")


def test_tracer_records_each_optimizer_step_inside_a_train_span():
    """The benchmark's ``training.opt_step_ms`` is the ``OptimizerState.apply``
    spans of a train call, one per batch."""
    tracing = _tracing()
    layer = build(LayerConfig(MethodKind.ORIGINAL, 10, 4, seed=1))
    task = tenbed.training.TrainTask("word_similarity", pairs=[(0, 1, 1), (2, 3, 0), (4, 5, 1)])
    tracer = tracing.Tracer()
    with tracer.installed():
        apply = tenbed.training.OptimizerState.apply
        assert list(inspect.signature(apply).parameters) == ["self", "params", "grads", "scale"]
        tenbed.training.train(layer, task, tenbed.training.OptimizerState(), epochs=1,
                              batch_size=2)
    assert tracer.calls("training.train", "original") == 1
    assert tracer.calls("training.OptimizerState.apply", "original") == 2
    [(name, kind, duration, child_ns, by_child)] = tracer.spans
    assert (name, kind) == ("training.train", "original")
    assert "training.OptimizerState.apply" in by_child
    assert sum(by_child.values()) == child_ns <= duration

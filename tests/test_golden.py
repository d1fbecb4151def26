"""Golden outputs: sha256 of what the CLI and the trainer produce, per kind.

``golden.json`` holds the hashes recorded by ``regen`` and the numpy, BLAS and
Python versions they were recorded with.  Any refactor or speed-up must leave
every hash unchanged; a change that alters numerics on purpose regenerates
the file and gives the numeric reason in CHANGES.md.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py regen``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from conftest import ALL_KINDS, random_layer, stable_seed
from tenbed.cli import main
from tenbed.gradients import backward, touched_rows
from tenbed.layers import LayerConfig, MethodKind, build, forward, forward_batch
from tenbed.training import OptimizerState, TrainTask, train

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# the golden morphte reconstruct run, unchanged since the first refactor
GOLDEN_TRAIN_CONFIG = (
    "method=morphte\ntask=reconstruct\nvocab_size=200\nembed_dim=64\norder=3\nq=4\n"
    "rank=4\nmorphemes=40\nepochs=10\nbatch=32\nlr=0.02\noptimizer=adam\nseed=3\n"
)
# one small export per kind, so every block layout goes through the writer
EXPORT_CONFIGS = {
    "original": "vocab_size=30\nembed_dim=8\n",
    "matrix_factor": "vocab_size=30\nembed_dim=8\nrank=3\n",
    "tensor_train": "vocab_size=30\nembed_dim=8\norder=3\nrank=2\n"
                    "vocab_factors=2,4,4\ndim_factors=2,2,2\n",
    "word2ket": "vocab_size=30\nembed_dim=8\norder=3\nrank=2\nq=2\n",
    "word2ketxs": "vocab_size=30\nembed_dim=8\norder=3\nrank=2\n"
                  "vocab_factors=2,4,4\ndim_factors=2,2,2\n",
    "morphte": "vocab_size=30\nembed_dim=8\norder=3\nrank=2\nq=2\nmorphemes=12\n",
    "morphsum": "vocab_size=30\nembed_dim=8\norder=3\nmorphemes=12\n",
    "word2ket_rshare": "vocab_size=30\nembed_dim=8\norder=3\nrank=2\nq=2\nmorphemes=12\n",
}
LAYERS_PER_KIND = 5
OPTIMIZERS = (("sgd", 0.05), ("adam", 0.01))
# one layer per factored kind with a length-1 dim factor, which reshapes a
# product axis to length 1
UNIT_DIM_FACTOR_CONFIGS = {
    MethodKind.TENSOR_TRAIN: LayerConfig(
        MethodKind.TENSOR_TRAIN, 20, 6, order=3, rank=2, vocab_factors=(2, 3, 4),
        dim_factors=(1, 2, 3), seed=7),
    MethodKind.WORD2KETXS: LayerConfig(
        MethodKind.WORD2KETXS, 20, 6, order=3, rank=2, vocab_factors=(3, 2, 4),
        dim_factors=(2, 1, 3), seed=7),
}
# 2-epoch cosine-pair trains through the CLI, one per kind listed
SIMILARITY_CONFIG = (
    "task=similarity\nvocab_size=40\nembed_dim=16\norder=3\nrank=2\nmorphemes=12\n"
    "pairs_train=60\npairs_eval=20\nepochs=2\nbatch=8\nlr=0.05\noptimizer=adam\nseed=4\n"
)
SIMILARITY_LAYERS = {
    "morphte": "q=3\n",
    "morphsum": "",
    "word2ket_rshare": "q=3\n",
    "tensor_train": "vocab_factors=2,4,5\ndim_factors=2,2,4\n",
}


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(args: list[str]):
    res = CliRunner().invoke(main, args, env={"TENBED_SEED": None})
    assert res.exit_code == 0, (args, res.output, res.exception)
    return res


def _train_hash(kind) -> str:
    """One hash over SGD and Adam reconstruction trains of seeded random layers."""
    h = hashlib.sha256()
    rng = np.random.default_rng(stable_seed("golden", kind.value))
    for _ in range(LAYERS_PER_KIND):
        layer = random_layer(kind, rng)
        start = {name: p.copy() for name, p in layer.params.items()}
        targets = rng.standard_normal((layer.config.vocab_size, layer.config.embed_dim))
        task = TrainTask("reconstruct_table", targets=targets)
        for opt_kind, lr in OPTIMIZERS:
            for name, p in start.items():
                layer.params[name][...] = p
            history = train(
                layer, task, OptimizerState(kind=opt_kind, lr=lr), epochs=2, batch_size=4, seed=1
            )
            h.update(np.array(history).tobytes())
            for name, p in layer.params.items():
                h.update(name.encode())
                h.update(p.tobytes())
    return h.hexdigest()


def _layer_hash(kind) -> str:
    """One hash over what seeded layers of a kind compute, word by word.

    Per layer: the forward of every word, ``forward_batch`` on a batch that
    repeats words, the dense ``backward`` slots of every word, ``backward``
    into one buffer over that batch, and ``touched_rows`` of every word.
    """
    h = hashlib.sha256()
    rng = np.random.default_rng(stable_seed("golden-layers", kind.value))
    layers = [random_layer(kind, rng) for _ in range(LAYERS_PER_KIND)]
    if kind in UNIT_DIM_FACTOR_CONFIGS:
        layers.append(build(UNIT_DIM_FACTOR_CONFIGS[kind]))
    for layer in layers:
        V, d = layer.config.vocab_size, layer.config.embed_dim
        batch = [int(w) for w in rng.integers(0, V, 2 * V)]  # 2V draws of V ids repeat
        for w in range(V):
            h.update(forward(layer, w).tobytes())
        h.update(np.asarray(forward_batch(layer, batch)).tobytes())
        for w in range(V):
            for slot in backward(layer, w, rng.standard_normal(d)):
                h.update(slot.param_name.encode())
                h.update(slot.grad.tobytes())
        grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
        for w in batch:
            backward(layer, w, rng.standard_normal(d), into=grads)
        for name, g in grads.items():
            h.update(name.encode())
            h.update(g.tobytes())
        h.update(json.dumps([touched_rows(layer, w) for w in range(V)]).encode())
    return h.hexdigest()


def golden_hashes(tmp_dir: Path) -> dict[str, str]:
    hashes = {}
    for kind in ALL_KINDS:
        res = _invoke(["gradcheck", "--method", kind.value, "--trials", "3", "--seed", "1"])
        hashes[f"gradcheck/{kind.value}"] = _sha256(res.stdout.encode())
    config = tmp_dir / "golden.cfg"
    config.write_text(GOLDEN_TRAIN_CONFIG, encoding="utf-8")
    run = tmp_dir / "run"
    _invoke(["train", "--config", str(config), "--out", str(run)])
    for name in ("history.csv", "checkpoint.bin"):
        hashes[f"train_morphte/{name}"] = _sha256((run / name).read_bytes())
    res = _invoke(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--all"])
    hashes["train_morphte/eval_all"] = _sha256(res.stdout.encode())
    hashes["audit/paper_tables"] = _sha256(_invoke(["audit", "--paper-tables"]).stdout.encode())
    for kind in ALL_KINDS:
        config.write_text(f"method={kind.value}\n{EXPORT_CONFIGS[kind.value]}seed=5\n")
        out = tmp_dir / f"export_{kind.value}.bin"
        _invoke(["export", "--config", str(config), "--out", str(out)])
        hashes[f"export/{kind.value}"] = _sha256(out.read_bytes())
    for kind in ALL_KINDS:
        hashes[f"train_random_layers/{kind.value}"] = _train_hash(kind)
        hashes[f"layers/{kind.value}"] = _layer_hash(kind)
    for kind, layer_keys in SIMILARITY_LAYERS.items():
        config.write_text(f"method={kind}\n{SIMILARITY_CONFIG}{layer_keys}", encoding="utf-8")
        run = tmp_dir / f"similarity_{kind}"
        res = _invoke(["train", "--config", str(config), "--out", str(run)])
        for name in ("history.csv", "checkpoint.bin"):
            hashes[f"train_similarity_{kind}/{name}"] = _sha256((run / name).read_bytes())
        hashes[f"train_similarity_{kind}/summary"] = _sha256(res.stderr.encode())
    return hashes


def test_golden_outputs_unchanged(tmp_path):
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    observed = golden_hashes(tmp_path)
    changed = sorted(
        name for name in recorded["hashes"].keys() | observed.keys()
        if recorded["hashes"].get(name) != observed.get(name)
    )
    if changed:
        env, now = recorded["environment"], environment()
        differs = [f"{k}: recorded {env.get(k)}, here {now[k]}" for k in now if env.get(k) != now[k]]
        raise AssertionError(
            f"golden outputs changed: {', '.join(changed)}; environment "
            + ("differences: " + "; ".join(differs) if differs else "matches the recording")
        )


def regen() -> None:
    """Rewrite golden.json from the code as it is now."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_hashes(Path(tmp))
    record = {"environment": environment(), "hashes": hashes}
    GOLDEN_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes -> {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit("usage: python tests/test_golden.py regen")
    regen()

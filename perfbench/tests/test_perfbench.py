"""Tests of the benchmark itself: its output format and its checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tenbed import layers, synthetic  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny_paper_layers():
    size = workloads.SIZES["tiny"]
    vocab, index, _ = synthetic.make_sharing_task(size.paper_words, size.paper_morphemes, 3, 0)
    out = []
    for config in workloads.paper_configs(size.paper_words, vocab.size, seed=5):
        shared = config.kind.value in ("morphte", "morphsum")
        out.append(layers.build(config, vocab=vocab if shared else None,
                                index=index if shared else None))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"]), m["name"]
        if m in SPEC["end_to_end"]:
            assert got["value"] > 0, m["name"]


def test_run_without_the_package_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((REPO / "BENCHMARK.json").read_text())
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_perturbing_one_block_fails_the_oracle_check():
    run = workloads.Run(workload="paper_lookup", seed=0, seconds=1, trace=False,
                        size=workloads.SIZES["tiny"], workdir=REPO)
    word, perturbed = 17, 0
    for layer in _tiny_paper_layers():
        got = layers.forward_batch(layer, [word])[0]
        run.check(oracle.forward_matches(layer, word, got), layer.config.kind.value)
        assert run.failed == perturbed, run.failures
        for name, rows in oracle.rows_read(layer, word).items():
            saved = layer.params[name][rows].copy()
            layer.params[name][rows] += 1e-9
            run.check(oracle.forward_matches(layer, word, got), name)
            layer.params[name][rows] = saved
            perturbed += 1
            assert run.failed == perturbed, f"{layer.config.kind.value} {name}"
    assert run.failed / run.attempted == perturbed / (perturbed + 8)


def test_gradient_check_passes_and_restores_parameters():
    rng = np.random.default_rng(0)
    for layer in _tiny_paper_layers():
        before = {name: block.copy() for name, block in layer.params.items()}
        assert oracle.gradient_matches(layer, 42, rng), layer.config.kind.value
        for name, block in layer.params.items():
            assert block.tobytes() == before[name].tobytes()


def test_roundtrip_check_sees_one_changed_bit():
    layer = _tiny_paper_layers()[0]
    copy = layers.EmbeddingLayer(layer.config, {n: b.copy() for n, b in layer.params.items()})
    assert oracle.roundtrip_matches(layer, copy, [0, 1])
    copy.params["weight"].view(np.int64)[3, 5] ^= 1
    assert not oracle.roundtrip_matches(layer, copy, [0, 1])

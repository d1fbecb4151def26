import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import tenbed
from tenbed.cli import main
from tenbed.checkpoint import load_layer, save_layer
from tenbed.layers import LayerConfig, build, build_rshare_index, forward
from tenbed.synthetic import make_sharing_task


@pytest.fixture
def runner():
    return CliRunner()


SEG_TEXT = (
    "unkindly\tun kind ly\n"
    "unkindness\tun kind ness\n"
    "unfeelingly\tun feel ing ly\n"
    "cook\tcook\n"
    "cooking\tcook ing\n"
)


def write_segs(tmp_path, text=SEG_TEXT):
    p = tmp_path / "segs.tsv"
    p.write_text(text, encoding="utf-8")
    return p


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_build_vocab_outputs(runner, tmp_path):
    seg = write_segs(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["build-vocab", str(seg), "-n", "3", "-o", str(out)])
    assert res.exit_code == 0, res.output + str(res.exception)
    vocab_lines = (out / "morphemes.tsv").read_text(encoding="utf-8").splitlines()
    # un kind ly ness feel ingly cook ing + pad
    assert len(vocab_lines) == 9
    assert vocab_lines[-1].startswith("<pad>\t")
    index_lines = (out / "index.tsv").read_text(encoding="utf-8").splitlines()
    assert len(index_lines) == 5
    assert index_lines[0].split("\t")[0] == "unkindly"
    stats = (out / "stats.tsv").read_text(encoding="utf-8").splitlines()
    assert stats[0].startswith("segmentation\t")
    assert (out / "manifest.json").exists()


def test_build_vocab_reruns_byte_identical(runner, tmp_path):
    seg = write_segs(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert runner.invoke(main, ["build-vocab", str(seg), "-n", "3", "-o", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["build-vocab", str(seg), "-n", "3", "-o", str(out2)]).exit_code == 0
    assert read_all(out1) == read_all(out2)


def test_build_vocab_order_one(runner, tmp_path):
    seg = write_segs(tmp_path)
    out = tmp_path / "out"
    res = runner.invoke(main, ["build-vocab", str(seg), "-n", "1", "-o", str(out)])
    assert res.exit_code == 0
    for line in (out / "index.tsv").read_text(encoding="utf-8").splitlines():
        ids = line.split("\t")[1].split()
        assert len(ids) == 1


def test_build_vocab_parse_error_exit_2(runner, tmp_path):
    seg = tmp_path / "bad.tsv"
    seg.write_text("word-without-tab\n", encoding="utf-8")
    res = runner.invoke(main, ["build-vocab", str(seg), "-o", str(tmp_path / "o")])
    assert res.exit_code == 2


def test_build_vocab_missing_file_exit_3(runner, tmp_path):
    res = runner.invoke(main, ["build-vocab", str(tmp_path / "nope.tsv"), "-o", str(tmp_path / "o")])
    assert res.exit_code == 3


def test_build_vocab_random_seg(runner, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("incomprehensible\nabcd\ncat\n", encoding="utf-8")
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["build-vocab", str(words), "-n", "3", "-o", str(out), "--use-random-seg", "--seed", "1"],
    )
    assert res.exit_code == 0
    lines = (out / "index.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_build_vocab_refuses_a_random_piece_spelled_like_the_pad(runner, tmp_path):
    words = tmp_path / "words.txt"
    words.write_text("ab<pad>cd\nhello\n", encoding="utf-8")
    out = tmp_path / "out"
    res = runner.invoke(
        main, ["build-vocab", str(words), "-o", str(out), "--use-random-seg", "--seed", "6"]
    )
    assert res.exit_code == 2
    assert "word 'ab<pad>cd'" in res.stderr
    assert not (out / "index.tsv").exists()


def test_audit_paper_tables(runner):
    res = runner.invoke(main, ["audit", "--paper-tables"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 71  # header + 70 rows
    statuses = {line.split("\t")[10] for line in lines[1:]}
    assert statuses == {"ok", "corrected"}
    assert "0 mismatches" in res.stderr


def test_audit_explicit_original_ratio_one(runner):
    res = runner.invoke(
        main, ["audit", "--method", "original", "--vocab-size", "100", "--embed-dim", "64"]
    )
    assert res.exit_code == 0
    row = res.output.splitlines()[1].split("\t")
    assert row[0] == "original"
    assert row[2] == "6400" and row[4] == "6400"
    assert float(row[5]) == 1.0


def test_audit_morphte_table_configuration(runner):
    res = runner.invoke(
        main,
        [
            "audit", "--method", "morphte", "--vocab-size", "41280", "--embed-dim", "512",
            "--order", "3", "--rank", "10", "--q", "8", "--morpheme-vocab-size", "10818",
        ],
    )
    assert res.exit_code == 0
    row = res.output.splitlines()[1].split("\t")
    assert int(row[4]) == 989_280  # ~0.99M


def test_audit_requires_method_or_flag(runner):
    res = runner.invoke(main, ["audit"])
    assert res.exit_code == 2


def test_gradcheck_ok_all_kinds(runner):
    for method in ["original", "matrix_factor", "word2ket", "morphte", "morphsum",
                   "word2ket_rshare", "tensor_train", "word2ketxs"]:
        res = runner.invoke(main, ["gradcheck", "--method", method, "--trials", "3", "--seed", "0"])
        assert res.exit_code == 0, (method, res.output, res.stderr)
        assert "FAIL" not in res.output


def test_gradcheck_corrupted_backward_nonzero_exit(runner, monkeypatch):
    import tenbed.gradients as gradients

    real_backward = gradients.backward

    def corrupted(layer, word_id, upstream):
        slots = real_backward(layer, word_id, upstream)
        for s in slots:
            s.grad *= 1.01
        return slots

    monkeypatch.setattr(gradients, "backward", corrupted)
    res = runner.invoke(main, ["gradcheck", "--method", "matrix_factor", "--trials", "2"])
    assert res.exit_code == 4


def make_train_config(tmp_path, **overrides):
    values = {
        "method": "morphte",
        "task": "reconstruct",
        "vocab_size": "30",
        "embed_dim": "16",
        "order": "3",
        "rank": "2",
        "q": "3",
        "morphemes": "8",
        "epochs": "5",
        "batch": "8",
        "lr": "0.02",
        "seed": "3",
    }
    values.update({k: str(v) for k, v in overrides.items()})
    p = tmp_path / "train.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return p


def test_train_writes_history_checkpoint_manifest(runner, tmp_path):
    cfg = make_train_config(tmp_path)
    out = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output + str(res.exception)
    history = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0] == "epoch,loss"
    assert len(history) == 6  # header + 5 epochs
    layer = load_layer(out / "checkpoint.bin")
    assert layer.config.vocab_size == 30
    assert (out / "manifest.json").exists()


def test_train_deterministic_given_seed(runner, tmp_path):
    cfg = make_train_config(tmp_path)
    o1, o2 = tmp_path / "r1", tmp_path / "r2"
    assert runner.invoke(main, ["train", "--config", str(cfg), "--out", str(o1)]).exit_code == 0
    assert runner.invoke(main, ["train", "--config", str(cfg), "--out", str(o2)]).exit_code == 0
    assert (o1 / "history.csv").read_bytes() == (o2 / "history.csv").read_bytes()
    assert (o1 / "checkpoint.bin").read_bytes() == (o2 / "checkpoint.bin").read_bytes()


def test_manifests_hold_exactly_the_run_record(runner, tmp_path, monkeypatch):
    """build-vocab, train and export each write the command, the resolved config,
    the seed, the input's SHA-256 and tenbed.__version__, in sorted keys."""
    monkeypatch.delenv("TENBED_SEED", raising=False)

    def expect(path, command, config, seed, input_path):
        digest = hashlib.sha256(input_path.read_bytes()).hexdigest()
        record = {"command": command, "config": config, "inputs": {str(input_path): digest},
                  "seed": seed, "tool_version": tenbed.__version__}
        assert path.read_text(encoding="utf-8") == json.dumps(record, sort_keys=True, indent=2) + "\n"

    seg = write_segs(tmp_path)
    res = runner.invoke(main, ["build-vocab", str(seg), "-n", "2", "-o", str(tmp_path / "v")])
    assert res.exit_code == 0, res.output
    expect(tmp_path / "v" / "manifest.json", "build-vocab",
           {"order": 2, "use_random_seg": False}, 0, seg)
    cfg = make_train_config(tmp_path, method="original", epochs="1")
    values = dict(line.split(" = ") for line in cfg.read_text(encoding="utf-8").splitlines())
    res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                               "--seed", "11"])
    assert res.exit_code == 0, res.output
    expect(tmp_path / "run" / "manifest.json", "train", {**values, "resolved_seed": 11}, 11, cfg)
    res = runner.invoke(main, ["export", "--config", str(cfg), "--out", str(tmp_path / "l.bin")])
    assert res.exit_code == 0, res.output
    expect(tmp_path / "l.bin.manifest.json", "export", {**values, "resolved_seed": 3}, 3, cfg)


def test_manifests_name_the_vocab_dir_they_read(runner, tmp_path, monkeypatch):
    """With --vocab-dir, train and export also hash index.tsv and morphemes.tsv, so
    one vocab dir rewritten with one morpheme changed gives another manifest."""
    monkeypatch.delenv("TENBED_SEED", raising=False)
    cfg = make_train_config(tmp_path, vocab_size="5", epochs="1")
    vocab_dir = tmp_path / "vocab"
    manifests = []
    for text in (SEG_TEXT, SEG_TEXT.replace("un kind ness", "un kind nes")):
        seg = write_segs(tmp_path, text)
        assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
        runs = (("train", tmp_path / "run", tmp_path / "run" / "manifest.json"),
                ("export", tmp_path / "l.bin", tmp_path / "l.bin.manifest.json"))
        for command, out, manifest in runs:
            res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out),
                                       "--vocab-dir", str(vocab_dir)])
            assert res.exit_code == 0, res.output + repr(res.exception)
            inputs = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
            assert inputs == {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in
                              (cfg, vocab_dir / "index.tsv", vocab_dir / "morphemes.tsv")}
            manifests.append(manifest.read_bytes())
    assert manifests[0] != manifests[2] and manifests[1] != manifests[3]


def test_version_prints_the_package_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0, repr(res.exception)
    assert res.output.split()[-1] == tenbed.__version__

def test_train_similarity_task(runner, tmp_path):
    cfg = make_train_config(
        tmp_path,
        task="similarity",
        vocab_size="40",
        morphemes="12",
        pairs_train="60",
        pairs_eval="20",
        epochs="2",
    )
    out = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output + str(res.exception)
    assert "eval accuracy" in res.stderr


def test_train_similarity_layer_uses_the_labels_morphology(runner, tmp_path):
    cfg = make_train_config(
        tmp_path, task="similarity", vocab_size="40", morphemes="12",
        pairs_train="20", pairs_eval="10", epochs="1",
    )
    out = tmp_path / "run"
    res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output + str(res.exception)
    vocab, index, _ = make_sharing_task(40, 12, 3, seed=3)
    layer = load_layer(out / "checkpoint.bin")
    np.testing.assert_array_equal(layer.index.rows, index.rows)
    assert layer.index.words == index.words
    assert layer.vocab.tokens == vocab.tokens


def test_train_similarity_rejects_vocab_dir(runner, tmp_path):
    vocab_dir = tmp_path / "vocab"
    seg = write_segs(tmp_path)
    assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
    cfg = make_train_config(
        tmp_path, task="similarity", vocab_size="5", pairs_train="2", pairs_eval="2", epochs="1"
    )
    res = runner.invoke(
        main, ["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
               "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 2
    assert "--vocab-dir" in res.stderr


def test_train_similarity_with_too_few_words_exit_2(runner, tmp_path):
    cfg = make_train_config(tmp_path, task="similarity", vocab_size="5", morphemes="8")
    res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert res.exit_code == 2, res.output
    assert "cannot supply" in res.stderr


def test_train_diverged_exit_4(runner, tmp_path):
    cfg = make_train_config(
        tmp_path, method="matrix_factor", optimizer="sgd", lr="1e12", epochs="50"
    )
    with warnings.catch_warnings():  # an overflow warning fails the run
        warnings.simplefilter("error")
        res = runner.invoke(main, ["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert res.exit_code == 4, res.output + str(res.exception)
    assert res.stderr.startswith("check failed: non-finite loss"), res.stderr


def test_export_then_eval_roundtrip(runner, tmp_path):
    cfg = make_train_config(tmp_path)
    ckpt = tmp_path / "layer.bin"
    res = runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)])
    assert res.exit_code == 0, res.output + str(res.exception)

    layer = load_layer(ckpt)
    # morphte export carries rank parameter matrices plus the index block
    assert len(layer.params) == 2
    assert layer.index is not None

    word = layer.index.words[4]
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--words", word])
    assert res.exit_code == 0
    cells = res.stdout.strip().split("\t")
    assert cells[0] == word
    emitted = np.array([float(x) for x in cells[1:]])
    np.testing.assert_array_equal(emitted, forward(layer, 4))


def test_eval_all_and_ids(runner, tmp_path, monkeypatch):
    cfg = make_train_config(tmp_path, method="original", vocab_size="7", embed_dim="4")
    ckpt = tmp_path / "orig.bin"
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--all"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 7
    # 3 words of 4 floats a chunk: three batches print the same lines
    monkeypatch.setattr("tenbed.layers.BATCH_FLOATS", 12)
    assert runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--all"]).stdout == res.stdout
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--word-ids", "0,3"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 2


def test_eval_bad_word_id_exits_2_before_printing_any_line(runner, tmp_path):
    cfg = make_train_config(tmp_path, method="original", vocab_size="7", embed_dim="4")
    ckpt = tmp_path / "orig.bin"
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--word-ids", "0,3,7"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "word id 7 out of range [0, 7)" in res.stderr


@pytest.mark.parametrize("digits", [401, 1000])
def test_audit_of_an_embed_dim_beyond_float_range_is_exact(runner, digits):
    embed_dim = 10**digits - 1
    res = runner.invoke(main, ["audit", "--method", "morphte", "--vocab-size", "10",
                               "--embed-dim", str(embed_dim), "--morpheme-vocab-size", "5"])
    assert res.exit_code == 0, res.output + repr(res.exception)
    q = int(re.search(r" q=(\d+) ", res.stdout).group(1))
    assert q**3 >= embed_dim > (q - 1) ** 3


def test_eval_unknown_word_exit_2_missing_file_exit_3(runner, tmp_path):
    cfg = make_train_config(tmp_path)
    ckpt = tmp_path / "layer.bin"
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--words", "no-such-word"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["eval", "--checkpoint", str(tmp_path / "missing.bin"), "--all"])
    assert res.exit_code == 3


def _oversized_checkpoint(path, case: str) -> None:
    """Rewrite the ``original`` checkpoint (d=1) at ``path`` to claim more
    bytes than it holds: a 2**40-byte meta, or a meta and a block header
    that agree on a 2**37 x 1 table."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 16)
    if case == "meta-length":
        path.write_bytes(data[:16] + struct.pack("<Q", 2**40) + data[24:])
        return
    meta = json.loads(data[24 : 24 + length])
    meta["vocab_size"] = 2**37
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    rows_at = 24 + length + 8 + len("weight")
    path.write_bytes(data[:16] + struct.pack("<Q", len(raw)) + raw + data[24 + length : rows_at]
                     + struct.pack("<Q", 2**37) + data[rows_at + 8 :])


@pytest.mark.parametrize("case", ["meta-length", "table-rows"])
def test_eval_rejects_checkpoint_lengths_beyond_the_file(runner, tmp_path, case):
    cfg = make_train_config(tmp_path, method="original", vocab_size="7", embed_dim="1")
    ckpt = tmp_path / "orig.bin"
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    _oversized_checkpoint(ckpt, case)
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--word-ids", "0"])
    assert res.exit_code == 2, res.output + repr(res.exception)
    assert "error: truncated checkpoint" in res.stderr


def test_eval_rejects_a_checkpoint_whose_product_is_too_long(runner, tmp_path):
    """A 3x2 table with order 40 would embed through 2**40 floats per word: an order-4
    checkpoint whose meta says order 40 (no config of order 40 can be made)."""
    cfg = LayerConfig("word2ket_rshare", 5, 9, order=4, subdim=2, morpheme_vocab_size=3)
    ckpt = tmp_path / "long.bin"
    save_layer(build(cfg), ckpt)
    data = ckpt.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 16)
    meta = json.loads(data[24 : 24 + length])
    meta["order"] = 40
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(data[:16] + struct.pack("<Q", len(raw)) + raw + data[24 + length :])
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--word-ids", "0"])
    assert res.exit_code == 2, res.output + repr(res.exception)
    assert "2**40 is more than 64 * embed_dim = 576" in res.stderr


def test_eval_rejects_a_checkpoint_whose_rank_is_a_float(runner, tmp_path):
    cfg = make_train_config(tmp_path)
    ckpt = tmp_path / "layer.bin"
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    data = ckpt.read_bytes()
    (length,) = struct.unpack_from("<Q", data, 16)
    meta = json.loads(data[24 : 24 + length])
    meta["rank"] = 2.0
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    ckpt.write_bytes(data[:16] + struct.pack("<Q", len(raw)) + raw + data[24 + length :])
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--word-ids", "0"])
    assert res.exit_code == 2, res.output + repr(res.exception)
    assert "rank must be an integer, got 2.0" in res.stderr


def test_a_config_key_given_twice_exits_2_naming_both_lines(runner, tmp_path):
    cfg = make_train_config(tmp_path, method="original", embed_dim="8")
    with cfg.open("a", encoding="utf-8") as fh:
        fh.write("embed_dim = 4\n")
    out = tmp_path / "layer.bin"
    res = runner.invoke(main, ["export", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2, res.output + repr(res.exception)
    assert "train.cfg:13: key 'embed_dim' repeats line 4" in res.stderr
    assert not out.exists()


def test_env_seed_overrides_config(runner, tmp_path, monkeypatch):
    cfg = make_train_config(tmp_path, method="original", vocab_size="5", embed_dim="4", seed="3")
    c1, c2, c3 = (tmp_path / f"{n}.bin" for n in "abc")
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(c1)]).exit_code == 0
    monkeypatch.setenv("TENBED_SEED", "99")
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(c2)]).exit_code == 0
    monkeypatch.delenv("TENBED_SEED")
    assert runner.invoke(main, ["export", "--config", str(cfg), "--out", str(c3), "--seed", "99"]).exit_code == 0
    w1 = load_layer(c1).params["weight"]
    w2 = load_layer(c2).params["weight"]
    w3 = load_layer(c3).params["weight"]
    assert not np.array_equal(w1, w2)
    np.testing.assert_array_equal(w2, w3)


def test_vocab_dir_flow(runner, tmp_path):
    seg = write_segs(tmp_path)
    vocab_dir = tmp_path / "vocab"
    assert runner.invoke(main, ["build-vocab", str(seg), "-n", "3", "-o", str(vocab_dir)]).exit_code == 0
    cfg = make_train_config(tmp_path, vocab_size="5", epochs="2")
    ckpt = tmp_path / "real.bin"
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(ckpt), "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 0, res.output + str(res.exception)
    layer = load_layer(ckpt)
    assert layer.index.words[0] == "unkindly"
    res = runner.invoke(main, ["eval", "--checkpoint", str(ckpt), "--words", "unkindness"])
    assert res.exit_code == 0


def test_vocab_dir_keeps_config_morpheme_vocab_size(runner, tmp_path):
    seg = write_segs(tmp_path)
    vocab_dir = tmp_path / "vocab"
    assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
    # 8 morphemes plus the pad row
    for size, code in (("9", 0), ("5", 2)):
        cfg = make_train_config(tmp_path, vocab_size="5", morpheme_vocab_size=size)
        res = runner.invoke(
            main, ["export", "--config", str(cfg), "--out", str(tmp_path / "l.bin"),
                   "--vocab-dir", str(vocab_dir)]
        )
        assert res.exit_code == code, res.output
    assert "morpheme_vocab_size 5 != vocab size 9" in res.stderr


VOCAB_DIR_KINDS = {
    "original": {},
    "matrix_factor": {},
    "tensor_train": dict(vocab_factors="2,3,5", dim_factors="2,2,4"),
    "word2ket": {},
    "word2ketxs": dict(order="2", vocab_factors="5,6", dim_factors="4,4"),
    "word2ket_rshare": dict(q="4"),
}


@pytest.mark.parametrize("method", VOCAB_DIR_KINDS)
def test_every_kind_takes_its_vocab_size_from_the_vocab_dir(runner, tmp_path, monkeypatch,
                                                             method):
    """A 5-word vocab dir of order 2 sizes every kind; word2ket_rshare also takes its
    order and morpheme count from it, and draws its own index from the seed."""
    monkeypatch.delenv("TENBED_SEED", raising=False)
    vocab_dir = tmp_path / "vocab"
    seg = write_segs(tmp_path)
    assert runner.invoke(main, ["build-vocab", str(seg), "-n", "2", "-o", str(vocab_dir)]).exit_code == 0
    cfg = make_train_config(tmp_path, method=method, **VOCAB_DIR_KINDS[method])
    ckpt = tmp_path / "l.bin"
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(ckpt), "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 0, res.output + repr(res.exception)
    config = load_layer(ckpt).config
    assert config.vocab_size == 5
    if method == "word2ket_rshare":
        morphemes = len((vocab_dir / "morphemes.tsv").read_text(encoding="utf-8").splitlines())
        assert (config.order, config.morpheme_vocab_size) == (2, morphemes)
        index = build_rshare_index(5, morphemes, 2, seed=3)
        np.testing.assert_array_equal(load_layer(ckpt).index.rows, index.rows)
    else:
        assert config.order == int(VOCAB_DIR_KINDS[method].get("order", 3))


@pytest.mark.parametrize("config", [
    # vocab_size 100, the default, is more than the 6 words vocab_factors cover
    "method=tensor_train\norder=2\nvocab_factors=2,3\ndim_factors=8,8\n",
    # at order 3, the default, 40**3 is more than 64 * embed_dim = 4096
    "method=morphte\nq=40\n",
], ids=["tensor_train", "morphte"])
def test_a_config_valid_only_at_the_vocab_dir_s_sizes_exports(runner, tmp_path, config):
    """The vocab dir's sizes (4 words, 2 slots) are in the config before it is checked."""
    vocab_dir = tmp_path / "vocab"
    seg = write_segs(tmp_path, "".join(SEG_TEXT.splitlines(keepends=True)[:4]))
    res = runner.invoke(main, ["build-vocab", str(seg), "-n", "2", "-o", str(vocab_dir)])
    assert res.exit_code == 0
    cfg = tmp_path / "layer.cfg"
    cfg.write_text(config, encoding="utf-8")
    ckpt = tmp_path / "l.bin"
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(ckpt), "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 0, res.output + repr(res.exception)
    layer_config = load_layer(ckpt).config
    assert (layer_config.vocab_size, layer_config.order) == (4, 2)


def test_vocab_dir_with_a_config_that_does_not_validate_exits_2(runner, tmp_path):
    vocab_dir = tmp_path / "vocab"
    seg = write_segs(tmp_path)
    assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
    cfg = make_train_config(tmp_path, method="tensor_train")
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(tmp_path / "l.bin"),
               "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 2, res.output + repr(res.exception)
    assert "tensor_train requires vocab_factors and dim_factors" in res.stderr

@pytest.mark.parametrize(
    "name, text, message",
    [
        ("morphemes.tsv", "<pad>\t0\nun\t1\n", "last id must be the pad sentinel"),
        ("morphemes.tsv", "un\t0\n<pad>\t2\n", "dense from 0"),
        ("morphemes.tsv", "un 0\n<pad>\t1\n", "expected 'morpheme<TAB>id'"),
        ("index.tsv", "unkindly 0 1 2\n", "expected 'word<TAB>ids'"),
        ("index.tsv", "unkindly\t0 1 2\ncook\t6 8\n", "inconsistent row widths [2, 3]"),
        ("index.tsv", "\n", "empty index"),
        ("morphemes.tsv", "un\tx\n<pad>\t1\n", "morphemes.tsv:1: expected 'morpheme<TAB>id'"),
        ("index.tsv", "unkindly\t0 x 2\n", "index.tsv:1: expected 'word<TAB>ids'"),
        ("index.tsv", "unkindly\t0 1 2\ncook\t0 99999999999999999999 2\n",
         "index.tsv:2: id 99999999999999999999 is outside the int64 range"),
        ("morphemes.tsv", "un\t0\nun\t1\n<pad>\t2\n",
         "morphemes.tsv: duplicate morpheme 'un'"),
        ("index.tsv", "cook\t0 1 2\nunkindly\t0 1 2\ncook\t2 1 0\n",
         "index.tsv: duplicate word 'cook' in index"),
    ],
    ids=["pad-not-last", "ids-not-dense", "vocab-no-tab", "index-no-tab", "row-widths",
         "empty-index", "vocab-id-not-int", "index-id-not-int", "index-id-beyond-int64",
         "duplicate-morpheme", "duplicate-word"],
)
def test_export_rejects_malformed_vocab_dir(runner, tmp_path, name, text, message):
    seg = write_segs(tmp_path)
    vocab_dir = tmp_path / "vocab"
    assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
    (vocab_dir / name).write_text(text, encoding="utf-8")
    cfg = make_train_config(tmp_path, vocab_size="5")
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(tmp_path / "l.bin"),
               "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 2, res.output + str(res.exception)
    assert message in res.stderr


def test_export_rejects_negative_morpheme_id(runner, tmp_path):
    seg = write_segs(tmp_path)
    vocab_dir = tmp_path / "vocab"
    assert runner.invoke(main, ["build-vocab", str(seg), "-o", str(vocab_dir)]).exit_code == 0
    index_path = vocab_dir / "index.tsv"
    lines = index_path.read_text(encoding="utf-8").splitlines()
    word = lines[0].split("\t")[0]
    lines[0] = f"{word}\t0 -1 1"
    index_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = make_train_config(tmp_path, vocab_size="5")
    res = runner.invoke(
        main, ["export", "--config", str(cfg), "--out", str(tmp_path / "l.bin"),
               "--vocab-dir", str(vocab_dir)]
    )
    assert res.exit_code == 2
    assert "outside [0, 9)" in res.stderr


def _train_args(tmp_path, **overrides):
    cfg = make_train_config(tmp_path, **overrides)
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]


def _build_vocab_args(tmp_path, data: bytes, *flags):
    seg = tmp_path / "segs.tsv"
    seg.write_bytes(data)
    return ["build-vocab", str(seg), "-o", str(tmp_path / "out"), *flags]


def _eval_args(tmp_path, *flags):
    """``eval`` of an exported ``original`` layer, which has no word index."""
    cfg = make_train_config(tmp_path, method="original")
    ckpt = tmp_path / "layer.bin"
    assert CliRunner().invoke(main, ["export", "--config", str(cfg), "--out", str(ckpt)]).exit_code == 0
    return ["eval", "--checkpoint", str(ckpt), *flags]


def _eval_word_ids_args(tmp_path):
    return _eval_args(tmp_path, "--word-ids", "0,abc")


def _config_text_args(tmp_path, text):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text, encoding="utf-8")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]


def _non_utf8_config_args(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_bytes(b"method = morphte\nlr = 0.02\xff\n")
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]


SIMILARITY = dict(task="similarity", vocab_size="40", morphemes="12", pairs_train="20",
                  pairs_eval="10")
NUMERIC_KEYS = ("vocab_size", "embed_dim", "order", "rank", "q", "morpheme_vocab_size",
                "morphemes", "epochs", "batch", "lr", "seed", "target_seed", "vocab_factors",
                "dim_factors")
MALFORMED_INPUTS = [
    *(pytest.param(lambda p, key=key: _train_args(p, **{key: "abc"}), key, id=f"{key}=abc")
      for key in NUMERIC_KEYS),
    *(pytest.param(lambda p, key=key, value=value: _train_args(p, **{**SIMILARITY, key: value}),
                   key, id=f"{key}={value}")
      for key in ("pairs_train", "pairs_eval") for value in ("abc", "0")),
    pytest.param(lambda p: _train_args(p, method="foo"), "method", id="method=foo"),
    pytest.param(lambda p: _train_args(p, task="foo"), "task", id="task=foo"),
    pytest.param(lambda p: _train_args(p, optimizer="foo"), "optimizer", id="optimizer=foo"),
    pytest.param(lambda p: _train_args(p, lr="nan"), "lr", id="lr=nan"),
    pytest.param(lambda p: _train_args(p, order="0"), "order", id="order=0"),
    pytest.param(lambda p: _train_args(p, seed="-1"), "seed", id="seed=-1"),
    pytest.param(_eval_word_ids_args, "--word-ids", id="word-ids"),
    pytest.param(lambda p: ["gradcheck", "--method", "original", "--epsilon", "0"], "epsilon",
                 id="epsilon"),
    pytest.param(lambda p: ["gradcheck", "--method", "original", "--trials", "0"], "--trials",
                 id="trials=0"),
    *(pytest.param(lambda p, value=value: ["gradcheck", "--method", "original", "--tolerance",
                                           value], "tolerance", id=f"tolerance={value}")
      for value in ("nan", "-1", "0", "inf")),
    pytest.param(lambda p: ["gradcheck", "--method", "tensor_train", "--vocab-factors", "2,a"],
                 "vocab_factors", id="vocab-factors"),
    pytest.param(lambda p: ["audit", "--method", "morphlstm", "--vocab-size", "9", "--embed-dim",
                            "0", "--morpheme-vocab-size", "5"], "embed_dim", id="morphlstm-d=0"),
    pytest.param(lambda p: _build_vocab_args(p, SEG_TEXT.encode(), "-n", "0"), "--order",
                 id="n=0"),
    pytest.param(lambda p: _build_vocab_args(p, b""), "segs.tsv", id="empty-segmentation"),
    pytest.param(lambda p: _build_vocab_args(p, b"un\xffkind\tun kind\n"), "segs.tsv",
                 id="non-utf8-segmentation"),
    pytest.param(_non_utf8_config_args, "train.cfg", id="non-utf8-config"),
    pytest.param(lambda p: _train_args(p, epoch="1"), "epoch", id="misspelt-key-train"),
    pytest.param(lambda p: ["export", "--config", str(make_train_config(p, rnak="2")),
                            "--out", str(p / "l.bin")], "rnak", id="misspelt-key-export"),
    pytest.param(lambda p: _config_text_args(p, "vocab_size = 30\nepochs = 1\n"),
                 "config is missing 'method'", id="no-method"),
    pytest.param(lambda p: _config_text_args(p, "method = original\nepochs 1\n"),
                 "train.cfg:2: expected key=value", id="no-equals-sign"),
    pytest.param(lambda p: _train_args(p, **{**SIMILARITY, "morphemes": "0"}),
                 "similarity task needs a 'morphemes=' config entry", id="similarity-morphemes=0"),
    pytest.param(lambda p: _train_args(p, morphemes="0"),
                 "morphte needs either --vocab-dir or a 'morphemes=' config entry",
                 id="morphte-morphemes=0"),
    pytest.param(lambda p: ["audit", "--method", "morphlstm", "--vocab-size", "9", "--embed-dim",
                            "4"], "morphlstm needs --morpheme-vocab-size",
                 id="morphlstm-no-morpheme-vocab-size"),
    pytest.param(lambda p: _eval_args(p, "--words", "cook"),
                 "checkpoint has no word index; use --word-ids", id="words-without-index"),
    pytest.param(lambda p: _eval_args(p), "nothing to do", id="eval-nothing-to-do"),
]


@pytest.mark.parametrize("make_args, named", MALFORMED_INPUTS)
def test_malformed_input_exits_2_naming_its_key_or_file(runner, tmp_path, monkeypatch,
                                                        make_args, named):
    import tenbed.training as training

    args = make_args(tmp_path)

    def refuse(*_, **__):
        raise AssertionError("malformed input reached training.train")

    monkeypatch.setattr(training, "train", refuse)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output + repr(res.exception)
    # the key or file as a whole word: "q" must not match inside another word
    assert re.search(rf"(?<![\w-]){re.escape(named)}(?!\w)", res.stderr), res.stderr
    assert res.stdout == ""


def test_bug_in_a_command_exits_1_with_its_exception(runner, tmp_path, monkeypatch):
    import tenbed.cli as cli

    def broken(*_, **__):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli, "build_vocab_and_index", broken)
    res = runner.invoke(main, ["build-vocab", str(write_segs(tmp_path)), "-o", str(tmp_path / "o")])
    assert res.exit_code == 1
    assert isinstance(res.exception, ValueError)
    assert str(res.exception) == "a bug, not bad input"

"""Command-line entry point tying the library together.

Subcommands: build-vocab, audit, gradcheck, train, eval, export.  All machine
output is TSV/CSV on stdout with fixed column orders; progress and summaries
go to stderr.

Exit codes: 0 success; 2 a package error (``TenbedError``) from outside input:
a flag, a config value, an input file or a checkpoint; 3 an I/O error; 4 a
failed check (gradient check, audit mismatch, diverged training).  Every
other exception is a bug and ends in its traceback, with exit code 1.

The environment variable ``TENBED_SEED`` overrides every other seed source.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import audit as audit_mod
from . import checkpoint, gradients, synthetic, training
from .errors import ConfigError, TenbedError, TrainingDivergedError
from .layers import LayerConfig, MethodKind, MORPHOLOGICAL_KINDS, build, forward_batch, gather_batch
from .layers import forward  # noqa: F401  (unused; perfbench/tracing.py wraps this name)
from .morphology import (
    INDEX_FILE,
    STATS_HEADER,
    VOCAB_FILE,
    build_vocab_and_index,
    load_segmentations,
    load_vocab_dir,
    morpheme_stats,
    random_seg,
    read_lines,
    write_vocab_dir,
)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4


class CheckFailed(TenbedError):
    """A gradient check or audit comparison did not pass."""


def exit_codes(command):
    """Run a command, mapping package and I/O errors to the exit codes above.

    Nothing else is caught, so a bug exits 1 with its traceback.
    """

    @functools.wraps(command)
    def run(**kwargs):
        try:
            command(**kwargs)
        except (CheckFailed, TrainingDivergedError) as exc:
            click.echo(f"check failed: {exc}", err=True)
            sys.exit(EXIT_CHECK_FAILED)
        except TenbedError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return run


METHOD_CHOICE = click.Choice([k.value for k in MethodKind])


def _parse_factor_list(text: str) -> tuple[int, ...] | None:
    if text == "":
        return None
    return tuple(click.INT(x) for x in text.replace("x", ",").split(",") if x)


def config_value(values, key: str, parse=click.INT, default=None):
    """``parse(values[key])``, or ``default`` when the key is absent or None.

    The commands read config values, and the flags named after config keys,
    through here.  ``parse`` is a click type, as a flag's is, and a value it
    rejects raises ``ConfigError`` naming the key.
    """
    text = values.get(key)
    if text is None:
        return default
    try:
        return parse(text)
    except click.BadParameter as exc:
        raise ConfigError(f"{key}: {exc.message}") from None


def resolve_seed(flag: int | None, values: dict | None = None) -> int:
    """First seed wins: the TENBED_SEED env var, the --seed flag, the config's seed, 0."""
    for seed in (config_value(os.environ, "TENBED_SEED"), flag):
        if seed is not None:
            return seed
    return config_value(values or {}, "seed", default=0)


def parse_kv_config(path, keys: frozenset[str]) -> dict[str, str]:
    """Minimal key=value config file: one pair per line, '#' comments.

    A key outside ``keys``, the keys the reading command knows, or a key
    given twice raises ``ConfigError`` naming it, so no value is dropped.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, raw in read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(
                f"{path}:{line_no}: unknown key {key!r}; known keys: {', '.join(sorted(keys))}"
            )
        if key in lines:
            raise ConfigError(f"{path}:{line_no}: key {key!r} repeats line {lines[key]}")
        values[key], lines[key] = value.strip(), line_no
    return values


def _float_cell(x: float) -> str:
    return format(float(x), ".17g")


def write_manifest(path, command: str, config: dict, seed: int, inputs: list) -> None:
    """Write a run's record: enough to reproduce its output byte for byte.

    It names the command, its resolved config, the seed, the SHA-256 of each
    input file's raw bytes and ``tenbed.__version__``.  No timestamps, so a
    rerun on the same inputs writes the same bytes.
    """
    hashes = {}
    for input_path in inputs:
        digest = hashlib.sha256()
        with open(input_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                digest.update(chunk)
        hashes[str(input_path)] = digest.hexdigest()
    record = {"command": command, "config": config, "inputs": hashes, "seed": seed,
              "tool_version": __version__}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _inputs(config_path, vocab_dir) -> list:
    """The files a train or export run reads: its config, and the vocab dir's two files."""
    if vocab_dir is None:
        return [config_path]
    return [config_path, Path(vocab_dir) / INDEX_FILE, Path(vocab_dir) / VOCAB_FILE]


def layer_config_from_mapping(values: dict, seed: int) -> LayerConfig:
    """The config that config-file keys or same-named CLI flags describe.

    A key whose value is None counts as absent.
    """
    get = functools.partial(config_value, values)
    kind = get("method", METHOD_CHOICE)
    if kind is None:
        raise ConfigError("config is missing 'method'")
    return LayerConfig(
        kind,
        vocab_size=get("vocab_size", default=100),
        embed_dim=get("embed_dim", default=64),
        order=get("order", default=3),
        rank=get("rank", default=1),
        subdim=get("q"),
        vocab_factors=get("vocab_factors", _parse_factor_list),
        dim_factors=get("dim_factors", _parse_factor_list),
        morpheme_vocab_size=get("morpheme_vocab_size"),
        seed=seed,
    )


SIMILARITY_TASKS = ("similarity", "word_similarity")
# the keys of a train config: LayerConfig's fields under their config names,
# the synthetic morphology's size, then the task's keys.  export reads train
# configs too, to write the layer a run starts from.
TRAIN_KEYS = frozenset(
    {f.name for f in fields(LayerConfig)} - {"kind", "subdim"}
    | {"method", "q", "morphemes"}
    | {"task", "epochs", "batch", "optimizer", "lr", "pairs_train", "pairs_eval", "target_seed"}
)


def _build_layer(values: dict, vocab_dir: str | None, seed: int):
    """The layer ``values`` describe, and each word's morpheme set or None.

    ``vocab_dir`` sets every kind's vocab_size to its words; a morphological
    kind also takes its order and, unless the config sets it, its morpheme
    count, pad included, all before the config is checked (it may be valid
    only at those sizes).  The similarity task labels word pairs by the
    morphemes they share, so its per-word morpheme sets and a morphological
    layer's vocab and index come from one ``make_sharing_task`` draw; for
    other tasks the sets are None.  Other morphological layers read
    ``vocab_dir`` or draw ``make_morphology``; word2ket_rshare draws its index
    from the seed either way.
    """
    similarity = values.get("task") in SIMILARITY_TASKS
    vocab = index = morph_sets = None
    if vocab_dir is not None:
        if similarity:
            raise ConfigError(
                "the similarity task labels pairs from a synthetic morphology; "
                "it cannot train on --vocab-dir"
            )
        vocab, index = load_vocab_dir(vocab_dir)
        sizes = {"vocab_size": index.vocab_size}
        if config_value(values, "method", METHOD_CHOICE) in {k.value for k in MORPHOLOGICAL_KINDS}:
            M = config_value(values, "morpheme_vocab_size", default=vocab.size)
            sizes.update(order=index.order, morpheme_vocab_size=M)
        for key in sizes:  # a malformed value is refused, though the vocab dir's replaces it
            config_value(values, key)
        values = {**values, **sizes}
    config = layer_config_from_mapping(values, seed)

    def morphemes(error: str) -> int:
        count = config_value(values, "morphemes", default=0)
        if count < 1:
            raise ConfigError(error)
        return count

    if similarity:
        need = "similarity task needs a 'morphemes=' config entry"
        vocab, index, morph_sets = synthetic.make_sharing_task(
            config.vocab_size, morphemes(need), config.order, seed=seed
        )
    if config.kind is MethodKind.WORD2KET_RSHARE:
        # the random-sharing control: build draws its index from the seed
        vocab = index = None
        if config.morpheme_vocab_size is None:
            m = morphemes("word2ket_rshare needs morpheme_vocab_size or morphemes=")
            config = replace(config, morpheme_vocab_size=m + 1)
    elif config.kind in MORPHOLOGICAL_KINDS and index is None:
        need = f"{config.kind.value} needs either --vocab-dir or a 'morphemes=' config entry"
        vocab, index = synthetic.make_morphology(
            config.vocab_size, morphemes(need), config.order, seed=seed
        )
    return build(config, vocab=vocab, index=index), morph_sets


@click.group()
@click.version_option(version=__version__)
def main():
    """Compressed embedding layers: build vocabularies, audit, train, export."""


@main.command("build-vocab")
@click.argument("seg_file", type=click.Path())
@click.option("-n", "--order", "order", type=click.IntRange(min=1), default=3, show_default=True,
              help="Number of morpheme slots per word.")
@click.option("-o", "--out-dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--use-random-seg", is_flag=True,
              help="Treat input as a word list and segment each word at two random gaps.")
@click.option("--seed", type=int, default=None, help="Seed for --use-random-seg.")
@exit_codes
def cmd_build_vocab(seg_file, order, out_dir, use_random_seg, seed):
    """Build morpheme vocabulary, index table and statistics from SEG_FILE."""
    seed_value = resolve_seed(seed)
    if use_random_seg:
        words = []
        for _, raw in read_lines(seg_file):
            line = raw.strip()
            if line and not line.startswith("#"):
                words.append(line.split("\t")[0])
        segs = [random_seg(w, seed_value) for w in words]
    else:
        segs = load_segmentations(seg_file)
    if not segs:
        raise ConfigError(f"{seg_file} holds no words")
    vocab, index = build_vocab_and_index(segs, order)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_vocab_dir(vocab, index, out)
    caps = [None, 4, 3, 2, 1]
    if order not in caps:
        caps.append(order)
    with open(out / "stats.tsv", "w", encoding="utf-8") as fh:
        fh.write(STATS_HEADER + "\n")
        for row in morpheme_stats(segs, caps):
            fh.write(row.as_tsv() + "\n")

    write_manifest(out / "manifest.json", "build-vocab",
                   {"order": order, "use_random_seg": use_random_seg}, seed_value, [seg_file])
    click.echo(
        f"wrote {vocab.size} morphemes (pad included), {index.vocab_size} words -> {out}",
        err=True,
    )


@main.command("audit")
@click.option("--paper-tables", is_flag=True,
              help="Recompute the bundled reference configuration tables.")
@click.option("--method", type=click.Choice([k.value for k in MethodKind] + ["morphlstm"]))
@click.option("--vocab-size", type=int)
@click.option("--embed-dim", type=int)
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rank", type=int, default=1, show_default=True)
@click.option("--q", type=int, default=None)
@click.option("--vocab-factors", default=None, help="Comma or x separated, e.g. 18,20,25.")
@click.option("--dim-factors", default=None, help="Comma or x separated, e.g. 8,8,8.")
@click.option("--morpheme-vocab-size", type=int, default=None)
@exit_codes
def cmd_audit(paper_tables, **flags):
    """Exact parameter counts and compression ratios."""
    # every flag but --paper-tables is named after its config key
    if paper_tables:
        _audit_reference_tables()
        return
    if None in (flags["method"], flags["vocab_size"], flags["embed_dim"]):
        raise ConfigError("need --method, --vocab-size and --embed-dim (or --paper-tables)")
    if flags["method"] == "morphlstm":
        if flags["morpheme_vocab_size"] is None:
            raise ConfigError("morphlstm needs --morpheme-vocab-size")
        row = audit_mod.count_params_morphlstm(
            flags["vocab_size"], flags["embed_dim"], flags["morpheme_vocab_size"]
        )
    else:
        row = audit_mod.count_params(layer_config_from_mapping(flags, seed=0))
    click.echo(audit_mod.AUDIT_HEADER)
    click.echo(row.as_tsv())


def _audit_reference_tables():
    results, mismatches = audit_mod.reproduce_paper_tables()
    click.echo(
        "group\tdataset\tmethod\tlevel\ttrainable\tconstant\ttotal\t"
        "computed_memb\tpublished_memb\texpected_memb\tstatus\tnote"
    )
    for res in results:
        row = res.row
        if not res.matches:
            status = "mismatch"
        elif row.has_published_discrepancy:
            status = "corrected"
        else:
            status = "ok"
        click.echo(
            "\t".join(
                [
                    row.group,
                    row.dataset,
                    row.config.kind.value,
                    row.level,
                    str(res.audit.trainable),
                    str(res.audit.constant),
                    str(res.audit.total),
                    f"{res.computed_millions:.4f}",
                    f"{row.published_millions:g}",
                    f"{row.expected_millions:g}",
                    status,
                    row.note,
                ]
            )
        )
    corrected = sum(1 for r in results if r.row.has_published_discrepancy)
    click.echo(
        f"{len(results)} rows, {len(mismatches)} mismatches, "
        f"{corrected} published cells corrected (see notes)",
        err=True,
    )
    if mismatches:
        raise CheckFailed(f"{len(mismatches)} reference rows disagree with the closed forms")


@main.command("gradcheck")
@click.option("--method", required=True, type=METHOD_CHOICE)
@click.option("--vocab-size", type=int, default=12, show_default=True)
@click.option("--embed-dim", type=int, default=8, show_default=True)
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--q", type=int, default=2)
@click.option("--vocab-factors", default="2,3,4")
@click.option("--dim-factors", default="2,2,2")
@click.option("--morphemes", type=int, default=6, show_default=True,
              help="Synthetic morpheme pool size for morphological kinds.")
@click.option("--trials", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--epsilon", type=float, default=1e-5, show_default=True)
@click.option("--tolerance", type=float, default=1e-5, show_default=True)
@exit_codes
def cmd_gradcheck(trials, seed, epsilon, tolerance, **flags):
    """Finite-difference check of the analytic gradients on random words."""
    # the layer flags are named after their config keys; a kind ignores the
    # shape fields it does not use
    gradients.check_finite_diff_steps(epsilon, tolerance)  # before the header is written
    seed_value = resolve_seed(seed)
    layer, _ = _build_layer(flags, None, seed_value)
    rng = np.random.default_rng(seed_value)
    click.echo("word_id\tentries_checked\tmax_rel_error\tstatus")
    worst = 0.0
    any_failed = False
    for _ in range(trials):
        word_id = int(rng.integers(0, layer.config.vocab_size))
        report = gradients.finite_diff_check(
            layer, word_id, epsilon=epsilon, tolerance=tolerance, seed=int(rng.integers(2**31))
        )
        worst = max(worst, report.max_rel_error)
        any_failed = any_failed or not report.passed
        status = "ok" if report.passed else "FAIL"
        click.echo(f"{word_id}\t{report.checked}\t{report.max_rel_error:.3e}\t{status}")
    click.echo(f"worst relative error {worst:.3e} over {trials} words", err=True)
    if any_failed:
        raise CheckFailed(f"gradient mismatch above tolerance {tolerance:g}")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--vocab-dir", type=click.Path(), default=None,
              help="Directory produced by build-vocab (morphemes.tsv, index.tsv).")
@click.option("--seed", type=int, default=None)
@exit_codes
def cmd_train(config_path, out_dir, vocab_dir, seed):
    """Fit a layer on a desk-scale task; write history, checkpoint, manifest."""
    values = parse_kv_config(config_path, TRAIN_KEYS)
    get = functools.partial(config_value, values)
    seed_value = resolve_seed(seed, values)
    task_name = values.get("task", "reconstruct")
    # the task's values are read and checked before any work is done
    at_least_1 = click.IntRange(min=1)
    epochs, batch = get("epochs", at_least_1, 100), get("batch", at_least_1, 32)
    opt = training.OptimizerState(
        kind=values.get("optimizer", "adam"), lr=get("lr", click.FLOAT, 0.01)
    )
    n_pairs = None
    if task_name in SIMILARITY_TASKS:
        n_pairs = get("pairs_train", at_least_1, 1000), get("pairs_eval", at_least_1, 400)
    elif task_name in ("reconstruct", "reconstruct_table"):
        donor_seed = get("target_seed", default=seed_value + 1000)
    else:
        raise ConfigError(f"unknown task {task_name!r}")

    layer, morph_sets = _build_layer(values, vocab_dir, seed_value)
    if n_pairs:
        pairs_train, pairs_eval = synthetic.make_sharing_pairs(
            morph_sets, *n_pairs, seed=seed_value + 1
        )
        task = training.TrainTask("word_similarity", pairs=pairs_train)
    else:
        donor = build(replace(layer.config, seed=donor_seed), vocab=layer.vocab, index=layer.index)
        targets = forward_batch(donor, np.arange(layer.config.vocab_size))
        task = training.TrainTask("reconstruct_table", targets=targets)

    history = training.train(layer, task, opt, epochs=epochs, batch_size=batch, seed=seed_value)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "history.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch},{_float_cell(loss)}\n")
    checkpoint.save_layer(layer, out / "checkpoint.bin")
    write_manifest(out / "manifest.json", "train", {**values, "resolved_seed": seed_value},
                   seed_value, _inputs(config_path, vocab_dir))
    summary = f"final loss {history[-1]:.6g} after {len(history)} epochs"
    if n_pairs:
        summary += f"; eval accuracy {training.eval_similarity(layer, pairs_eval):.4f}"
    click.echo(summary, err=True)


@main.command("export")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--vocab-dir", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@exit_codes
def cmd_export(config_path, out_path, vocab_dir, seed):
    """Build a freshly initialised layer and write it as a checkpoint."""
    values = parse_kv_config(config_path, TRAIN_KEYS)
    seed_value = resolve_seed(seed, values)
    layer, _ = _build_layer(values, vocab_dir, seed_value)
    checkpoint.save_layer(layer, out_path)
    write_manifest(str(out_path) + ".manifest.json", "export",
                   {**values, "resolved_seed": seed_value}, seed_value,
                   _inputs(config_path, vocab_dir))
    click.echo(f"wrote {layer.trainable_param_count()} parameters -> {out_path}", err=True)


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path())
@click.option("--words", default=None, help="Comma-separated word strings.")
@click.option("--word-ids", default=None, help="Comma-separated integer ids.")
@click.option("--all", "emit_all", is_flag=True, help="Emit every word in the table.")
@exit_codes
def cmd_eval(ckpt_path, words, word_ids, emit_all):
    """Load a checkpoint and emit embeddings as TSV (word, v0..v{d-1})."""
    layer = checkpoint.load_layer(ckpt_path)
    targets: list[tuple[str, int]] = []
    if emit_all:
        names = layer.index.words if layer.index is not None else None
        for j in range(layer.config.vocab_size):
            targets.append((names[j] if names else str(j), j))
    if word_ids:
        for tok in word_ids.split(","):
            targets.append((tok.strip(), config_value({"--word-ids": tok}, "--word-ids")))
    if words:
        if layer.index is None:
            raise ConfigError("checkpoint has no word index; use --word-ids")
        for w in words.split(","):
            w = w.strip()
            targets.append((w, layer.index.row_of_word(w)))
    if not targets:
        raise ConfigError("nothing to do: pass --words, --word-ids or --all")
    ids = [j for _, j in targets]
    gather_batch(layer, ids)  # checks every id before the first line is written
    step = layer.config.chunk_words()
    for start in range(0, len(ids), step):
        vectors = forward_batch(layer, ids[start : start + step])
        for (name, _), vec in zip(targets[start : start + step], vectors):
            click.echo(name + "\t" + "\t".join(_float_cell(x) for x in vec))


if __name__ == "__main__":
    main()

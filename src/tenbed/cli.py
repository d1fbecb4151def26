"""Command-line entry point tying the library together.

Subcommands: build-vocab, audit, gradcheck, train, eval, export.  All machine
output is TSV/CSV on stdout with fixed column orders; progress and summaries
go to stderr.  Exit codes: 0 success, 2 validation/configuration error,
3 I/O error, 4 failed check (gradient check or audit mismatch).

The environment variable ``TENBED_SEED`` overrides every other seed source.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import audit as audit_mod
from . import checkpoint, gradients, synthetic, training
from .errors import (
    CheckpointError,
    ConfigError,
    DuplicateWordError,
    SegmentationParseError,
    TenbedError,
    WordLookupError,
)
from .layers import (
    FACTORED_KINDS,
    KET_KINDS,
    LayerConfig,
    MethodKind,
    MORPHOLOGICAL_KINDS,
    build,
    forward,
)
from .manifest import RunManifest
from .morphology import (
    IndexMatrix,
    MorphemeVocab,
    PAD_TOKEN,
    STATS_HEADER,
    build_vocab_and_index,
    load_segmentations,
    morpheme_stats,
    random_seg,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CHECK_FAILED = 4

_CONFIG_ERRORS = (
    ConfigError,
    SegmentationParseError,
    DuplicateWordError,
    WordLookupError,
    CheckpointError,
    ValueError,
)


class CheckFailed(TenbedError):
    """A gradient check or audit comparison did not pass."""


def _run(fn):
    try:
        fn()
    except CheckFailed as exc:
        click.echo(f"check failed: {exc}", err=True)
        sys.exit(EXIT_CHECK_FAILED)
    except _CONFIG_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(EXIT_IO)
    sys.exit(EXIT_OK)


def resolve_seed(*candidates, default=0) -> int:
    """First seed wins: TENBED_SEED env var, then explicit values, then default."""
    env = os.environ.get("TENBED_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"TENBED_SEED must be an integer, got {env!r}") from None
    for c in candidates:
        if c is not None:
            return int(c)
    return default


def parse_kv_config(path) -> dict[str, str]:
    """Minimal key=value config file: one pair per line, '#' comments."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_factor_list(text: str | None) -> tuple[int, ...] | None:
    if text is None or text == "":
        return None
    return tuple(int(x) for x in text.replace("x", ",").split(",") if x)


def _float_cell(x: float) -> str:
    return format(float(x), ".17g")


def layer_config_from_mapping(values: dict[str, str], seed: int) -> LayerConfig:
    try:
        kind = MethodKind(values["method"])
    except KeyError:
        raise ConfigError("config is missing 'method'") from None
    except ValueError:
        choices = ", ".join(k.value for k in MethodKind)
        raise ConfigError(f"unknown method {values['method']!r}; choose from {choices}") from None

    def get_int(key, default=None):
        if key in values:
            return int(values[key])
        return default

    return LayerConfig(
        kind,
        vocab_size=get_int("vocab_size", 100),
        embed_dim=get_int("embed_dim", 64),
        order=get_int("order", 3),
        rank=get_int("rank", 1),
        subdim=get_int("q"),
        vocab_factors=_parse_factor_list(values.get("vocab_factors")),
        dim_factors=_parse_factor_list(values.get("dim_factors")),
        morpheme_vocab_size=get_int("morpheme_vocab_size"),
        seed=seed,
    )


# --- morphology artifact files --------------------------------------------

def write_vocab_tsv(vocab: MorphemeVocab, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.tokens):
            fh.write(f"{tok}\t{i}\n")


def load_vocab_tsv(path) -> MorphemeVocab:
    tokens: list[tuple[int, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{line_no}: expected 'morpheme<TAB>id'")
            tokens.append((int(parts[1]), parts[0]))
    tokens.sort()
    ordered = [tok for _, tok in tokens]
    if not ordered or ordered[-1] != PAD_TOKEN:
        raise ConfigError(f"{path}: last id must be the pad sentinel {PAD_TOKEN!r}")
    if [i for i, _ in tokens] != list(range(len(tokens))):
        raise ConfigError(f"{path}: morpheme ids must be dense from 0")
    return MorphemeVocab(ordered[:-1])


def write_index_tsv(index: IndexMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(index.words, index.rows):
            fh.write(word + "\t" + " ".join(str(int(i)) for i in row) + "\n")


def load_index_tsv(path) -> IndexMatrix:
    words: list[str] = []
    rows: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{line_no}: expected 'word<TAB>ids'")
            words.append(parts[0])
            rows.append([int(x) for x in parts[1].split()])
    if not rows:
        raise ConfigError(f"{path}: empty index")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent row widths {sorted(widths)}")
    return IndexMatrix(np.array(rows, dtype=np.int64), words)


SIMILARITY_TASKS = ("similarity", "word_similarity")


def _morphology_for(
    config: LayerConfig, values: dict[str, str], vocab_dir: str | None, seed: int,
    synthetic_morphology: tuple[MorphemeVocab, IndexMatrix] | None = None,
):
    """Vocab/index for a morphological kind: from artifacts or synthesised.

    ``synthetic_morphology`` stands in for the default ``make_morphology``
    draw when the task's labels come from a morphology of their own.
    """
    if config.kind not in MORPHOLOGICAL_KINDS:
        return None, None, config
    if config.kind is MethodKind.WORD2KET_RSHARE:
        if config.morpheme_vocab_size is None:
            m = int(values.get("morphemes", 0))
            if m < 1:
                raise ConfigError("word2ket_rshare needs morpheme_vocab_size or morphemes=")
            config = replace(config, morpheme_vocab_size=m + 1)
        return None, None, config
    if vocab_dir is not None:
        vocab = load_vocab_tsv(Path(vocab_dir) / "morphemes.tsv")
        index = load_index_tsv(Path(vocab_dir) / "index.tsv")
        return vocab, index, replace(config, vocab_size=index.vocab_size, order=index.order)
    if synthetic_morphology is None:
        morphemes = int(values.get("morphemes", 0))
        if morphemes < 1:
            raise ConfigError(
                f"{config.kind.value} needs either --vocab-dir or a 'morphemes=' config entry"
            )
        synthetic_morphology = synthetic.make_morphology(
            config.vocab_size, morphemes, config.order, seed=seed
        )
    vocab, index = synthetic_morphology
    return vocab, index, config


@click.group()
@click.version_option(package_name="tenbed")
def main():
    """Compressed embedding layers: build vocabularies, audit, train, export."""


@main.command("build-vocab")
@click.argument("seg_file", type=click.Path())
@click.option("-n", "--order", "order", type=int, default=3, show_default=True,
              help="Number of morpheme slots per word.")
@click.option("-o", "--out-dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--use-random-seg", is_flag=True,
              help="Treat input as a word list and segment each word at two random gaps.")
@click.option("--seed", type=int, default=None, help="Seed for --use-random-seg.")
def cmd_build_vocab(seg_file, order, out_dir, use_random_seg, seed):
    """Build morpheme vocabulary, index table and statistics from SEG_FILE."""

    def body():
        seed_value = resolve_seed(seed)
        if use_random_seg:
            words = []
            with open(seg_file, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if line and not line.startswith("#"):
                        words.append(line.split("\t")[0])
            segs = [random_seg(w, seed_value) for w in words]
        else:
            segs = load_segmentations(seg_file)
        vocab, index = build_vocab_and_index(segs, order)

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_vocab_tsv(vocab, out / "morphemes.tsv")
        write_index_tsv(index, out / "index.tsv")
        caps = [None, 4, 3, 2, 1]
        if order not in caps:
            caps.append(order)
        with open(out / "stats.tsv", "w", encoding="utf-8") as fh:
            fh.write(STATS_HEADER + "\n")
            for row in morpheme_stats(segs, caps):
                fh.write(row.as_tsv() + "\n")

        manifest = RunManifest(
            command="build-vocab",
            config={"order": order, "use_random_seg": use_random_seg},
            seed=seed_value,
        )
        manifest.add_input(seg_file)
        manifest.write(out / "manifest.json")
        click.echo(
            f"wrote {vocab.size} morphemes (pad included), {index.vocab_size} words -> {out}",
            err=True,
        )

    _run(body)


@main.command("audit")
@click.option("--paper-tables", is_flag=True,
              help="Recompute the bundled reference configuration tables.")
@click.option("--method", type=click.Choice([k.value for k in MethodKind] + ["morphlstm"]))
@click.option("--vocab-size", type=int)
@click.option("--embed-dim", type=int)
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rank", type=int, default=1, show_default=True)
@click.option("--q", "subdim", type=int, default=None)
@click.option("--vocab-factors", default=None, help="Comma or x separated, e.g. 18,20,25.")
@click.option("--dim-factors", default=None, help="Comma or x separated, e.g. 8,8,8.")
@click.option("--morpheme-vocab-size", type=int, default=None)
def cmd_audit(paper_tables, method, vocab_size, embed_dim, order, rank, subdim,
              vocab_factors, dim_factors, morpheme_vocab_size):
    """Exact parameter counts and compression ratios."""

    def body():
        if paper_tables:
            _audit_reference_tables()
            return
        if method is None or vocab_size is None or embed_dim is None:
            raise ConfigError("need --method, --vocab-size and --embed-dim (or --paper-tables)")
        if method == "morphlstm":
            if morpheme_vocab_size is None:
                raise ConfigError("morphlstm needs --morpheme-vocab-size")
            row = audit_mod.count_params_morphlstm(vocab_size, embed_dim, morpheme_vocab_size)
        else:
            config = LayerConfig(
                MethodKind(method),
                vocab_size=vocab_size,
                embed_dim=embed_dim,
                order=order,
                rank=rank,
                subdim=subdim,
                vocab_factors=_parse_factor_list(vocab_factors),
                dim_factors=_parse_factor_list(dim_factors),
                morpheme_vocab_size=morpheme_vocab_size,
            )
            row = audit_mod.count_params(config, morpheme_vocab_size)
        click.echo(audit_mod.AUDIT_HEADER)
        click.echo(row.as_tsv())

    _run(body)


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
                    row.method,
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
@click.option("--method", required=True, type=click.Choice([k.value for k in MethodKind]))
@click.option("--vocab-size", type=int, default=12, show_default=True)
@click.option("--embed-dim", type=int, default=8, show_default=True)
@click.option("--order", type=int, default=3, show_default=True)
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--q", "subdim", type=int, default=2)
@click.option("--vocab-factors", default="2,3,4")
@click.option("--dim-factors", default="2,2,2")
@click.option("--morphemes", type=int, default=6, show_default=True,
              help="Synthetic morpheme pool size for morphological kinds.")
@click.option("--trials", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--epsilon", type=float, default=1e-5, show_default=True)
@click.option("--tolerance", type=float, default=1e-5, show_default=True)
def cmd_gradcheck(method, vocab_size, embed_dim, order, rank, subdim, vocab_factors,
                  dim_factors, morphemes, trials, seed, epsilon, tolerance):
    """Finite-difference check of the analytic gradients on random words."""

    def body():
        kind = MethodKind(method)
        seed_value = resolve_seed(seed)
        values = {"morphemes": str(morphemes)}
        config = LayerConfig(
            kind,
            vocab_size=vocab_size,
            embed_dim=embed_dim,
            order=order,
            rank=rank,
            subdim=subdim if kind in KET_KINDS else None,
            vocab_factors=_parse_factor_list(vocab_factors) if kind in FACTORED_KINDS else None,
            dim_factors=_parse_factor_list(dim_factors) if kind in FACTORED_KINDS else None,
            seed=seed_value,
        )
        vocab, index, config = _morphology_for(config, values, None, seed_value)
        layer = build(config, vocab=vocab, index=index)
        rng = np.random.default_rng(seed_value)
        click.echo("word_id\tentries_checked\tmax_rel_error\tstatus")
        worst = 0.0
        any_failed = False
        for _ in range(trials):
            word_id = int(rng.integers(0, config.vocab_size))
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

    _run(body)


def _build_layer_from_config_file(config_path, vocab_dir, seed_override):
    """The layer a config file describes, its values, seed and morpheme sets.

    The similarity task labels word pairs by the morphemes they share, so its
    per-word morpheme sets and a morphological layer's vocab and index come
    from one ``make_sharing_task`` draw; for other tasks the sets are None.
    """
    values = parse_kv_config(config_path)
    seed_value = resolve_seed(seed_override, values.get("seed"))
    config = layer_config_from_mapping(values, seed_value)
    sharing = morph_sets = None
    if values.get("task") in SIMILARITY_TASKS:
        if vocab_dir is not None:
            raise ConfigError(
                "the similarity task labels pairs from a synthetic morphology; "
                "it cannot train on --vocab-dir"
            )
        morphemes = int(values.get("morphemes", 0))
        if morphemes < 1:
            raise ConfigError("similarity task needs a 'morphemes=' config entry")
        vocab, index, morph_sets = synthetic.make_sharing_task(
            config.vocab_size, morphemes, config.order, seed=seed_value
        )
        sharing = (vocab, index)
    vocab, index, config = _morphology_for(config, values, vocab_dir, seed_value, sharing)
    layer = build(config, vocab=vocab, index=index)
    return layer, values, seed_value, morph_sets


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--vocab-dir", type=click.Path(), default=None,
              help="Directory produced by build-vocab (morphemes.tsv, index.tsv).")
@click.option("--seed", type=int, default=None)
def cmd_train(config_path, out_dir, vocab_dir, seed):
    """Fit a layer on a desk-scale task; write history, checkpoint, manifest."""

    def body():
        layer, values, seed_value, morph_sets = _build_layer_from_config_file(
            config_path, vocab_dir, seed
        )
        task_name = values.get("task", "reconstruct")
        epochs = int(values.get("epochs", 100))
        batch = int(values.get("batch", 32))
        opt = training.OptimizerState(
            kind=values.get("optimizer", "adam"), lr=float(values.get("lr", 0.01))
        )

        eval_accuracy = None
        if task_name in ("reconstruct", "reconstruct_table"):
            donor_seed = int(values.get("target_seed", seed_value + 1000))
            donor_cfg = replace(layer.config, seed=donor_seed)
            donor = build(donor_cfg, vocab=layer.vocab, index=layer.index)
            targets = np.stack([forward(donor, j) for j in range(layer.config.vocab_size)])
            task = training.TrainTask("reconstruct_table", targets=targets)
        elif task_name in SIMILARITY_TASKS:
            n_train = int(values.get("pairs_train", 1000))
            n_eval = int(values.get("pairs_eval", 400))
            pairs_train, pairs_eval = synthetic.make_sharing_pairs(
                morph_sets, n_train, n_eval, seed=seed_value + 1
            )
            task = training.TrainTask(
                "word_similarity", pairs=pairs_train, loss="cosine_contrastive"
            )
        else:
            raise ConfigError(f"unknown task {task_name!r}")

        history = training.train(layer, task, opt, epochs=epochs, batch_size=batch, seed=seed_value)
        if task_name in SIMILARITY_TASKS:
            eval_accuracy = training.eval_similarity(layer, pairs_eval)

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "history.csv", "w", encoding="utf-8") as fh:
            fh.write("epoch,loss\n")
            for epoch, loss in enumerate(history):
                fh.write(f"{epoch},{_float_cell(loss)}\n")
        checkpoint.save_layer(layer, out / "checkpoint.bin")
        manifest = RunManifest(
            command="train",
            config={**values, "resolved_seed": seed_value},
            seed=seed_value,
        )
        manifest.add_input(config_path)
        manifest.write(out / "manifest.json")
        summary = f"final loss {history[-1]:.6g} after {len(history)} epochs"
        if eval_accuracy is not None:
            summary += f"; eval accuracy {eval_accuracy:.4f}"
        click.echo(summary, err=True)

    _run(body)


@main.command("export")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--vocab-dir", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
def cmd_export(config_path, out_path, vocab_dir, seed):
    """Build a freshly initialised layer and write it as a checkpoint."""

    def body():
        layer, values, seed_value, _ = _build_layer_from_config_file(config_path, vocab_dir, seed)
        checkpoint.save_layer(layer, out_path)
        manifest = RunManifest(
            command="export",
            config={**values, "resolved_seed": seed_value},
            seed=seed_value,
        )
        manifest.add_input(config_path)
        manifest.write(str(out_path) + ".manifest.json")
        click.echo(f"wrote {layer.trainable_param_count()} parameters -> {out_path}", err=True)

    _run(body)


@main.command("eval")
@click.option("--checkpoint", "ckpt_path", required=True, type=click.Path())
@click.option("--words", default=None, help="Comma-separated word strings.")
@click.option("--word-ids", default=None, help="Comma-separated integer ids.")
@click.option("--all", "emit_all", is_flag=True, help="Emit every word in the table.")
def cmd_eval(ckpt_path, words, word_ids, emit_all):
    """Load a checkpoint and emit embeddings as TSV (word, v0..v{d-1})."""

    def body():
        layer = checkpoint.load_layer(ckpt_path)
        targets: list[tuple[str, int]] = []
        if emit_all:
            names = layer.index.words if layer.index is not None else None
            for j in range(layer.config.vocab_size):
                targets.append((names[j] if names else str(j), j))
        if word_ids:
            for tok in word_ids.split(","):
                targets.append((tok.strip(), int(tok)))
        if words:
            if layer.index is None:
                raise ConfigError("checkpoint has no word index; use --word-ids")
            for w in words.split(","):
                w = w.strip()
                targets.append((w, layer.index.row_of_word(w)))
        if not targets:
            raise ConfigError("nothing to do: pass --words, --word-ids or --all")
        for name, j in targets:
            vec = forward(layer, j)
            click.echo(name + "\t" + "\t".join(_float_cell(x) for x in vec))

    _run(body)


if __name__ == "__main__":
    main()

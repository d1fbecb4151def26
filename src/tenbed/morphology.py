"""Morpheme vocabularies, segmentation ingestion, and the word/morpheme index.

A segmentation file is UTF-8 TSV, one word per line:

    word<TAB>m1 m2 ... ml

Lines starting with ``#`` and blank lines are ignored.  Every word's morpheme
list is normalised to a fixed number of slots ``n``: short lists are padded
with a reserved sentinel, long lists keep their first ``n-1`` morphemes and
concatenate the tail into a single synthetic morpheme.  The per-word slot ids
form the index table used by the sharing-based embedding layers; ids follow
each morpheme's first appearance over all words' slots, which
``build_vocab_and_index`` finds in one pass.  A real slot spelled like the pad
sentinel is refused.

A vocab directory stores a vocabulary and its index as two UTF-8 TSV files:
``morphemes.tsv`` (``morpheme<TAB>id``, ids dense from 0, the pad last) and
``index.tsv`` (``word<TAB>id id ...``, one row of ``n`` ids per word).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DuplicateWordError, SegmentationParseError, WordLookupError

PAD_TOKEN = "<pad>"
VOCAB_FILE = "morphemes.tsv"
INDEX_FILE = "index.tsv"


@dataclass(frozen=True)
class Segmentation:
    word: str
    morphemes: tuple[str, ...]

    def __post_init__(self):
        if not self.word:
            raise ConfigError("word must be non-empty")
        if len(self.morphemes) == 0:
            raise ConfigError(f"word {self.word!r} has no morphemes")
        if not all(self.morphemes):
            raise ConfigError(f"word {self.word!r} has an empty morpheme")


class MorphemeVocab:
    """Bijective morpheme <-> id table with a reserved trailing pad id.

    Ids are dense in ``[0, size)``; real morphemes come first in
    first-appearance order and the pad sentinel is always the last id.
    """

    def __init__(self, real_morphemes: Sequence[str]):
        tokens = list(real_morphemes)
        if PAD_TOKEN in tokens:
            raise ConfigError(f"{PAD_TOKEN!r} is reserved and cannot be a real morpheme")
        if len(set(tokens)) != len(tokens):
            twice = next(m for m, count in Counter(tokens).items() if count > 1)
            raise ConfigError(f"duplicate morpheme {twice!r} in vocabulary input")
        tokens.append(PAD_TOKEN)
        self._tokens: tuple[str, ...] = tuple(tokens)

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def pad_id(self) -> int:
        return len(self._tokens) - 1

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @cached_property  # only ``id_of`` reads it: a checkpoint load does not build it
    def _id_of(self) -> dict[str, int]:
        return {m: i for i, m in enumerate(self._tokens)}

    def id_of(self, morpheme: str) -> int:
        try:
            return self._id_of[morpheme]
        except KeyError:
            raise WordLookupError(f"unknown morpheme {morpheme!r}") from None


class IndexMatrix:
    """Per-word morpheme ids: one row of ``n`` ids per word, pad-filled.

    ``words`` names the rows, one distinct word each.  ``None`` makes an index
    without names, such as word2ket_rshare's drawn one: it stores none, and
    calls row j ``w{j}`` only when ``words`` or ``row_of_word`` is first read.
    """

    def __init__(self, rows: np.ndarray, words: Sequence[str] | None):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ConfigError(f"rows must be 2-D, got shape {rows.shape}")
        rows.setflags(write=False)  # shared read-only across layers/threads
        self._rows = rows
        self.named = words is not None
        if words is None:
            return  # generated names are distinct by construction
        if rows.shape[0] != len(words):
            raise ConfigError("one word per row required")
        self.words = tuple(words)
        if len(set(self.words)) != len(self.words):  # an unhashable word raises TypeError
            twice = next(w for w, count in Counter(self.words).items() if count > 1)
            raise DuplicateWordError(f"duplicate word {twice!r} in index")

    @property
    def order(self) -> int:
        return self._rows.shape[1]

    @property
    def vocab_size(self) -> int:
        return self._rows.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @cached_property  # an index made with names holds them here from ``__init__``
    def words(self) -> tuple[str, ...]:
        return tuple(f"w{j}" for j in range(self.vocab_size))

    @cached_property  # only ``eval --words`` reads it: a checkpoint load does not build it
    def _row_of_word(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    def row_of_word(self, word: str) -> int:
        try:
            return self._row_of_word[word]
        except KeyError:
            raise WordLookupError(f"unknown word {word!r}") from None


def read_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the UTF-8 file ``path``; other bytes raise ``ConfigError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_segmentations(path) -> list[Segmentation]:
    """Parse a segmentation TSV file; order of lines is preserved."""
    segs: list[Segmentation] = []
    seen: set[str] = set()
    for line_no, raw in read_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise SegmentationParseError(
                f"expected 'word<TAB>morphemes', got {line!r}", line_no, str(path)
            )
        word, morph_field = parts[0].strip(), parts[1]
        morphemes = tuple(morph_field.split())
        if not word or not morphemes:
            raise SegmentationParseError(
                f"empty word or morpheme list in {line!r}", line_no, str(path)
            )
        if PAD_TOKEN in morphemes:
            raise SegmentationParseError(
                f"{PAD_TOKEN!r} is reserved and may not appear as a morpheme",
                line_no,
                str(path),
            )
        if word in seen:
            raise DuplicateWordError(f"duplicate word {word!r} at line {line_no}")
        seen.add(word)
        segs.append(Segmentation(word, morphemes))
    return segs


def write_vocab_dir(vocab: MorphemeVocab, index: IndexMatrix, out) -> None:
    """Write ``vocab`` and ``index`` as a vocab directory into existing ``out``."""
    with open(Path(out) / VOCAB_FILE, "w", encoding="utf-8") as fh:
        for i, tok in enumerate(vocab.tokens):
            fh.write(f"{tok}\t{i}\n")
    with open(Path(out) / INDEX_FILE, "w", encoding="utf-8") as fh:
        for word, row in zip(index.words, index.rows):
            fh.write(word + "\t" + " ".join(str(int(i)) for i in row) + "\n")


_INT64 = np.iinfo(np.int64)


def _parse_id(text: str) -> int:
    """An index id, which must fit the int64 index array."""
    value = int(text)
    if not _INT64.min <= value <= _INT64.max:
        raise ConfigError(f"id {value} is outside the int64 range")
    return value


def _read_pairs(path: Path, expected: str, parse) -> list[tuple[str, object]]:
    """The first field and ``parse`` of the second of every non-empty line of ``path``.

    A ``ConfigError`` from ``parse`` is reported with the file and line.
    """
    pairs = []
    for line_no, raw in read_lines(path):
        line = raw.rstrip("\n")
        if not line:
            continue
        try:  # ValueError: not two fields, or a second field parse rejects
            first, second = line.split("\t")
            pairs.append((first, parse(second)))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from None
        except ValueError:
            raise ConfigError(f"{path}:{line_no}: expected '{expected}'") from None
    return pairs


def load_vocab_dir(directory) -> tuple[MorphemeVocab, IndexMatrix]:
    """Read a vocab directory written by ``write_vocab_dir``.

    Malformed content raises ``ConfigError``; a missing file raises ``OSError``.
    """
    path = Path(directory) / VOCAB_FILE
    tokens = sorted((i, tok) for tok, i in _read_pairs(path, "morpheme<TAB>id", int))
    ordered = [tok for _, tok in tokens]
    if not ordered or ordered[-1] != PAD_TOKEN:
        raise ConfigError(f"{path}: last id must be the pad sentinel {PAD_TOKEN!r}")
    if [i for i, _ in tokens] != list(range(len(tokens))):
        raise ConfigError(f"{path}: morpheme ids must be dense from 0")
    try:
        vocab = MorphemeVocab(ordered[:-1])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    path = Path(directory) / INDEX_FILE
    pairs = _read_pairs(path, "word<TAB>ids", lambda ids: [_parse_id(x) for x in ids.split()])
    if not pairs:
        raise ConfigError(f"{path}: empty index")
    rows = [ids for _, ids in pairs]
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent row widths {sorted(widths)}")
    try:
        return vocab, IndexMatrix(np.array(rows, dtype=np.int64), [w for w, _ in pairs])
    except DuplicateWordError as exc:
        raise DuplicateWordError(f"{path}: {exc}") from None


def truncate_pad(morphemes: Sequence[str], n: int) -> list[str]:
    """Normalise a morpheme list to exactly ``n`` slots.

    Shorter lists get pad sentinels; longer ones keep the first ``n-1``
    morphemes and concatenate the remainder into one synthetic morpheme.
    """
    if n < 1:
        raise ConfigError(f"slot count must be >= 1, got {n}")
    if not morphemes:
        raise ConfigError("morpheme list must be non-empty")
    slots = _truncate_no_pad(morphemes, n)
    return slots + [PAD_TOKEN] * (n - len(slots))


def _truncate_no_pad(morphemes: Sequence[str], cap: int | None) -> list[str]:
    # truncation only; statistics use it directly because pads are not morphemes
    if cap is None or len(morphemes) <= cap:
        return list(morphemes)
    return list(morphemes[: cap - 1]) + ["".join(morphemes[cap - 1 :])]


def build_vocab_and_index(
    segs: Sequence[Segmentation], n: int
) -> tuple[MorphemeVocab, IndexMatrix]:
    """Assign morpheme ids in first-appearance order and encode every word.

    The vocabulary holds the post-truncation morpheme strings (concatenated
    tails included) plus the pad sentinel; its size therefore counts the pad.
    A real slot spelled like the pad sentinel raises ``ConfigError``.
    """
    if not segs:
        raise ConfigError("need at least one segmentation")
    if n < 1:
        raise ConfigError(f"slot count must be >= 1, got {n}")
    slots: list[str] = []
    for seg in segs:
        real = _truncate_no_pad(seg.morphemes, n)
        if PAD_TOKEN in real:
            raise ConfigError(
                f"word {seg.word!r}: {PAD_TOKEN!r} is reserved and cannot be a real morpheme"
            )
        slots += real
        slots += [PAD_TOKEN] * (n - len(real))
    ids = dict.fromkeys(slots)  # first-appearance order
    ids.pop(PAD_TOKEN, None)
    vocab = MorphemeVocab(list(ids))
    ids = dict(zip(ids, range(len(ids))))
    ids[PAD_TOKEN] = vocab.pad_id
    rows = np.fromiter(map(ids.__getitem__, slots), dtype=np.int64, count=len(slots))
    return vocab, IndexMatrix(rows.reshape(len(segs), n), [seg.word for seg in segs])


def random_seg(word: str, rng_seed: int) -> Segmentation:
    """Split a word into three pieces at two uniformly chosen internal gaps.

    Words of three or fewer characters are returned whole.  Gap positions are
    drawn without replacement from the ``len(word)-1`` internal gaps, with a
    per-word stream derived from ``rng_seed`` so a corpus-level seed still
    cuts different words differently.  Characters are unicode scalar values.
    """
    length = len(word)
    if length <= 3:
        return Segmentation(word, (word,))
    rng = random.Random(f"{rng_seed}\x1f{word}")
    g1, g2 = sorted(rng.sample(range(1, length), 2))
    return Segmentation(word, (word[:g1], word[g1:g2], word[g2:]))


@dataclass(frozen=True)
class StatsRow:
    label: str
    n1: int
    n2: int
    n3: int
    n4: int
    n_gt4: int
    vocab_size: int  # distinct real morphemes after truncation (no pad)

    def as_tsv(self) -> str:
        return "\t".join(
            str(x) for x in (self.label, self.n1, self.n2, self.n3, self.n4, self.n_gt4, self.vocab_size)
        )


STATS_HEADER = "segmentation\tN=1\tN=2\tN=3\tN=4\tN>4\t|M|"


def morpheme_stats(segs: Sequence[Segmentation], caps: Iterable[int | None]) -> list[StatsRow]:
    """Count words by post-truncation morpheme count for each cap.

    ``None`` means no cap.  The reported vocabulary size counts distinct
    morpheme strings only; pad slots are not morphemes.
    """
    if not segs:
        raise ConfigError("need at least one segmentation")
    out = []
    for cap in caps:
        if cap is not None and cap < 1:
            raise ConfigError(f"cap must be >= 1, got {cap}")
        buckets = [0, 0, 0, 0, 0]  # N=1..4, N>4
        distinct: set[str] = set()
        for seg in segs:
            truncated = _truncate_no_pad(seg.morphemes, cap)
            count = len(truncated)
            if count > 4:
                buckets[4] += 1
            else:
                buckets[count - 1] += 1
            distinct.update(truncated)
        label = "mor_inf" if cap is None else f"mor_{cap}"
        out.append(StatsRow(label, *buckets, len(distinct)))
    return out

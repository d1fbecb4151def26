"""Closed-form parameter counting and the published-configuration regression.

Counts are exact integers; compression ratios are exact rationals of the
uncompressed table size ``|V|*d`` over the method's total parameter count.
The bundled data file transcribes the reference configuration tables this
package reproduces; ``reproduce_paper_tables`` recomputes every row from its
configuration and flags any disagreement beyond rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import ConfigError
from .layers import FACTORED_KINDS, KET_KINDS, LayerConfig, MethodKind

# Tolerance for matching values published in millions at two (or three)
# decimal places: half of the coarsest printed unit.
PUBLISHED_TOLERANCE_M = 0.005


@dataclass(frozen=True)
class AuditRow:
    method: str
    summary: str
    trainable: int
    constant: int
    ratio: Fraction

    @property
    def total(self) -> int:
        return self.trainable + self.constant

    def as_tsv(self) -> str:
        return "\t".join(
            [
                self.method,
                self.summary,
                str(self.trainable),
                str(self.constant),
                str(self.total),
                _ratio_cell(self.ratio),
            ]
        )


def _ratio_cell(ratio: Fraction) -> str:
    """The ratio to two decimals, exactly where it is beyond a float's range."""
    if ratio < 2**1023:
        return f"{float(ratio):.2f}"
    whole, cents = divmod(round(ratio * 100), 100)
    return f"{whole}.{cents:02d}"


AUDIT_HEADER = "method\tconfig\ttrainable\tconstant\ttotal\tratio"


def _summary(config: LayerConfig, M: int | None) -> str:
    parts = [f"V={config.vocab_size}", f"d={config.embed_dim}"]
    if config.kind is not MethodKind.ORIGINAL:
        parts.append(f"r={config.rank}")
    if config.kind in KET_KINDS:
        parts.append(f"n={config.order}")
        parts.append(f"q={config.effective_subdim()}")
    if config.kind in FACTORED_KINDS:
        parts.append("dV=" + "x".join(str(v) for v in config.vocab_factors))
        parts.append("dd=" + "x".join(str(d) for d in config.dim_factors))
    if M is not None:
        parts.append(f"M={M}")
    return " ".join(parts)


def count_params(config: LayerConfig) -> AuditRow:
    """Exact trainable/constant parameter counts for one configuration.

    Morphological kinds need the config's ``morpheme_vocab_size``; ``build``
    sets it on a layer's config from the vocab it reads.  The per-word index
    of the sharing kinds is counted as constant (non-trainable) parameters.
    """
    kind = config.kind
    V, d, n, r = config.vocab_size, config.embed_dim, config.order, config.rank
    M = config.morpheme_vocab_size

    if kind is MethodKind.ORIGINAL:
        trainable, constant = V * d, 0
    elif kind is MethodKind.MATRIX_FACTOR:
        trainable, constant = r * (V + d), 0
    elif kind is MethodKind.WORD2KET:
        trainable, constant = r * n * V * config.effective_subdim(), 0
    elif kind is MethodKind.WORD2KETXS:
        trainable = r * sum(v * dk for v, dk in zip(config.vocab_factors, config.dim_factors))
        constant = 0
    elif kind is MethodKind.TENSOR_TRAIN:
        vf, df = config.vocab_factors, config.dim_factors
        trainable = vf[0] * df[0] * r + vf[-1] * df[-1] * r
        trainable += sum(vf[k] * df[k] * r * r for k in range(1, n - 1))
        constant = 0
    elif kind in (MethodKind.MORPHTE, MethodKind.WORD2KET_RSHARE):
        if M is None:
            raise ConfigError(f"{kind.value} audit requires the morpheme vocabulary size")
        trainable = M * config.effective_subdim() * r
        constant = V * n  # stored word->morpheme index
    else:  # morphsum
        if M is None:
            raise ConfigError("morphsum audit requires the morpheme vocabulary size")
        trainable, constant = (V + M) * d, 0

    ratio = Fraction(V * d, trainable + constant)
    return AuditRow(kind.value, _summary(config, M), trainable, constant, ratio)


def count_params_morphlstm(vocab_size: int, embed_dim: int, morpheme_vocab_size: int) -> AuditRow:
    """Morpheme embeddings fed through a recurrent composer: |M|d + 8d^2."""
    if min(vocab_size, embed_dim, morpheme_vocab_size) < 1:
        raise ConfigError("vocab_size, embed_dim and morpheme_vocab_size must be >= 1")
    trainable = morpheme_vocab_size * embed_dim + 8 * embed_dim * embed_dim
    ratio = Fraction(vocab_size * embed_dim, trainable)
    summary = f"V={vocab_size} d={embed_dim} M={morpheme_vocab_size}"
    return AuditRow("morphlstm", summary, trainable, 0, ratio)


def savings_ratio_vs_word2ket(vocab_size: int, morpheme_vocab_size: int, order: int) -> Fraction:
    """Trainable-count ratio of the private-vector scheme over morpheme sharing.

    At equal rank and subdim the private scheme stores ``r*n*|V|*q`` scalars
    against ``|M|*q*r``, so the ratio is ``n*|V|/|M|``.
    """
    if vocab_size < 1 or morpheme_vocab_size < 1 or order < 1:
        raise ValueError("all arguments must be positive")
    return Fraction(order * vocab_size, morpheme_vocab_size)


@dataclass(frozen=True)
class ReferenceRow:
    """One transcribed row of the published configuration tables."""

    group: str
    dataset: str
    level: str
    config: LayerConfig
    published_millions: float
    expected_millions: float
    note: str

    @property
    def has_published_discrepancy(self) -> bool:
        return self.published_millions != self.expected_millions


@dataclass(frozen=True)
class ReferenceResult:
    row: ReferenceRow
    audit: AuditRow

    @property
    def computed_millions(self) -> float:
        return self.audit.total / 1e6

    @property
    def matches(self) -> bool:
        return abs(self.computed_millions - self.row.expected_millions) <= (
            PUBLISHED_TOLERANCE_M + 1e-12
        )


def _parse_factors(cell: str) -> tuple[int, ...] | None:
    if cell == "-":
        return None
    return tuple(int(x) for x in cell.split("x"))


def _parse_int(cell: str) -> int | None:
    return None if cell == "-" else int(cell)


def load_reference_rows() -> list[ReferenceRow]:
    """Parse the bundled reference configuration table."""
    text = resources.files("tenbed.data").joinpath("reference_configs.tsv").read_text("utf-8")
    rows: list[ReferenceRow] = []
    header: list[str] | None = None
    for raw in text.splitlines():
        line = raw.strip("\n")
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
            continue
        rec = dict(zip(header, cells))
        config = LayerConfig(
            MethodKind(rec["method"]),
            vocab_size=int(rec["vocab_size"]),
            embed_dim=int(rec["embed_dim"]),
            order=int(rec["order"]) if rec["order"] != "-" else 1,
            rank=int(rec["rank"]) if rec["rank"] != "-" else 1,
            subdim=_parse_int(rec["subdim"]),
            vocab_factors=_parse_factors(rec["vocab_factors"]),
            dim_factors=_parse_factors(rec["dim_factors"]),
            morpheme_vocab_size=_parse_int(rec["morpheme_vocab_size"]),
        )
        rows.append(
            ReferenceRow(
                group=rec["group"],
                dataset=rec["dataset"],
                level=rec["level"],
                config=config,
                published_millions=float(rec["published_memb"]),
                expected_millions=float(rec["expected_memb"]),
                note=rec["note"],
            )
        )
    return rows


def reproduce_paper_tables() -> tuple[list[ReferenceResult], list[ReferenceResult]]:
    """Recompute every transcribed configuration row.

    Returns all results plus the sublist whose computed count disagrees with
    the expected value beyond the published rounding tolerance.
    """
    results = [ReferenceResult(row, count_params(row.config)) for row in load_reference_rows()]
    mismatches = [res for res in results if not res.matches]
    return results, mismatches

"""Tensor-product compressed word embeddings with morpheme sharing."""

from .audit import (
    AuditRow,
    count_params,
    count_params_morphlstm,
    reproduce_paper_tables,
    savings_ratio_vs_word2ket,
)
from .checkpoint import load_layer, save_layer
from .errors import (
    CheckpointError,
    ConfigError,
    DuplicateWordError,
    SegmentationParseError,
    TenbedError,
    TrainingDivergedError,
    WordLookupError,
)
from .gradients import GradSlot, backward, backward_batch, finite_diff_check
from .layers import (
    EmbeddingLayer,
    LayerConfig,
    MethodKind,
    build,
    build_rshare_index,
    forward,
    forward_batch,
    gather_batch,
)
from .morphology import (
    PAD_TOKEN,
    IndexMatrix,
    MorphemeVocab,
    Segmentation,
    build_vocab_and_index,
    load_segmentations,
    morpheme_stats,
    random_seg,
    truncate_pad,
)
from .tensor_ops import (
    cumulative_tensor_product,
    entangled_sum,
    tensor_product,
    truncate_to,
)
from .training import OptimizerState, TrainTask, eval_similarity, train

__version__ = "0.1.0"

__all__ = [
    "AuditRow",
    "CheckpointError",
    "ConfigError",
    "DuplicateWordError",
    "EmbeddingLayer",
    "GradSlot",
    "IndexMatrix",
    "LayerConfig",
    "MethodKind",
    "MorphemeVocab",
    "OptimizerState",
    "PAD_TOKEN",
    "Segmentation",
    "SegmentationParseError",
    "TenbedError",
    "TrainTask",
    "TrainingDivergedError",
    "WordLookupError",
    "backward",
    "backward_batch",
    "build",
    "build_rshare_index",
    "build_vocab_and_index",
    "count_params",
    "count_params_morphlstm",
    "cumulative_tensor_product",
    "entangled_sum",
    "eval_similarity",
    "finite_diff_check",
    "forward",
    "forward_batch",
    "gather_batch",
    "load_layer",
    "load_segmentations",
    "morpheme_stats",
    "random_seg",
    "reproduce_paper_tables",
    "save_layer",
    "savings_ratio_vs_word2ket",
    "tensor_product",
    "train",
    "truncate_pad",
    "truncate_to",
]

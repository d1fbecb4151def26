"""Tensor-product compressed word embeddings with morpheme sharing."""

from .audit import (AuditRow, count_params, count_params_morphlstm, reproduce_paper_tables,
                    savings_ratio_vs_word2ket)
from .checkpoint import load_layer, save_layer
from .errors import (CheckpointError, ConfigError, DuplicateWordError, SegmentationParseError,
                     TenbedError, TrainingDivergedError, WordLookupError)
from .gradients import backward_batch, finite_diff_check
from .layers import (EmbeddingLayer, LayerConfig, MethodKind, build, build_rshare_index, forward,
                     forward_batch, gather_batch)
from .morphology import (PAD_TOKEN, IndexMatrix, MorphemeVocab, Segmentation,
                         build_vocab_and_index, load_segmentations, morpheme_stats, random_seg,
                         truncate_pad)
from .training import OptimizerState, TrainTask, eval_similarity, train

__version__ = "0.1.0"

__all__ = [
    "AuditRow", "CheckpointError", "ConfigError", "DuplicateWordError", "EmbeddingLayer",
    "IndexMatrix", "LayerConfig", "MethodKind", "MorphemeVocab", "OptimizerState", "PAD_TOKEN",
    "Segmentation", "SegmentationParseError", "TenbedError", "TrainTask",
    "TrainingDivergedError", "WordLookupError", "backward_batch", "build",
    "build_rshare_index", "build_vocab_and_index", "count_params", "count_params_morphlstm",
    "eval_similarity", "finite_diff_check", "forward", "forward_batch", "gather_batch",
    "load_layer", "load_segmentations", "morpheme_stats", "random_seg", "reproduce_paper_tables",
    "save_layer", "savings_ratio_vs_word2ket", "train", "truncate_pad",
]

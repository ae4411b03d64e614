"""Cell-feature graph neural networks for multimodal single-cell data:
modality prediction, modality matching, joint embedding, and the full
evaluation-metric suite, all on plain numpy."""

from . import assignment, autodiff, convnet, data, graph, linalg, metrics, tasks
from .autodiff import ParamStore, Tape, adam_step, lr_decay
from .convnet import ConvConfig
from .graph import CellFeatureGraph, EdgeScaling, GeneSetCollection, \
    augment_with_pathways, build_bipartite
from .linalg import SparseMatrix, spmm, truncated_svd
from .tasks import (EmbedConfig, MatcherConfig, MatchOutput, TrainProtocol,
                    train_joint_embedding, train_matcher, train_prediction)

__version__ = "0.1.0"

__all__ = [
    "assignment", "autodiff", "convnet", "data", "graph", "linalg",
    "metrics", "tasks",
    "ParamStore", "Tape", "adam_step", "lr_decay", "ConvConfig",
    "CellFeatureGraph", "EdgeScaling", "GeneSetCollection",
    "augment_with_pathways", "build_bipartite",
    "SparseMatrix", "spmm", "truncated_svd",
    "EmbedConfig", "MatcherConfig", "MatchOutput", "TrainProtocol",
    "train_joint_embedding", "train_matcher", "train_prediction",
]

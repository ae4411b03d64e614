"""Modality prediction: coupled GNN with a linear head and RMSE loss."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tape, glorot_uniform
from ..convnet import ConvConfig, forward, init_params
from ..graph import CellFeatureGraph, GeneSetCollection, augment_with_pathways
from ..linalg import SparseMatrix, truncated_svd
from .common import EpochRecord, TrainProtocol, run_training, split_cells

PREDICTION_LR = 1e-3


def rmse_loss(pred, target) -> float:
    """Root mean squared error over all entries."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    return float(np.sqrt(((p - t) ** 2).mean()))


def _predict(store: ParamStore, g: CellFeatureGraph,
             conv: ConvConfig) -> np.ndarray:
    """Eval-mode forward pass through the head, for every cell."""
    tape = Tape(store, train=False)
    h_hat = forward(tape, g, conv)
    return tape.value(tape.affine(h_hat, tape.param("head.w"),
                                  tape.param("head.b")))


@dataclass
class PredictionModel:
    store: ParamStore
    conv: ConvConfig
    graph: CellFeatureGraph
    validation_rmse: float
    best_epoch: int
    history: list[EpochRecord] = field(default_factory=list)
    train_idx: np.ndarray | None = None
    val_idx: np.ndarray | None = None

    def predict(self) -> np.ndarray:
        """Eval-mode forward pass through the trained head."""
        return _predict(self.store, self.graph, self.conv)


def train_prediction(g: CellFeatureGraph, target, conv: ConvConfig,
                     protocol: TrainProtocol,
                     gene_sets: GeneSetCollection | None = None
                     ) -> PredictionModel:
    """Train the prediction head; returns the best-validation model.

    Cells are split per the protocol; the loss is full-batch RMSE on the
    training rows. Training is transductive: every cell's source features
    stay in the graph, and training and validation run on the same graph.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape[0] != g.n_cells:
        raise ValueError("target rows must match the cell count")
    if gene_sets is not None:
        g = augment_with_pathways(g, gene_sets)
    store = ParamStore()
    init_params(g, conv, store, seed=protocol.seed)
    rng = np.random.default_rng(protocol.seed + 1)
    store.register("head.w", glorot_uniform(rng, conv.hidden_dim,
                                            target.shape[1]))
    store.register("head.b", np.zeros((1, target.shape[1])))

    train_idx, val_idx = split_cells(g.n_cells, protocol.split_fraction,
                                     protocol.seed)
    target_train = target[train_idx]

    def train_epoch(tape: Tape):
        h_hat = forward(tape, g, conv)
        pred = tape.affine(h_hat, tape.param("head.w"), tape.param("head.b"))
        return tape.rmse(tape.take(pred, train_idx), target_train)

    def validate() -> float:
        pred = _predict(store, g, conv)
        return rmse_loss(pred[val_idx], target[val_idx])

    best_val, best_epoch, history = run_training(
        store, train_epoch, validate, protocol, PREDICTION_LR
    )
    return PredictionModel(store, conv, g, best_val, best_epoch, history,
                           train_idx, val_idx)


def svd_linear_baseline(m_source: SparseMatrix, target, train_idx, val_idx,
                        rank: int, seed: int) -> float:
    """Truncated-SVD coordinates plus least squares; validation RMSE."""
    target = np.asarray(target, dtype=np.float64)
    rank = min(rank, min(m_source.shape) - 1)
    u, s = truncated_svd(m_source, rank, seed)
    coords = u * s
    design = np.hstack([coords, np.ones((coords.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design[train_idx], target[train_idx],
                               rcond=None)
    return rmse_loss(design[val_idx] @ coef, target[val_idx])


def mean_predictor_rmse(target, train_idx, val_idx) -> float:
    """RMSE of predicting each target column's training mean."""
    target = np.asarray(target, dtype=np.float64)
    mean = target[train_idx].mean(axis=0, keepdims=True)
    return rmse_loss(np.repeat(mean, len(val_idx), axis=0), target[val_idx])

"""Joint embedding: LSI-preprocessed concatenated modalities through the
decoupled network, trained with reconstruction + cell-type + norm losses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tape, Var, glorot_uniform
from ..convnet import ConvConfig, decoupled_forward, decoupled_propagate, \
    init_decoupled_params
from ..linalg import SparseMatrix, lsi_embedding, truncated_svd
from .common import EpochRecord, TrainProtocol, run_training, split_cells

EMBED_LR = 1e-2


def register_embed_params(store: ParamStore, d: int, target_dim: int,
                          seed: int):
    """The two-layer reconstruction perceptron f from the representation
    back to the LSI coordinates."""
    rng = np.random.default_rng(seed)
    store.register("je.w1", glorot_uniform(rng, d, d))
    store.register("je.b1", np.zeros((1, d)))
    store.register("je.w2", glorot_uniform(rng, d, target_dim))
    store.register("je.b2", np.zeros((1, target_dim)))


def joint_embedding_loss(tape: Tape, h: Var, x_lsi, cell_types, n_types: int,
                         beta: float):
    """(total, recon, celltype, regular) loss handles.

    recon is the MSE of the two-layer perceptron against the LSI input;
    celltype is softmax cross entropy of the first n_types columns over
    labeled cells (label -1 means unlabeled); regular is beta times the
    mean Euclidean norm of the remaining columns.
    """
    d = tape.value(h).shape[1]
    if not 0 < n_types < d:
        raise ValueError("need 0 < n_types < hidden dim")
    labels = np.asarray(cell_types, dtype=np.int64)
    if labels.max(initial=-1) >= n_types:
        raise ValueError("label index out of range")
    hidden = tape.affine(h, tape.param("je.w1"), tape.param("je.b1"),
                         relu=True)
    recon = tape.mse(tape.affine(hidden, tape.param("je.w2"),
                                 tape.param("je.b2")),
                     np.asarray(x_lsi, dtype=np.float64))
    logits = tape.take(h, np.arange(n_types), axis=1)
    celltype = tape.cross_entropy_rows(logits, np.maximum(labels, 0),
                                       mask=labels >= 0)
    rest = tape.take(h, np.arange(n_types, d), axis=1)
    regular = tape.scalar_mix([tape.l2_penalty(rest)], np.array([beta]))
    total = tape.add(tape.add(recon, celltype), regular)
    return total, recon, celltype, regular


@dataclass
class EmbedConfig:
    lsi_rank: int = 32
    beta: float = 0.01


@dataclass
class EmbedModel:
    store: ParamStore
    conv: ConvConfig
    states: list[np.ndarray]
    n_types: int
    validation_loss: float
    best_epoch: int
    history: list[EpochRecord] = field(default_factory=list)

    def embed(self) -> np.ndarray:
        """Final per-cell representation; its first n_types columns are the
        supervised cell-type logits."""
        tape = Tape(self.store, train=False)
        return tape.value(decoupled_forward(tape, self.states, self.conv))


def train_joint_embedding(m1: SparseMatrix, m2: SparseMatrix, cell_types,
                          conv: ConvConfig, protocol: TrainProtocol,
                          cfg: EmbedConfig | None = None) -> EmbedModel:
    """LSI both modalities, concatenate, propagate, train the decoupled head.

    cell_types uses -1 for unlabeled cells; the supervised dimension count
    is the number of distinct labels present.
    """
    if m1.n_rows != m2.n_rows:
        raise ValueError("modalities must be row-aligned")
    cfg = cfg or EmbedConfig()
    labels = np.asarray(cell_types, dtype=np.int64)
    labeled = labels[labels >= 0]
    if labeled.size == 0:
        raise ValueError("joint embedding needs at least one labeled cell")
    n_types = int(labeled.max()) + 1
    if n_types >= conv.hidden_dim:
        raise ValueError("hidden_dim must exceed the number of cell types")
    rank = min(cfg.lsi_rank, min(m1.shape) - 1, min(m2.shape) - 1)
    x = np.hstack([
        lsi_embedding(m1, rank, protocol.seed),
        lsi_embedding(m2, rank, protocol.seed + 1),
    ])
    states = decoupled_propagate(x, conv.n_layers, conv.aggregation_norm)

    store = ParamStore()
    init_decoupled_params(x.shape[1], conv, store, protocol.seed)
    register_embed_params(store, conv.hidden_dim, x.shape[1],
                          protocol.seed + 1)

    n = m1.n_rows
    train_idx, val_idx = split_cells(n, protocol.split_fraction, protocol.seed)

    def build_loss(tape: Tape, h, rows):
        total, _, _, _ = joint_embedding_loss(
            tape, h, x[rows], labels[rows], n_types, cfg.beta
        )
        return total

    def train_epoch(tape: Tape):
        # the MLP runs on all n rows before the take: its dropout draws
        # one mask over every row, so gathering first would change them
        h_all = decoupled_forward(tape, states, conv)
        return build_loss(tape, tape.take(h_all, train_idx), train_idx)

    # the MLP is row-wise and eval mode draws nothing, so validation
    # gathers its rows before it
    val_states = [s[val_idx] for s in states]

    def validate() -> float:
        tape = Tape(store, train=False)
        h = decoupled_forward(tape, val_states, conv)
        return float(np.asarray(tape.value(build_loss(tape, h, val_idx))))

    best_val, best_epoch, history = run_training(
        store, train_epoch, validate, protocol, EMBED_LR
    )
    return EmbedModel(store, conv, states, n_types, best_val, best_epoch,
                      history)


def pca_concat_baseline(m1: SparseMatrix, m2: SparseMatrix, rank: int,
                        seed: int) -> np.ndarray:
    """Column-centered truncated SVD per modality, concatenated."""
    parts = []
    for offset, m in enumerate((m1, m2)):
        dense = m.to_dense()
        centered = dense - dense.mean(axis=0, keepdims=True)
        r = min(rank, min(centered.shape) - 1)
        u, s = truncated_svd(SparseMatrix.from_dense(centered), r,
                             seed + offset)
        parts.append(u * s)
    return np.hstack(parts)

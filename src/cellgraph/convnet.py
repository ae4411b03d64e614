"""Cell-feature graph convolution: coupled layers, decoupled propagation,
and the learned layer readout.

Coupled mode records everything on a Tape (messages in both directions,
residual updates, and the pathway channel whenever the graph has pathway
edges). Decoupled mode precomputes parameter-free propagation once and
trains only a shared 2-layer MLP plus the readout weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamStore, Tape, Var, glorot_uniform
from .graph import CellFeatureGraph, EdgeScaling, build_bipartite
from .linalg import SparseMatrix, spmm, standardize_rows

TASK_LAYER_COUNTS = {"predict": 4, "match": 3, "embed": 2}
# features start from a one-hot code up to this count, and from a learned
# table beyond it
ONE_HOT_MAX_FEATURES = 2000


@dataclass
class ConvConfig:
    """Architecture knobs shared by the three task heads."""

    n_layers: int = 2
    hidden_dim: int = 48
    residual_mode: str = "initial"  # "initial" or "skip"
    aggregation_norm: EdgeScaling = EdgeScaling.POST_NORM
    alpha: float | str = 0.5  # in [0, 1], or "learnable"
    dropout_rate: float = 0.2
    n_groups: int = 1

    def validate(self):
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.residual_mode not in ("initial", "skip"):
            raise ValueError("residual_mode must be 'initial' or 'skip', "
                             f"got {self.residual_mode!r}")
        if self.alpha != "learnable" and not 0.0 <= float(self.alpha) <= 1.0:
            raise ValueError("alpha must be in [0, 1] or 'learnable'")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.hidden_dim % self.n_groups:
            raise ValueError("n_groups must divide hidden_dim")


def init_params(g: CellFeatureGraph, cfg: ConvConfig, store: ParamStore,
                seed: int):
    """Register the parameters the coupled network's forward pass reads.
    Only the features have an input; beyond ONE_HOT_MAX_FEATURES features,
    "feature_table" comes first, drawn from its own generator uniform in
    [-1/sqrt(d), 1/sqrt(d)]. The last layer computes no feature update, so
    it holds the vu channel alone, and a learnable "alpha" exists only when
    some layer mixes the pathway channel in, which needs two layers."""
    cfg.validate()
    d = cfg.hidden_dim
    feat_fan_in = g.n_features
    if g.n_features > ONE_HOT_MAX_FEATURES:
        bound = 1.0 / np.sqrt(d)
        store.register("feature_table", np.random.default_rng(seed).uniform(
            -bound, bound, size=(g.n_features, d)))
        feat_fan_in = d
    rng = np.random.default_rng(seed)
    store.register("in.feat.w", glorot_uniform(rng, feat_fan_in, d))
    store.register("in.feat.b", np.zeros((1, d)))
    for layer in range(1, cfg.n_layers + 1):
        channels = (["vu"] if layer == cfg.n_layers else
                    ["uv", "vu"] + (["vv"] if g.has_pathways else []))
        for ch in channels:
            store.register(f"l{layer}.{ch}.w", glorot_uniform(rng, d, d))
            store.register(f"l{layer}.{ch}.b", np.zeros((1, d)))
            if cfg.aggregation_norm is EdgeScaling.POST_NORM:
                store.register(f"l{layer}.{ch}.gn.g", np.ones((1, d)))
                store.register(f"l{layer}.{ch}.gn.b", np.zeros((1, d)))
    if cfg.n_layers > 0:
        store.register("readout.w", np.full(cfg.n_layers, 1.0 / cfg.n_layers))
    if g.has_pathways and cfg.alpha == "learnable" and cfg.n_layers > 1:
        store.register("alpha", np.array([[0.5]]))


def init_decoupled_params(n_input_features: int, cfg: ConvConfig,
                          store: ParamStore, seed: int, prefix: str = ""):
    """Register the shared MLP and readout weights for decoupled mode."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    d = cfg.hidden_dim
    p = prefix
    store.register(p + "dec.w1", glorot_uniform(rng, n_input_features, d))
    store.register(p + "dec.b1", np.zeros((1, d)))
    store.register(p + "dec.w2", glorot_uniform(rng, d, d))
    store.register(p + "dec.b2", np.zeros((1, d)))
    n_states = cfg.n_layers + 1  # raw input plus one state per round trip
    store.register(p + "readout.w", np.full(n_states, 1.0 / n_states))


def input_transform(tape: Tape, g: CellFeatureGraph):
    """The starting states (cells, features). Only the features have an
    input: H = relu(X W + b) with X the one-hot code, where X W is W
    itself, or beyond ONE_HOT_MAX_FEATURES the learned feature table. Every
    cell starts at zero, a constant that takes no gradient."""
    if g.n_features <= ONE_HOT_MAX_FEATURES:
        feat = tape.relu(tape.add(tape.param("in.feat.w"),
                                  tape.param("in.feat.b")))
    else:
        feat = tape.affine(tape.param("feature_table"),
                           tape.param("in.feat.w"), tape.param("in.feat.b"),
                           relu=True)
    return tape.constant(np.zeros((g.n_cells, feat.value.shape[1]))), feat


def _message(tape: Tape, operator, transpose, h_source: Var, layer: int,
             channel: str, cfg: ConvConfig) -> Var:
    """sigma(b + aggregated neighbors @ W), group-normalized in POST_NORM;
    transpose is the operator's, which the backward pass multiplies by."""
    p = f"l{layer}.{channel}"
    agg = tape.spmm_const(operator, h_source, transpose)
    msg = tape.affine(agg, tape.param(p + ".w"), tape.param(p + ".b"),
                      relu=True)
    if cfg.aggregation_norm is EdgeScaling.POST_NORM:
        msg = tape.group_norm(msg, tape.param(p + ".gn.g"),
                              tape.param(p + ".gn.b"), n_groups=cfg.n_groups)
    return msg


def conv_layer(tape: Tape, operators, h_cell: Var, h_feat: Var, layer: int,
               cfg: ConvConfig, h0_feat: Var, last: bool = False):
    """One coupled layer: bidirectional messages plus residual updates.

    operators is the (cells_from_features, features_from_cells,
    features_from_features) triple from CellFeatureGraph.operators(mode);
    the first two are each other's transposes and the third is symmetric.
    The pathway channel runs when the third exists. The cells start at
    zero, so their initial residual adds nothing. The last layer records
    the cell side only, since nothing reads its feature update, and
    returns None in its place.
    """
    cells_from_features, features_from_cells, features_from_features = operators
    skip = cfg.residual_mode == "skip"
    # uv before the cell update and vv after vu, so that every state's
    # gradient sums its parts in the same order whether or not last
    m_uv = (None if last else
            _message(tape, features_from_cells, cells_from_features, h_cell,
                     layer, "uv", cfg))
    m_vu = _message(tape, cells_from_features, features_from_cells, h_feat,
                    layer, "vu", cfg)
    new_cell = tape.dropout(tape.add(h_cell, m_vu) if skip else m_vu,
                            cfg.dropout_rate)
    if last:
        return new_cell, None
    if features_from_features is not None:
        m_vv = _message(tape, features_from_features, features_from_features,
                        h_feat, layer, "vv", cfg)
        if cfg.alpha == "learnable":
            m_uv = tape.scalar_mix([m_vv, m_uv], tape.param("alpha"),
                                   tied=True)
        else:
            a = float(cfg.alpha)
            m_uv = tape.scalar_mix([m_vv, m_uv], np.array([a, 1.0 - a]))
    new_feat = tape.dropout(tape.add(h_feat if skip else h0_feat, m_uv),
                            cfg.dropout_rate)
    return new_cell, new_feat


def readout(tape: Tape, cell_states: list[Var]) -> Var:
    """Learned weighted sum of per-layer cell state handles (Eq. 13-style)."""
    if not cell_states:
        raise ValueError("readout needs at least one cell state")
    return tape.scalar_mix(cell_states, tape.param("readout.w"))


def decoupled_propagate(x_cell: np.ndarray, n_steps: int,
                        mode: EdgeScaling) -> list[np.ndarray]:
    """[x, state_1, ..., state_n]: x and one state per round trip over the
    graph of x itself, whose nonzero entries are its edges.

    Cell states go to the feature side through the transposed operator and
    back, with edges scaled by mode. POST_NORM standardizes each hop's
    aggregation result in place of edge normalization. Parameter-free, so
    it is precomputed once per training run.
    """
    x = np.asarray(x_cell, dtype=np.float64)
    cells_from_features, features_from_cells, _ = build_bipartite(
        SparseMatrix.from_dense(x)).operators(mode)
    post = mode is EdgeScaling.POST_NORM
    states = [x]
    for _ in range(n_steps):
        feat = spmm(features_from_cells, states[-1])
        if post:
            feat = standardize_rows(feat)
        current = spmm(cells_from_features, feat)
        if post:
            current = standardize_rows(current)
        states.append(current)
    return states


def decoupled_forward(tape: Tape, states: list[np.ndarray], cfg: ConvConfig,
                      prefix: str = "") -> Var:
    """Shared 2-layer MLP over each propagated state, then the readout mix.

    states is decoupled_propagate's list (or its rows), raw input first.
    """
    p = prefix
    transformed = []
    for s in states:
        hidden = tape.dropout(
            tape.affine(tape.constant(s), tape.param(p + "dec.w1"),
                        tape.param(p + "dec.b1"), relu=True),
            cfg.dropout_rate)
        transformed.append(tape.affine(hidden, tape.param(p + "dec.w2"),
                                       tape.param(p + "dec.b2")))
    return tape.scalar_mix(transformed, tape.param(p + "readout.w"))


def forward(tape: Tape, g: CellFeatureGraph, cfg: ConvConfig) -> Var:
    """Coupled cell representation H-hat: the readout of every layer's
    cell state, with edges scaled by cfg.aggregation_norm."""
    operators = g.operators(cfg.aggregation_norm)
    h_cell, h0_feat = input_transform(tape, g)
    h_feat = tape.dropout(h0_feat, cfg.dropout_rate)
    cell_states = []
    for layer in range(1, cfg.n_layers + 1):
        h_cell, h_feat = conv_layer(tape, operators, h_cell, h_feat, layer,
                                    cfg, h0_feat, last=layer == cfg.n_layers)
        cell_states.append(h_cell)
    return readout(tape, cell_states)

"""Finite-difference verification of every differentiable op, of the full
coupled network on a toy graph, and of the matching loss with its learned
logit scale."""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore, Tape, finite_difference_check, glorot_uniform
from .convnet import ConvConfig, forward, init_params
from .graph import CellFeatureGraph, EdgeScaling, build_bipartite
from .linalg import SparseMatrix
from .tasks.matching import (matching_losses, register_aux_params,
                             register_logit_scale)


def _away_from_zero(rng, shape, low=0.3, high=1.2):
    """Values bounded away from 0 so ReLU/norm kinks stay off the probe path."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _op_checks(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    target = rng.standard_normal((n, d))
    sparse = SparseMatrix.from_dense(
        rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
    )
    labels = rng.integers(0, d, size=n)
    mask = rng.random(n) < 0.7
    if not mask.any():
        mask[0] = True
    results = {}

    def check(name, builder, init):
        store = ParamStore()
        for pname, value in init.items():
            store.register(pname, value)
        results[name] = max(results.get(name, 0.0),
                            finite_difference_check(builder, store))

    check("matmul",
          lambda t: t.mse(t.matmul(t.param("a"), t.param("b")), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((d, d))})
    check("matmul_transpose",
          lambda t: t.mse(t.matmul(t.param("a"), t.param("b"),
                                   transpose_b=True), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((d, d))})
    sparse_t = sparse.transpose()
    check("spmm_const",
          lambda t: t.mse(t.spmm_const(sparse, t.param("x"), sparse_t),
                          target),
          {"x": rng.standard_normal((n, d))})
    check("add",
          lambda t: t.mse(t.add(t.param("a"), t.param("b")), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((n, d))})
    check("add_bias",
          lambda t: t.mse(t.add(t.param("a"), t.param("b")), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((1, d))})
    check("relu",
          lambda t: t.mse(t.relu(t.param("x")), target),
          {"x": _away_from_zero(rng, (n, d))})
    gn_target = rng.standard_normal((n, 6))  # group size 3, never degenerate
    check("group_norm",
          lambda t: t.mse(t.group_norm(t.param("x"), t.param("g"),
                                       t.param("b"), n_groups=2), gn_target),
          {"x": rng.standard_normal((n, 6)),
           "g": rng.uniform(0.5, 1.5, (1, 6)),
           "b": rng.standard_normal((1, 6))})
    check("l2_normalize_rows",
          lambda t: t.mse(t.l2_normalize_rows(t.param("x")), target),
          {"x": _away_from_zero(rng, (n, d))})
    check("dropout",
          lambda t: t.mse(t.dropout(t.param("x"), 0.3), target),
          {"x": rng.standard_normal((n, d))})
    check("scalar_mix",
          lambda t: t.mse(t.scalar_mix([t.param("a"), t.param("b")],
                                       t.param("w")), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((n, d)),
           "w": rng.uniform(0.2, 0.8, 2)})
    check("scalar_mix_tied",
          lambda t: t.mse(t.scalar_mix([t.param("a"), t.param("b")],
                                       t.param("w"), tied=True), target),
          {"a": rng.standard_normal((n, d)), "b": rng.standard_normal((n, d)),
           "w": np.array([0.4])})
    check("exp_scale",
          lambda t: t.mse(t.exp_scale(t.param("x"), t.param("s")), target),
          {"x": rng.standard_normal((n, d)), "s": rng.uniform(-1, 1, (1, 1))})
    # a permuted strict subset of the rows, as matching gathers its pairs
    rows = rng.permutation(n + 1)[:n]
    check("take_rows",
          lambda t: t.mse(t.take(t.param("x"), rows), target),
          {"x": rng.standard_normal((n + 1, d))})
    cols = rng.permutation(d + 2)[:d]
    check("take_columns",
          lambda t: t.mse(t.take(t.param("x"), cols, axis=1), target),
          {"x": rng.standard_normal((n, d + 2))})
    check("mse",
          lambda t: t.mse(t.param("x"), target),
          {"x": rng.standard_normal((n, d))})
    check("rmse",
          lambda t: t.rmse(t.param("x"), target),
          {"x": rng.standard_normal((n, d))})
    check("cross_entropy_rows",
          lambda t: t.cross_entropy_rows(t.param("x"), labels, mask=mask),
          {"x": rng.standard_normal((n, d))})
    check("l2_penalty",
          lambda t: t.l2_penalty(t.param("x")),
          {"x": _away_from_zero(rng, (n, d))})
    # appended last, so that the draws of the checks above do not move
    for name, relu in (("affine", False), ("affine_relu", True)):
        check(name,
              lambda t, relu=relu: t.mse(t.affine(t.param("x"), t.param("w"),
                                                  t.param("b"), relu=relu),
                                         target),
              {"x": rng.standard_normal((n, d)),
               "w": rng.standard_normal((d, d)),
               "b": rng.standard_normal((1, d))})
    # n - 1 entries in fill * n: too sparse for spmm's dense copy, so the
    # product and its transpose product in the backward both take CSR
    fill = SparseMatrix._DENSE_MATMUL_FILL
    flat = rng.choice(fill * n, n - 1, replace=False)
    near_empty = SparseMatrix.from_coo(fill, n, flat // n, flat % n,
                                       rng.standard_normal(n - 1))
    near_empty_t = near_empty.transpose()
    tall_target = rng.standard_normal((fill, d))
    check("spmm_const_csr",
          lambda t: t.mse(t.spmm_const(near_empty, t.param("x"),
                                       near_empty_t), tall_target),
          {"x": rng.standard_normal((n, d))})
    return results


def matching_loss_check(seed: int) -> float:
    """Gradient check of matching_losses: both embeddings, the learned logit
    scale that multiplies the cosine scores, and the four aux networks."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    store = ParamStore()
    store.register("h1", rng.standard_normal((n, d)))
    h2 = rng.standard_normal((n, d))
    register_logit_scale(store, log_scale=rng.uniform(0.0, 3.0))
    register_aux_params(store, d, 3, 2, seed)
    truth = rng.permutation(n)
    # modality 2's embedding and targets in pair order
    store.register("h2", h2[truth])
    targets = (rng.standard_normal((n, 3)),
               rng.standard_normal((n, 2))[truth])

    def build(tape: Tape):
        total, _, _ = matching_losses(tape, tape.param("h1"),
                                      tape.param("h2"), aux_targets=targets)
        return total

    return finite_difference_check(build, store)


def _toy_graph(seed: int) -> CellFeatureGraph:
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.2, 2.0, size=(6, 4)) * (rng.random((6, 4)) < 0.8)
    dense[0, 0] = 1.0  # keep every node touched
    dense[:, dense.sum(axis=0) == 0] = 0.5
    g = build_bipartite(SparseMatrix.from_dense(dense))
    g.ff_i = np.array([0, 1], dtype=np.int64)
    g.ff_j = np.array([2, 3], dtype=np.int64)
    g.ff_weights = np.array([0.7, 0.4])
    return g


def full_network_check(seed: int = 0) -> float:
    """Gradient check of the coupled 2-layer network end to end."""
    rng = np.random.default_rng(seed)
    g = _toy_graph(seed)
    cfg = ConvConfig(n_layers=2, hidden_dim=5, residual_mode="initial",
                     aggregation_norm=EdgeScaling.POST_NORM,
                     alpha="learnable", dropout_rate=0.1, n_groups=1)
    store = ParamStore()
    init_params(g, cfg, store, seed=seed)
    store.register("head.w", glorot_uniform(rng, cfg.hidden_dim, 3))
    store.register("head.b", np.zeros((1, 3)))
    # randomize every parameter: a zero-init bias over a zero aggregate
    # (layer 1's uv message reads the cells' zero start) puts ReLU
    # pre-activations exactly on the kink, where one-sided derivatives
    # make finite differences meaningless
    for name in store.names():
        e = store.entries[name]
        e.value[:] = rng.uniform(0.2, 0.9, e.value.shape) * np.where(
            rng.random(e.value.shape) < 0.5, -1.0, 1.0
        )
        if name.endswith(("gn.g", "alpha")):
            e.value[:] = np.abs(e.value) + 0.3
    target = rng.standard_normal((g.n_cells, 3))

    def build(tape: Tape):
        h_hat = forward(tape, g, cfg)
        pred = tape.affine(h_hat, tape.param("head.w"), tape.param("head.b"))
        return tape.rmse(pred, target)

    return finite_difference_check(build, store)


# a check passes while its worst relative error stays below this
GRADCHECK_TOL = 1e-4


def run_gradient_checks(n_seeds: int = 20, network_seeds=(0,)):
    """Returns (results dict, worst error, pass flag)."""
    results: dict[str, float] = {}
    for seed in range(n_seeds):
        for name, err in _op_checks(seed).items():
            results[name] = max(results.get(name, 0.0), err)
    for seed in network_seeds:
        results[f"full_network[{seed}]"] = full_network_check(seed)
        results[f"matching_losses[{seed}]"] = matching_loss_check(seed)
    worst = max(results.values())
    return results, worst, worst < GRADCHECK_TOL

"""Modality matching: bidirectional softmax loss, auxiliary losses, and
batch-partitioned assignment inference."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..assignment import AssignmentProblem, percentile_filter, solve
from ..autodiff import ParamStore, Tape, Var, glorot_uniform
from ..convnet import ConvConfig, decoupled_forward, decoupled_propagate, \
    init_decoupled_params
from ..linalg import SparseMatrix, l2_normalize_rows, truncated_svd
from .common import EpochRecord, TrainProtocol, run_training, split_cells

MATCHING_LR = 1e-2
# learned logit scale, as CLIP's logit_scale (Radford et al. 2021): stored
# as a log, started at 1 / 0.07 and kept within [1, 100]
LOGIT_SCALE = "logit_scale"
LOG_SCALE_INIT = float(np.log(1.0 / 0.07))
LOG_SCALE_BOUNDS = (0.0, float(np.log(100.0)))
# the match term scores the pairs in random blocks of at most this many, so
# training holds O(n * MATCH_BLOCK) scores instead of n x n
MATCH_BLOCK = 128
# inference takes a score block's softmax normalizers over this many rows
# at a time
SOFTMAX_CHUNK = 256


def _check_bijection(truth, n: int) -> np.ndarray:
    t = np.asarray(truth, dtype=np.int64)
    if t.shape != (n,) or not np.array_equal(np.sort(t), np.arange(n)):
        raise ValueError("truth pairing must be a bijection on the rows")
    return t


def register_aux_params(store: ParamStore, d: int, f1: int, f2: int,
                        seed: int):
    """Two one-hidden-layer reconstruction networks, one per modality."""
    rng = np.random.default_rng(seed)
    for name, width in (("aux1", f1), ("aux2", f2)):
        store.register(f"{name}.w1", glorot_uniform(rng, d, d))
        store.register(f"{name}.b1", np.zeros((1, d)))
        store.register(f"{name}.w2", glorot_uniform(rng, d, width))
        store.register(f"{name}.b2", np.zeros((1, width)))


def register_logit_scale(store: ParamStore,
                         log_scale: float = LOG_SCALE_INIT):
    """The learned log of the temperature that multiplies cosine scores;
    exempt from weight decay, as CLIP leaves its logit_scale undecayed."""
    store.register(LOGIT_SCALE, [[log_scale]], bounds=LOG_SCALE_BOUNDS,
                   decay=False)


def logit_scale(store: ParamStore) -> float:
    """The current multiplier exp(s) of the cosine scores."""
    return float(np.exp(store.value(LOGIT_SCALE).reshape(-1)[0]))


def _aux_net(tape: Tape, h: Var, name: str) -> Var:
    hidden = tape.affine(h, tape.param(name + ".w1"),
                         tape.param(name + ".b1"), relu=True)
    return tape.affine(hidden, tape.param(name + ".w2"),
                       tape.param(name + ".b2"))


def _relative_targets(x: np.ndarray) -> np.ndarray:
    """Columns centred, then divided by the root mean column variance, so a
    zero prediction scores mean-squared error 1 whatever the data's units."""
    x = x - x.mean(axis=0)
    spread = np.sqrt(np.mean(x * x))
    return x / spread if spread > 0 else x


def _pair_blocks(tape: Tape, n: int) -> list[np.ndarray]:
    """Rows 0..n-1 in ceil(n / MATCH_BLOCK) blocks drawn with the tape's
    generator, each sorted."""
    return [np.sort(b) for b in
            np.array_split(tape.rng.permutation(n), -(-n // MATCH_BLOCK))]


def matching_losses(tape: Tape, h1: Var, h2: Var, aux_targets=None,
                    aux_weight: float = 1.0):
    """(total, match, aux) loss handles; total = match + aux_weight * aux.

    Row i of h1 and row i of h2 are one cell. The match part is the
    bidirectional softmax cross entropy over these pairs of the cosine
    scores times the learned logit scale exp(s) (CLIP's logit_scale,
    likewise exempt from weight decay). The pairs are scored
    in random blocks of at most MATCH_BLOCK, drawn from the tape's
    generator. A block of b pairs adds the row and the column cross
    entropies of its b x b scores, each averaged over its cells, then
    averaged, divided by log b, their value at chance, and weighted by
    b / n. The aux part, over all n cells, adds the four
    prediction/reconstruction mean-squared errors through the two
    one-hidden-layer networks, each against targets whose columns are
    centred and scaled to unit mean variance, so a network that predicts
    nothing scores 1 per term. Both parts are thus free of the cell count
    and of the data's units, and aux_weight alone sets their balance. The
    four aux terms are summed, not averaged: each is a task of its own with
    its own target, so at aux_weight 1 every task, the match included,
    enters with weight 1 and reads 1 at its null level. Pass
    aux_targets=(x1, x2) in the same row order as h1 and h2, or None to
    disable.
    """
    n = tape.value(h1).shape[0]
    if tape.value(h2).shape[0] != n:
        raise ValueError("h1 and h2 must pair the same number of cells")
    # the scale multiplies h1's unit rows (n x d), which scales every score
    # block without two more score arrays on the tape
    h1n = tape.exp_scale(tape.l2_normalize_rows(h1), tape.param(LOGIT_SCALE))
    h2n = tape.l2_normalize_rows(h2)
    terms, weights = [], []
    for rows in _pair_blocks(tape, n):
        b = len(rows)
        a1 = tape.take(h1n, rows)
        a2 = tape.take(h2n, rows)
        labels = np.arange(b)  # each block's true pairs lie on its diagonal
        terms += [
            tape.cross_entropy_rows(tape.matmul(a1, a2, transpose_b=True),
                                    labels),
            tape.cross_entropy_rows(tape.matmul(a2, a1, transpose_b=True),
                                    labels)]
        chance = np.log(b) if b > 1 else 1.0
        weights += [0.5 * (b / n) / chance] * 2
    match = tape.scalar_mix(terms, np.array(weights))
    if aux_targets is None:
        return match, match, tape.constant(np.asarray(0.0))
    x1 = _relative_targets(np.asarray(aux_targets[0], dtype=np.float64))
    x2 = _relative_targets(np.asarray(aux_targets[1], dtype=np.float64))
    aux = tape.add(
        tape.add(tape.mse(_aux_net(tape, h1, "aux2"), x2),
                 tape.mse(_aux_net(tape, h2, "aux1"), x1)),
        tape.add(tape.mse(_aux_net(tape, h1, "aux1"), x1),
                 tape.mse(_aux_net(tape, h2, "aux2"), x2)),
    )
    total = tape.add(match, tape.scalar_mix([aux], np.array([aux_weight])))
    return total, match, aux


def softmax_normalizers(score: np.ndarray, scale: float = 1.0):
    """(row max, row sum of exps, column max, column sum of exps) of the
    row and the column softmax of score times scale.

    They are taken over SOFTMAX_CHUNK rows at a time, so the temporaries
    hold SOFTMAX_CHUNK rows, not the whole table. Each row sum adds its row
    as a full-table row sum does, and the column sums add row after row, as
    a full-table column sum does, so all four are bit-equal to the
    full-table reductions.
    """
    score = np.asarray(score, dtype=np.float64)
    n, m = score.shape
    chunks = [slice(a, a + SOFTMAX_CHUNK)
              for a in range(0, n, SOFTMAX_CHUNK)]
    row_max, row_sum = np.empty(n), np.empty(n)
    col_max, col_sum = np.full(m, -np.inf), np.zeros(m)
    for c in chunks:
        s = scale * score[c]
        row_max[c] = s.max(axis=1)
        np.maximum(col_max, s.max(axis=0), out=col_max)
    for c in chunks:
        s = scale * score[c]
        row_sum[c] = np.exp(s - row_max[c, None]).sum(axis=1)
        np.exp(np.subtract(s, col_max, out=s), out=s)
        for row in s:
            col_sum += row
    if m == 1:
        # numpy sums a table's only column pairwise, as a vector
        col_sum[0] = np.exp(scale * score[:, 0] - col_max[0]).sum()
    return row_max, row_sum, col_max, col_sum


def _softmax(s, row_max, row_sum, col_max, col_sum):
    """(row, column) softmax probabilities of scaled scores s from the
    normalizers of their rows and columns."""
    return np.exp(s - row_max) / row_sum, np.exp(s - col_max) / col_sum


def score_probabilities(score: np.ndarray, scale: float = 1.0):
    """(row softmax, column softmax) of a dense score matrix times scale."""
    row_max, row_sum, col_max, col_sum = softmax_normalizers(score, scale)
    s = scale * np.asarray(score, dtype=np.float64)
    return _softmax(s, row_max[:, None], row_sum[:, None], col_max, col_sum)


class MatchBlock(NamedTuple):
    """One batch that both sides share: its ascending row indices in each
    modality, and the softmax normalizers of its rows and its columns."""

    rows: np.ndarray
    cols: np.ndarray
    row_max: np.ndarray
    row_sum: np.ndarray
    col_max: np.ndarray
    col_sum: np.ndarray


@dataclass
class MatchOutput:
    """The assignment of one inference run, and what scoring it needs.

    blocks holds one MatchBlock per batch that both sides share; its
    normalizers are those of the row and the column softmax of the batch's
    cosine scores times scale, the logit scale. u1 and u2 are the
    row-normalized embeddings, from which a pair's cosine score is
    recomputed. Nothing here grows with the square of a batch. Rows in no
    shared batch lie in no block and no pair.
    """

    assignment: list[tuple[int, int]]
    blocks: list[MatchBlock]
    u1: np.ndarray
    u2: np.ndarray
    scale: float


def _match_batch(u1, u2, idx1, idx2, percentile: float, scale: float):
    """The batch's MatchBlock and its assigned pairs; its cosine block
    lives only inside this call."""
    block = u1[idx1] @ u2[idx2].T
    normalizers = softmax_normalizers(block, scale)
    keep = percentile_filter(block, percentile)
    result = solve(AssignmentProblem(block, keep))
    pairs = [(int(idx1[i]), int(idx2[j])) for i, j in result.pairs]
    return MatchBlock(idx1, idx2, *normalizers), pairs


def match_inference(h1, h2, batch_labels_1, batch_labels_2,
                    percentile: float = 95.0,
                    scale: float = 1.0) -> MatchOutput:
    """Batch-partitioned scoring, percentile filtering and assignment.

    Scores are computed within each shared batch, and the softmax
    normalizers over the cosine scores times scale (the trained model's
    logit scale); the assignment solves a maximum-weight rectangular
    matching over the percentile-filtered cosine scores of that batch,
    which no positive scale changes.
    """
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    b1 = np.asarray(batch_labels_1)
    b2 = np.asarray(batch_labels_2)
    if len(b1) != h1.shape[0] or len(b2) != h2.shape[0]:
        raise ValueError("batch labels must align with embedding rows")
    u1, u2 = l2_normalize_rows(h1), l2_normalize_rows(h2)
    pairs: list[tuple[int, int]] = []
    blocks = []
    for batch in sorted(set(b1.tolist()) & set(b2.tolist())):
        block, batch_pairs = _match_batch(
            u1, u2, np.flatnonzero(b1 == batch), np.flatnonzero(b2 == batch),
            percentile, scale)
        blocks.append(block)
        pairs.extend(batch_pairs)
    return MatchOutput(sorted(pairs), blocks, u1, u2, scale)


def match_scores(output: MatchOutput, truth) -> dict[str, float]:
    """Symmetric softmax score, one-hot assignment score, top-1 accuracy.

    The softmax score averages the row and the column probability mass on
    the true pairs; a true pair outside every block scores 0. Each true
    pair's score is recomputed as a row dot product, so it may differ from
    the block's matrix-product entry in its last bits.
    """
    t = np.asarray(truth, dtype=np.int64)
    # each row's true-partner probability, in row order, per softmax
    on_truth = np.zeros((2, len(t)))
    for b in output.blocks:
        partner = t[b.rows]
        at = np.minimum(np.searchsorted(b.cols, partner), len(b.cols) - 1)
        hit = b.cols[at] == partner
        rows, at = b.rows[hit], at[hit]
        s = output.scale * np.einsum("ij,ij->i", output.u1[rows],
                                     output.u2[b.cols[at]])
        on_truth[:, rows] = _softmax(s, b.row_max[hit], b.row_sum[hit],
                                     b.col_max[at], b.col_sum[at])
    correct = sum(1 for i, j in output.assignment if t[i] == j)
    return {
        "score_softmax": float(0.5 * (on_truth[0].sum() + on_truth[1].sum())),
        "score_assignment": float(correct),
        "top1_accuracy": correct / len(t),
    }


# ---------------------------------------------------------------------------
# training pipeline


@dataclass
class MatcherConfig:
    reduce_rank: int = 32
    aux_weight: float = 1.0  # 0 trains no aux networks at all
    percentile: float = 95.0


def _embed_pair(store: ParamStore, conv: ConvConfig, states1, states2):
    """Eval-mode outputs of both towers over the given propagated states."""
    tape = Tape(store, train=False)
    h1 = decoupled_forward(tape, states1, conv, prefix="m1.")
    h2 = decoupled_forward(tape, states2, conv, prefix="m2.")
    return tape.value(h1), tape.value(h2)


@dataclass
class MatcherModel:
    store: ParamStore
    conv: ConvConfig
    cfg: MatcherConfig
    states1: list[np.ndarray]
    states2: list[np.ndarray]
    validation_loss: float
    best_epoch: int
    history: list[EpochRecord] = field(default_factory=list)

    def embeddings(self):
        """Eval-mode cell representations for both modalities."""
        return _embed_pair(self.store, self.conv, self.states1, self.states2)

    def infer(self, batch_labels_1, batch_labels_2) -> MatchOutput:
        h1, h2 = self.embeddings()
        return match_inference(h1, h2, batch_labels_1, batch_labels_2,
                               self.cfg.percentile, logit_scale(self.store))


def reduce_modality(m: SparseMatrix, rank: int, seed: int) -> np.ndarray:
    """SVD coordinates (U * s) used both as graph weights and node input."""
    rank = min(rank, min(m.shape))
    u, s = truncated_svd(m, rank, seed)
    return u * s


def train_matcher(m1: SparseMatrix, m2: SparseMatrix, correspondence,
                  conv: ConvConfig, protocol: TrainProtocol,
                  cfg: MatcherConfig | None = None) -> MatcherModel:
    """Train the two decoupled towers against the known train pairing.

    correspondence[i] is the modality-2 row of the cell in modality-1 row i.
    Propagation runs once over all cells (it is parameter-free); the MLP
    and the loss run on the train split's rows, and early stopping watches
    the validation split's competition score.
    """
    cfg = cfg or MatcherConfig()
    n = m1.n_rows
    t_all = _check_bijection(correspondence, n)
    x1 = reduce_modality(m1, cfg.reduce_rank, protocol.seed)
    x2 = reduce_modality(m2, cfg.reduce_rank, protocol.seed + 1)
    mode = conv.aggregation_norm
    states1 = decoupled_propagate(x1, conv.n_layers, mode)
    states2 = decoupled_propagate(x2, conv.n_layers, mode)

    store = ParamStore()
    init_decoupled_params(x1.shape[1], conv, store, protocol.seed,
                          prefix="m1.")
    init_decoupled_params(x2.shape[1], conv, store, protocol.seed + 1,
                          prefix="m2.")
    register_logit_scale(store)
    train_idx, val_idx = split_cells(n, protocol.split_fraction, protocol.seed)
    aux_train = None
    if cfg.aux_weight != 0:
        register_aux_params(store, conv.hidden_dim, x1.shape[1],
                            x2.shape[1], protocol.seed + 2)
        aux_train = (x1[train_idx], x2[t_all[train_idx]])
    # the MLP is row-wise, so each split's rows are gathered before it, with
    # modality 2 in pair order; the rows the losses never read stay out
    train1 = [s[train_idx] for s in states1]
    train2 = [s[t_all[train_idx]] for s in states2]
    val1 = [s[val_idx] for s in states1]
    val2 = [s[t_all[val_idx]] for s in states2]

    def train_epoch(tape: Tape):
        h1 = decoupled_forward(tape, train1, conv, prefix="m1.")
        h2 = decoupled_forward(tape, train2, conv, prefix="m2.")
        total, _, _ = matching_losses(tape, h1, h2, aux_targets=aux_train,
                                      aux_weight=cfg.aux_weight)
        return total

    def validate() -> float:
        # early stopping watches the negated validation competition score:
        # the held-out cross-entropy plateaus long before the probability
        # mass on true pairs (the task metric) stops improving
        h1, h2 = _embed_pair(store, conv, val1, val2)
        block = l2_normalize_rows(h1) @ l2_normalize_rows(h2).T
        scale = logit_scale(store)
        rp, cp = _softmax(scale * np.diagonal(block),
                          *softmax_normalizers(block, scale))
        mass = 0.5 * (rp.sum() + cp.sum())
        return -mass

    best_val, best_epoch, history = run_training(
        store, train_epoch, validate, protocol, MATCHING_LR
    )
    return MatcherModel(store, conv, cfg, states1, states2, best_val,
                        best_epoch, history)

import tracemalloc

import numpy as np
import pytest

from cellgraph.autodiff import ParamStore, Tape, finite_difference_check
from cellgraph.convnet import ONE_HOT_MAX_FEATURES, ConvConfig, forward
from cellgraph.data import generate_synthetic
from cellgraph.gradcheck import GRADCHECK_TOL
from cellgraph.graph import (EdgeScaling, GeneSetCollection,
                             augment_with_pathways, build_bipartite)
from cellgraph.linalg import SparseMatrix, l2_normalize_rows
from cellgraph.tasks import (EmbedConfig, MatcherConfig, MatchOutput,
                             TrainProtocol, joint_embedding_loss,
                             match_inference, match_scores, matching_losses,
                             mean_predictor_rmse, pca_concat_baseline,
                             register_aux_params, register_embed_params,
                             register_logit_scale, rmse_loss,
                             score_probabilities, split_cells,
                             train_joint_embedding, train_matcher,
                             train_prediction)
from cellgraph.tasks import common, matching
from cellgraph.tasks.embedding import EMBED_LR
from cellgraph.metrics import nmi_cluster_label


def match_loss_values(h1, h2, store=None, aux=None, aux_weight=1.0,
                      log_scale=0.0):
    store = store or ParamStore()
    register_logit_scale(store, log_scale=log_scale)
    tape = Tape(store, train=False)
    total, match, aux_part = matching_losses(
        tape, tape.constant(h1), tape.constant(h2),
        aux_targets=aux, aux_weight=aux_weight,
    )
    return (float(np.asarray(tape.value(total))),
            float(np.asarray(tape.value(match))),
            float(np.asarray(tape.value(aux_part))))


class TestRmseLoss:
    def test_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        assert rmse_loss(x, x) == 0.0

    def test_constant_offset(self):
        x = np.zeros((2, 5))
        assert rmse_loss(x + 0.7, x) == pytest.approx(0.7)
        assert rmse_loss(x - 0.7, x) == pytest.approx(0.7)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        brute = np.sqrt(sum((a[i, j] - b[i, j]) ** 2
                            for i in range(4) for j in range(3)) / 12)
        assert rmse_loss(a, b) == pytest.approx(brute)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse_loss(np.zeros((2, 2)), np.zeros((3, 2)))


class TestMatchingLosses:
    def test_scaled_identity_hand_softmax(self):
        # unit rows: the cosine matrix is the identity, so at scale tau each
        # of the 2 row and 2 column cross entropies is
        # -log(e^tau / (e^tau + 1)); their mean over log 2 (chance) is the loss
        h = np.eye(2) * 3.0
        tau = 2.0
        _, match, _ = match_loss_values(h, h, log_scale=np.log(tau))
        expected = -np.log(np.exp(tau) / (np.exp(tau) + 1.0)) / np.log(2.0)
        assert match == pytest.approx(expected, abs=1e-12)

    def test_chance_scores_one(self):
        # identical embeddings for every cell: uniform softmax in both
        # directions, cross entropy log n, divided by its chance value
        h = np.ones((5, 3))
        _, match, _ = match_loss_values(h, h, log_scale=1.0)
        assert match == pytest.approx(1.0, abs=1e-12)

    def test_aux_free_of_target_units(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 3))
        x1, x2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
        truth = np.array([2, 0, 3, 1])

        def aux_of(a, b):
            store = ParamStore()
            register_aux_params(store, 3, 2, 2, seed=0)
            return match_loss_values(h, h[truth], store=store,
                                     aux=(a, b[truth]))[2]

        assert aux_of(5.0 * x1 - 3.0, 0.1 * x2 + 7.0) == pytest.approx(
            aux_of(x1, x2), abs=1e-12)

    def test_permuted_truth_scores_worse(self):
        h = np.eye(2) * 3.0
        _, aligned, _ = match_loss_values(h, h)
        _, permuted, _ = match_loss_values(h, h[[1, 0]])
        assert permuted > aligned

    def test_aux_zero_when_outputs_equal_targets(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 4))
        store = ParamStore()
        register_aux_params(store, 4, 2, 2, seed=0)
        for name in store.names():
            store.entries[name].value[:] = 0.0
        zeros = np.zeros((3, 2))
        total, match, aux = match_loss_values(
            h, h, store=store, aux=(zeros, zeros))
        assert aux == pytest.approx(0.0, abs=1e-15)
        assert total == pytest.approx(match)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        h1 = rng.standard_normal((5, 4))
        h2 = rng.standard_normal((5, 4))
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        t = rng.permutation(5)
        _, base, _ = match_loss_values(h1, h2[t])
        _, rotated, _ = match_loss_values(h1 @ q, (h2 @ q)[t])
        assert rotated == pytest.approx(base, abs=1e-9)


class TestMatchBlocks:
    """The match term over random blocks, with blocks of at most 3 pairs."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(matching, "MATCH_BLOCK", 3)

    @staticmethod
    def match_value(h1, h2, log_scale=0.5, seed=5):
        store = ParamStore()
        register_logit_scale(store, log_scale=log_scale)
        tape = Tape(store, train=False, rng=np.random.default_rng(seed))
        _, match, _ = matching_losses(tape, tape.constant(h1),
                                      tape.constant(h2))
        return float(np.asarray(tape.value(match)))

    def test_chance_scores_one(self):
        h = np.ones((7, 3))
        assert self.match_value(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_equals_hand_loop_over_blocks(self):
        rng = np.random.default_rng(6)
        h1, h2 = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
        truth = rng.permutation(7)
        log_scale = 0.5
        blocks = np.array_split(np.random.default_rng(5).permutation(7), 3)
        assert [len(b) for b in blocks] == [3, 2, 2]
        u1 = np.exp(log_scale) * l2_normalize_rows(h1)
        u2 = l2_normalize_rows(h2)
        expected = 0.0
        for rows in blocks:
            s = u1[rows] @ u2[truth[rows]].T  # true pairs on the diagonal
            b = len(rows)
            ce_row = np.mean([np.log(np.exp(s[i]).sum()) - s[i, i]
                              for i in range(b)])
            ce_col = np.mean([np.log(np.exp(s[:, j]).sum()) - s[j, j]
                              for j in range(b)])
            expected += (b / 7) * 0.5 * (ce_row + ce_col) / np.log(b)
        assert self.match_value(h1, h2[truth], log_scale) == pytest.approx(
            expected, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        truth = rng.permutation(7)
        store = ParamStore()
        register_logit_scale(store, log_scale=0.3)
        register_aux_params(store, 4, 2, 3, seed=1)
        store.register("h1", rng.standard_normal((7, 4)))
        store.register("h2", rng.standard_normal((7, 4))[truth])
        aux = (rng.standard_normal((7, 2)), rng.standard_normal((7, 3))[truth])

        def build(tape):
            return matching_losses(tape, tape.param("h1"), tape.param("h2"),
                                   aux_targets=aux)[0]

        assert finite_difference_check(build, store) < GRADCHECK_TOL

    def test_training_builds_no_n_by_n_scores(self, monkeypatch):
        monkeypatch.setattr(matching, "MATCH_BLOCK", 128)
        shapes = []

        def recording(op):
            def record(self, *args, **kwargs):
                out = op(self, *args, **kwargs)
                shapes.append(self.value(out).shape)
                return out
            return record

        for name in ("matmul", "affine"):
            monkeypatch.setattr(Tape, name, recording(getattr(Tape, name)))
        ds = generate_synthetic(n_cells=600, seed=3)
        conv = ConvConfig(n_layers=3, hidden_dim=16, dropout_rate=0.5)
        protocol = TrainProtocol(patience_epochs=2, max_epochs=2, seed=0)
        train_matcher(ds.modality_1, ds.modality_2, ds.correspondence,
                      conv, protocol, MatcherConfig(reduce_rank=12))
        n_train = len(split_cells(600, protocol.split_fraction, 0)[0])
        assert n_train > 128
        assert (n_train, 16) in shapes  # the MLP ran on the training rows
        assert max(min(shape) for shape in shapes) == 128  # full blocks

    def test_zero_aux_weight_trains_no_aux_networks(self):
        ds = generate_synthetic(n_cells=60, seed=3)
        conv = ConvConfig(n_layers=3, hidden_dim=8, dropout_rate=0.5)
        cfg = MatcherConfig(reduce_rank=6, aux_weight=0.0)
        protocol = TrainProtocol(patience_epochs=2, max_epochs=2, seed=0)
        model = train_matcher(ds.modality_1, ds.modality_2,
                              ds.correspondence, conv, protocol, cfg)
        assert not [n for n in model.store.names() if n.startswith("aux")]
        cfg.aux_weight = 1.0
        model = train_matcher(ds.modality_1, ds.modality_2,
                              ds.correspondence, conv, protocol, cfg)
        assert "aux1.w1" in model.store


class TestTrainMatcher:
    def test_non_bijection_rejected(self):
        ds = generate_synthetic(n_cells=6, seed=3)
        conv = ConvConfig(n_layers=1, hidden_dim=4)
        protocol = TrainProtocol(patience_epochs=1, max_epochs=1, seed=0)
        for correspondence in ([0, 0, 1, 2, 3, 4],  # row 5 has no partner
                               [1, 2, 3, 4, 5],  # one entry short
                               [1, 2, 3, 4, 5, 6]):  # 6 is out of range
            with pytest.raises(ValueError, match="bijection"):
                train_matcher(ds.modality_1, ds.modality_2, correspondence,
                              conv, protocol, MatcherConfig(reduce_rank=2))


def full_table_softmax(score, scale=1.0):
    """The row and column softmaxes as whole-table reductions."""
    s = scale * score
    se = np.exp(s - s.max(axis=1, keepdims=True))
    ce = np.exp(s - s.max(axis=0, keepdims=True))
    return (se / se.sum(axis=1, keepdims=True),
            ce / ce.sum(axis=0, keepdims=True))


class TestScoreProbabilities:
    def test_rows_and_columns_stochastic(self):
        rng = np.random.default_rng(4)
        for shape in [(5, 5), (40, 40), (200, 200)]:
            s = rng.standard_normal(shape) * 5
            rp, cp = score_probabilities(s)
            assert np.abs(rp.sum(axis=1) - 1).max() < 1e-6
            assert np.abs(cp.sum(axis=0) - 1).max() < 1e-6

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 11])
    def test_chunked_normalizers_bit_equal_full_table(self, monkeypatch, n):
        # chunks of 4 rows: n below, at and above one chunk, a ragged
        # last chunk (5, 11) and whole chunks only (8)
        monkeypatch.setattr(matching, "SOFTMAX_CHUNK", 4)
        rng = np.random.default_rng(40 + n)
        for m in (1, n, 7):
            score = rng.standard_normal((n, m))
            s = 3.5 * score
            row_max, row_sum, col_max, col_sum = \
                matching.softmax_normalizers(score, 3.5)
            assert np.array_equal(row_max, s.max(axis=1))
            assert np.array_equal(col_max, s.max(axis=0))
            assert np.array_equal(
                row_sum, np.exp(s - s.max(axis=1, keepdims=True)).sum(axis=1))
            assert np.array_equal(
                col_sum, np.exp(s - s.max(axis=0, keepdims=True)).sum(axis=0))
            rp, cp = score_probabilities(score, 3.5)
            full_rp, full_cp = full_table_softmax(score, 3.5)
            assert np.array_equal(rp, full_rp) and np.array_equal(cp, full_cp)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_default_chunk_bit_equal_full_table(self, offset):
        n = matching.SOFTMAX_CHUNK + offset
        score = np.random.default_rng(50).standard_normal((n, 40))
        for got, want in zip(score_probabilities(score, 14.0),
                             full_table_softmax(score, 14.0)):
            assert np.array_equal(got, want)


def one_block(h1, h2, scale=1.0):
    """Output whose one block spans every row of h1 and of h2."""
    u1, u2 = l2_normalize_rows(h1), l2_normalize_rows(h2)
    rows, cols = np.arange(len(u1)), np.arange(len(u2))
    normalizers = matching.softmax_normalizers(u1 @ u2.T, scale)
    return MatchOutput(assignment=[],
                       blocks=[matching.MatchBlock(rows, cols, *normalizers)],
                       u1=u1, u2=u2, scale=scale)


class TestCompetitionScore:
    def test_one_hot_perfect(self):
        # unit scores on the true pairs and 0 elsewhere; at scale 1000 every
        # other exp underflows to 0, so each softmax is one-hot on the truth
        n = 6
        t = np.random.default_rng(5).permutation(n)
        h2 = np.zeros((n, n))
        h2[t] = np.eye(n)
        assert match_scores(one_block(np.eye(n), h2, 1000.0), t)[
            "score_softmax"] == float(n)

    def test_uniform_chance_level(self):
        n = 8
        h = np.ones((n, 3))  # every score equal
        assert match_scores(one_block(h, h), np.arange(n))["score_softmax"] \
            == pytest.approx(1.0)

    def test_matches_direct_indexing(self):
        rng = np.random.default_rng(6)
        h1, h2 = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
        rp, cp = score_probabilities(
            l2_normalize_rows(h1) @ l2_normalize_rows(h2).T, 5.0)
        t = rng.permutation(7)
        direct = 0.5 * sum(rp[i, t[i]] + cp[i, t[i]] for i in range(7))
        assert match_scores(one_block(h1, h2, 5.0), t)["score_softmax"] \
            == pytest.approx(direct)


class TestMatchInference:
    def test_separable_instance_recovers_truth(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((4, 6)) * 3
        h1 = base + rng.normal(0, 0.01, base.shape)
        perm = np.array([2, 3, 0, 1])  # partner rows in h2
        h2 = np.empty_like(base)
        h2[perm] = base + rng.normal(0, 0.01, base.shape)
        batches1 = np.array([0, 0, 1, 1])
        batches2 = batches1[np.argsort(perm)]  # batch of each h2 row
        out = match_inference(h1, h2, batches1, batches2, percentile=0.0)
        scores = match_scores(out, perm)
        assert scores["top1_accuracy"] == 1.0
        assert scores["score_assignment"] == 4.0

    def test_percentile_zero_equals_full_hungarian(self):
        from cellgraph.assignment import AssignmentProblem, solve

        rng = np.random.default_rng(8)
        h1 = rng.standard_normal((6, 3))
        h2 = rng.standard_normal((6, 3))
        batches = np.zeros(6, dtype=int)
        out = match_inference(h1, h2, batches, batches, percentile=0.0)
        full = solve(AssignmentProblem(
            l2_normalize_rows(h1) @ l2_normalize_rows(h2).T))
        assert out.assignment == full.pairs

    def test_cross_batch_pairs_never_assigned(self):
        rng = np.random.default_rng(9)
        h1 = rng.standard_normal((10, 4))
        h2 = rng.standard_normal((10, 4))
        b1 = np.repeat([0, 1], 5)
        b2 = np.repeat([0, 1], 5)
        out = match_inference(h1, h2, b1, b2, percentile=50.0)
        for i, j in out.assignment:
            assert b1[i] == b2[j]

    def test_one_sided_batch_reported_unmatched(self):
        rng = np.random.default_rng(10)
        h1 = rng.standard_normal((4, 3))
        h2 = rng.standard_normal((4, 3))
        b1 = np.array([0, 0, 7, 7])  # batch 7 absent on the right
        b2 = np.array([0, 0, 1, 1])
        out = match_inference(h1, h2, b1, b2, percentile=0.0, scale=3.0)
        assert len(out.blocks) == 1
        block = out.blocks[0]
        assert block.rows.tolist() == [0, 1] and block.cols.tolist() == [0, 1]
        for i, j in out.assignment:
            assert i not in (2, 3) and j not in (2, 3)
        # matched block rows are stochastic under their normalizers
        s = 3.0 * out.u2[block.cols] @ out.u1[0]
        assert (np.exp(s - block.row_max[0]).sum() / block.row_sum[0]
                == pytest.approx(1.0, abs=1e-9))

    @pytest.mark.parametrize("n_batches", [2, 3])
    def test_blocks_only_and_softmax_score_match_full_arrays(self,
                                                             n_batches):
        rng = np.random.default_rng(20 + n_batches)
        for _ in range(5):
            n = int(rng.integers(20, 60))
            h1 = rng.standard_normal((n, 4))
            h2 = rng.standard_normal((n, 4))
            t = rng.permutation(n)
            b1 = rng.integers(0, n_batches, n)
            b2 = np.empty(n, dtype=np.int64)
            b2[t] = b1
            moved = rng.random(n) < 0.1  # true pairs across batches
            b2[moved] = rng.integers(0, n_batches, moved.sum())
            out = match_inference(h1, h2, b1, b2, percentile=30.0,
                                  scale=7.0)
            largest = max(np.bincount(b1).max(), np.bincount(b2).max())
            for block in out.blocks:
                for a in block:
                    assert a.ndim == 1 and len(a) <= largest
            # the softmax score of the n x n probability arrays the blocks
            # replace, filled by scattering each batch's full softmaxes;
            # match_scores recomputes each true pair's score as a dot
            # product, which may differ from the matrix product's entry in
            # its last bits
            row_prob, col_prob = np.zeros((n, n)), np.zeros((n, n))
            for block in out.blocks:
                rows, cols = block.rows, block.cols
                block_scores = (l2_normalize_rows(h1[rows])
                                @ l2_normalize_rows(h2[cols]).T)
                rp, cp = score_probabilities(block_scores, 7.0)
                row_prob[np.ix_(rows, cols)] = rp
                col_prob[np.ix_(rows, cols)] = cp
            old = 0.5 * (float(row_prob[np.arange(n), t].sum())
                         + float(col_prob[np.arange(n), t].sum()))
            assert match_scores(out, t)["score_softmax"] == pytest.approx(
                old, rel=1e-12, abs=0.0)

    def test_output_holds_linear_bytes(self):
        rng = np.random.default_rng(30)
        n1, n2, d = 90, 70, 5
        h1, h2 = rng.standard_normal((n1, d)), rng.standard_normal((n2, d))
        out = match_inference(h1, h2, rng.integers(0, 3, n1),
                              rng.integers(0, 3, n2), percentile=50.0)
        held = out.u1.nbytes + out.u2.nbytes + sum(
            a.nbytes for block in out.blocks for a in block)
        assert held <= 8 * (n1 + n2) * (d + 4)

    def test_inference_peak_within_four_blocks(self):
        rng = np.random.default_rng(31)
        n, d = 600, 16
        h1, h2 = rng.standard_normal((n, d)), rng.standard_normal((n, d))
        batches = np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            match_inference(h1, h2, batches, batches, percentile=95.0,
                            scale=14.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8

    def test_dual_symmetry(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(6, 30))
            h1 = rng.standard_normal((n, 5))
            h2 = rng.standard_normal((n, 5))
            batches = rng.integers(0, 2, n)
            fwd = match_inference(h1, h2, batches, batches, percentile=30.0)
            rev = match_inference(h2, h1, batches, batches, percentile=30.0)
            assert sorted((j, i) for i, j in rev.assignment) == fwd.assignment
            truth = np.arange(n)
            s_fwd = match_scores(fwd, truth)
            s_rev = match_scores(rev, truth)
            assert s_fwd["score_softmax"] == pytest.approx(
                s_rev["score_softmax"], abs=1e-9)
            assert s_fwd["score_assignment"] == s_rev["score_assignment"]


class TestTrainPrediction:
    def _linear_dataset(self, n=200, seed=12):
        rng = np.random.default_rng(seed)
        source = np.abs(rng.standard_normal((n, 12))) + 0.05
        target = source[:, :1] * 2.0  # first column, linear signal
        return SparseMatrix.from_dense(source), target

    def test_beats_mean_predictor_on_linear_signal(self):
        m, target = self._linear_dataset()
        g = build_bipartite(m)
        cfg = ConvConfig(n_layers=2, hidden_dim=16, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.POST_NORM)
        protocol = TrainProtocol(patience_epochs=40, max_epochs=300, seed=0)
        model = train_prediction(g, target, cfg, protocol)
        baseline = mean_predictor_rmse(target, model.train_idx, model.val_idx)
        assert model.validation_rmse < 0.5 * baseline

    def test_patience_halts_when_metric_cannot_improve(self):
        m, _ = self._linear_dataset(n=60)
        target = np.zeros((60, 2))
        g = build_bipartite(m)
        cfg = ConvConfig(n_layers=1, hidden_dim=8, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.POST_NORM)
        # lr 0 freezes the parameters, so validation never improves
        protocol = TrainProtocol(patience_epochs=5, max_epochs=400, seed=0,
                                 lr=0.0)
        model = train_prediction(g, target, cfg, protocol)
        assert model.best_epoch == 0
        assert len(model.history) == 6  # best epoch + patience

    def test_deterministic_validation_curves(self):
        m, target = self._linear_dataset(n=80)

        def run():
            g = build_bipartite(m)
            cfg = ConvConfig(n_layers=1, hidden_dim=8, dropout_rate=0.3,
                             aggregation_norm=EdgeScaling.POST_NORM)
            protocol = TrainProtocol(patience_epochs=10, max_epochs=40,
                                     seed=3)
            model = train_prediction(g, target, cfg, protocol)
            return [rec.val_metric for rec in model.history]

        assert run() == run()

    def test_target_row_count_checked(self):
        m, target = self._linear_dataset(n=50)
        g = build_bipartite(m)
        with pytest.raises(ValueError, match="target rows"):
            train_prediction(g, target[:20],
                             ConvConfig(n_layers=1, hidden_dim=4),
                             TrainProtocol())

    def test_pathway_channel_with_learnable_alpha_trains(self):
        m, target = self._linear_dataset(n=60)
        g = build_bipartite(m)
        sets = GeneSetCollection([("s1", [0, 1, 2]), ("s2", [2, 3])])
        cfg = ConvConfig(n_layers=2, hidden_dim=8, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.POST_NORM,
                         alpha="learnable")
        protocol = TrainProtocol(patience_epochs=10, max_epochs=40, seed=0)
        model = train_prediction(g, target, cfg, protocol, gene_sets=sets)
        assert model.graph.has_pathways
        assert "alpha" in model.store
        assert np.isfinite(model.validation_rmse)

    def test_learned_feature_table_trains(self, monkeypatch):
        # past ONE_HOT_MAX_FEATURES the features start from a learned table,
        # which the loss reaches through the first layer's messages
        rng = np.random.default_rng(13)
        k = ONE_HOT_MAX_FEATURES + 1
        dense = rng.uniform(0.1, 1.0, (60, k)) * (rng.random((60, k)) < 0.05)
        g = build_bipartite(SparseMatrix.from_dense(dense))
        grads = []
        adam_step = common.adam_step

        def recording(store, **kwargs):
            grads.append(np.abs(store.grad("feature_table")).max())
            return adam_step(store, **kwargs)

        monkeypatch.setattr(common, "adam_step", recording)
        model = train_prediction(g, rng.standard_normal((60, 2)),
                                 ConvConfig(n_layers=2, hidden_dim=8),
                                 TrainProtocol(max_epochs=2, seed=4))
        table = model.store.value("feature_table")
        assert table.shape == (k, 8)
        assert len(grads) == 2 and min(grads) > 0
        bound = 1 / np.sqrt(8)
        first = np.random.default_rng(4).uniform(-bound, bound, (k, 8))
        assert not np.allclose(table, first)

    def test_near_empty_pathway_operator_builds_no_dense_copy(self):
        # 1500 features in 40 gene sets of 8: at most 2240 of the
        # feature-feature operator's 2.25 M entries are stored, so spmm
        # takes CSR for it and never builds its k x k dense copy
        rng = np.random.default_rng(14)
        n, k = 60, 1500
        dense = rng.uniform(0.1, 1.0, (n, k)) * (rng.random((n, k)) < 0.2)
        m = SparseMatrix.from_dense(dense)
        sets = GeneSetCollection(
            [(f"s{i}", rng.choice(k, 8, replace=False).tolist())
             for i in range(40)])
        cfg = ConvConfig(n_layers=2, hidden_dim=8)
        model = train_prediction(build_bipartite(m),
                                 rng.standard_normal((n, 2)), cfg,
                                 TrainProtocol(max_epochs=2, seed=0),
                                 gene_sets=sets)
        pathway = model.graph.operators(EdgeScaling.POST_NORM)[2]
        assert pathway.nnz > 0 and pathway._dense_cache is None
        # an eval forward on fresh operators stays below the copy's size
        fresh = augment_with_pathways(build_bipartite(m), sets)
        tracemalloc.start()
        try:
            forward(Tape(model.store, train=False), fresh, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * k * 8


class TestJointEmbeddingLoss:
    def _store(self, d, out_dim, seed=0):
        store = ParamStore()
        register_embed_params(store, d, out_dim, seed)
        return store

    def test_masked_all_unlabeled_gives_zero_celltype(self):
        rng = np.random.default_rng(13)
        store = self._store(6, 4)
        tape = Tape(store, train=False)
        h = tape.constant(rng.standard_normal((5, 6)))
        _, _, celltype, _ = joint_embedding_loss(
            tape, h, rng.standard_normal((5, 4)), np.full(5, -1), 3, 0.1)
        assert float(np.asarray(tape.value(celltype))) == 0.0

    def test_zero_rest_dims_zero_regular(self):
        rng = np.random.default_rng(14)
        store = self._store(5, 3)
        tape = Tape(store, train=False)
        h_val = np.zeros((4, 5))
        h_val[:, :2] = rng.standard_normal((4, 2))
        h = tape.constant(h_val)
        _, _, _, regular = joint_embedding_loss(
            tape, h, rng.standard_normal((4, 3)), np.zeros(4, dtype=int),
            2, 0.5)
        assert float(np.asarray(tape.value(regular))) == 0.0

    def test_aligned_logits_celltype_tail_bound(self):
        # margin-10 one-hot logits: per-cell CE = log(1 + (T-1)e^{-10})
        rng = np.random.default_rng(15)
        n, t_dims, d = 12, 3, 8
        labels = rng.integers(0, t_dims, n)
        h_val = np.zeros((n, d))
        h_val[np.arange(n), labels] = 10.0
        store = self._store(d, 4)
        tape = Tape(store, train=False)
        _, _, celltype, _ = joint_embedding_loss(
            tape, tape.constant(h_val), rng.standard_normal((n, 4)),
            labels, t_dims, 0.0)
        per_cell = np.log(1 + (t_dims - 1) * np.exp(-10.0))
        value = float(np.asarray(tape.value(celltype)))
        assert value == pytest.approx(per_cell, rel=1e-9)
        assert value * n < 1e-4 * n  # spec tail bound at margin 10

    def test_recon_zero_when_network_reproduces_input(self):
        store = self._store(4, 4, seed=1)
        for name in store.names():
            store.entries[name].value[:] = 0.0
        # zero net output: recon equals mse(0, x) = mean x^2
        rng = np.random.default_rng(16)
        x = rng.standard_normal((6, 4))
        tape = Tape(store, train=False)
        _, recon, _, _ = joint_embedding_loss(
            tape, tape.constant(rng.standard_normal((6, 4))), x,
            np.zeros(6, dtype=int), 2, 0.0)
        assert float(np.asarray(tape.value(recon))) \
            == pytest.approx((x ** 2).mean())

    def test_label_out_of_range_rejected(self):
        store = self._store(5, 3)
        tape = Tape(store, train=False)
        h = tape.constant(np.zeros((3, 5)))
        with pytest.raises(ValueError, match="out of range"):
            joint_embedding_loss(tape, h, np.zeros((3, 3)),
                                 np.array([0, 1, 3]), 3, 0.1)


class TestTrainJointEmbedding:
    def _dataset(self, seed=17):
        return generate_synthetic(150, dims=(40, 30), n_types=3,
                                  n_batches=2, noise=0.05, dropout=0.2,
                                  seed=seed)

    def test_embedding_keeps_cell_type_dims(self):
        ds = self._dataset()
        protocol = TrainProtocol(patience_epochs=20, max_epochs=60, seed=0)
        model = train_joint_embedding(ds.modality_1, ds.modality_2_aligned(),
                                      ds.cell_type_labels,
                                      ConvConfig(hidden_dim=24), protocol,
                                      EmbedConfig(lsi_rank=16))
        assert model.n_types == 3
        assert model.embed().shape == (150, 24)

    def test_deterministic_per_seed(self):
        ds = self._dataset()

        def run():
            protocol = TrainProtocol(patience_epochs=10, max_epochs=25,
                                     seed=5)
            model = train_joint_embedding(
                ds.modality_1, ds.modality_2_aligned(),
                ds.cell_type_labels, ConvConfig(hidden_dim=16), protocol,
                EmbedConfig(lsi_rank=12))
            return model.embed()

        assert np.array_equal(run(), run())

    def test_unaligned_rows_rejected(self):
        ds = self._dataset()
        small = SparseMatrix.from_dense(
            ds.modality_1.to_dense()[:100])
        with pytest.raises(ValueError, match="row-aligned"):
            train_joint_embedding(small, ds.modality_2_aligned(),
                                  ds.cell_type_labels, ConvConfig(),
                                  TrainProtocol())


class TestSplitCells:
    def test_sizes_and_disjointness(self):
        train, val = split_cells(100, 0.85, seed=0)
        assert len(train) == 85 and len(val) == 15
        assert len(np.intersect1d(train, val)) == 0
        assert len(np.union1d(train, val)) == 100

    def test_validation_never_empty(self):
        train, val = split_cells(3, 0.99, seed=0)
        assert len(val) >= 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_cells_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least 2 cells.*got {n}$"):
            split_cells(n, 0.85, seed=0)

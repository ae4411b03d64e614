import weakref

import numpy as np
import pytest

from cellgraph.autodiff import ParamStore, Tape, Var, finite_difference_check
from cellgraph.convnet import (ONE_HOT_MAX_FEATURES, ConvConfig,
                               TASK_LAYER_COUNTS, conv_layer,
                               decoupled_forward, decoupled_propagate, forward,
                               init_decoupled_params, init_params,
                               input_transform, readout)
from cellgraph.graph import (EdgeScaling, GeneSetCollection,
                             augment_with_pathways, build_bipartite)
from cellgraph.linalg import SparseMatrix, spmm, standardize_rows
from cellgraph.tasks import TrainProtocol, prediction


SYM = EdgeScaling.SYMMETRIC


def toy_graph(dense):
    return build_bipartite(SparseMatrix.from_dense(np.asarray(dense, float)))


def relu(x):
    return np.maximum(x, 0.0)


class TestInputTransform:
    def setup_method(self):
        self.g = toy_graph([[1.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        self.cfg = ConvConfig(n_layers=1, hidden_dim=4, dropout_rate=0.0,
                              aggregation_norm=EdgeScaling.SYMMETRIC)

    def test_zero_inputs_zero_bias_give_zero(self):
        store = ParamStore()
        init_params(self.g, self.cfg, store, seed=0)
        t = Tape(store)
        cell, _ = input_transform(t, self.g)
        assert np.array_equal(t.value(cell), np.zeros((3, 4)))

    def test_cell_start_is_exact_zero_and_takes_no_gradient(self):
        store = ParamStore()
        init_params(self.g, self.cfg, store, seed=0)
        t = Tape(store, train=True)
        cell, _ = input_transform(t, self.g)
        assert np.array_equal(t.value(cell), np.zeros((3, 4)))
        node = t.nodes[cell]
        assert node.param_name is None and node.parents == ()
        assert not node.needs_grad

    def test_one_hot_selects_relu_of_weight_rows(self):
        store = ParamStore()
        init_params(self.g, self.cfg, store, seed=0)
        t = Tape(store)
        _, feat = input_transform(t, self.g)
        w = store.value("in.feat.w")
        b = store.value("in.feat.b")
        assert np.allclose(t.value(feat), relu(w + b))


class TestInitParams:
    def test_one_hot_registers_no_table(self):
        # the identity is implicit: the input layer reads its weight rows
        store = ParamStore()
        init_params(toy_graph(np.ones((2, 3))), ConvConfig(hidden_dim=8),
                    store, seed=0)
        assert "feature_table" not in store
        assert store.value("in.feat.w").shape == (3, 8)

    def test_cell_start_reads_no_parameter(self):
        g = toy_graph(np.ones((5, 2)))
        store = ParamStore()
        init_params(g, ConvConfig(hidden_dim=4), store, seed=0)
        assert not any(name.startswith("in.cell") for name in store.names())
        rng = np.random.default_rng(1)
        for name in store.names():
            store.value(name)[:] = rng.standard_normal(
                store.value(name).shape)
        t = Tape(store)
        cell, _ = input_transform(t, g)
        # only the features have an input: whatever the weights, the
        # cells start at zero
        assert np.array_equal(t.value(cell), np.zeros((5, 4)))

    def test_table_registered_first(self):
        store = ParamStore()
        init_params(toy_graph(np.ones((2, ONE_HOT_MAX_FEATURES + 1))),
                    ConvConfig(hidden_dim=8), store, seed=0)
        assert store.names()[:3] == ["feature_table", "in.feat.w",
                                     "in.feat.b"]
        assert store.value("in.feat.w").shape == (8, 8)

    @staticmethod
    def _network(n_layers, pathways=True, **conv):
        g = toy_graph([[1.0, 2.0, 0.5], [0.5, 1.0, 2.0]])
        if pathways:
            g = augment_with_pathways(g, GeneSetCollection([("s", [0, 1, 2])]))
        cfg = ConvConfig(n_layers=n_layers, hidden_dim=4, **conv)
        store = ParamStore()
        init_params(g, cfg, store, seed=0)
        return g, cfg, store

    def test_last_layer_registers_the_vu_channel_alone(self):
        def channel(layer, ch):
            return [f"l{layer}.{ch}.{p}" for p in ("w", "b", "gn.g", "gn.b")]

        names = self._network(4, alpha="learnable")[2].names()
        assert names == (["in.feat.w", "in.feat.b"]
                         + [name for layer in (1, 2, 3)
                            for ch in ("uv", "vu", "vv")
                            for name in channel(layer, ch)]
                         + channel(4, "vu") + ["readout.w", "alpha"])

    def test_one_layer_registers_no_alpha_and_no_pathway_channel(self):
        # the pathway channel feeds only feature updates, and a one-layer
        # network computes none, so nothing mixes it in
        assert self._network(1, alpha="learnable")[2].names() == [
            "in.feat.w", "in.feat.b", "l1.vu.w", "l1.vu.b", "l1.vu.gn.g",
            "l1.vu.gn.b", "readout.w"]

    @pytest.mark.parametrize("n_layers, pathways, conv", [
        (1, True, {"alpha": "learnable"}),
        (2, True, {"alpha": "learnable"}),
        (3, True, {"aggregation_norm": SYM, "residual_mode": "skip"}),
        (3, False, {"alpha": "learnable"}),
    ])
    def test_forward_reads_every_registered_parameter(self, n_layers,
                                                      pathways, conv):
        g, cfg, store = self._network(n_layers, pathways, **conv)
        t = Tape(store, rng=np.random.default_rng(0))
        forward(t, g, cfg)
        read = {node.param_name for node in t.nodes} - {None}
        assert read == set(store.names())

    def test_table_within_bound_and_same_for_same_seed(self):
        g = toy_graph(np.ones((4, 2001)))
        tables = []
        for _ in range(2):
            store = ParamStore()
            init_params(g, ConvConfig(hidden_dim=16), store, seed=5)
            tables.append(store.value("feature_table"))
        assert tables[0].shape == (2001, 16)
        bound = 1 / np.sqrt(16)
        assert np.all(np.abs(tables[0]) <= bound)
        assert np.array_equal(tables[0], tables[1])
        # the table has a generator of its own, seeded as the network's
        assert np.array_equal(tables[0], np.random.default_rng(5).uniform(
            -bound, bound, size=(2001, 16)))

    def test_table_dim_zero_rejected(self):
        with pytest.raises(ValueError):
            init_params(toy_graph(np.ones((2, 2001))),
                        ConvConfig(hidden_dim=0), ParamStore(), seed=0)

    def test_no_table_at_exactly_2000_features(self):
        assert ONE_HOT_MAX_FEATURES == 2000
        for k, has in ((2000, False), (2001, True)):
            store = ParamStore()
            init_params(toy_graph(np.ones((2, k))), ConvConfig(hidden_dim=8),
                        store, seed=0)
            assert ("feature_table" in store) == has
            assert store.value("in.feat.w").shape == ((8 if has else k), 8)


class TestConvLayer:
    def test_empty_graph_pure_residual_with_zero_bias(self):
        with pytest.warns(UserWarning, match="edgeless"):
            g = build_bipartite(SparseMatrix.from_coo(2, 2, [], [], []))
        cfg = ConvConfig(n_layers=2, hidden_dim=3, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.POST_NORM,
                         residual_mode="skip")
        store = ParamStore()
        init_params(g, cfg, store, seed=0)
        t = Tape(store)
        rng = np.random.default_rng(1)
        h_cell = t.constant(rng.standard_normal((2, 3)))
        h_feat = t.constant(rng.standard_normal((2, 3)))
        new_cell, new_feat = conv_layer(
            t, g.operators(EdgeScaling.POST_NORM), h_cell, h_feat, 1, cfg,
            h_feat)
        # messages are group_norm(relu(0 + b)) = group_norm(0) = beta = 0
        assert np.allclose(t.value(new_cell), t.value(h_cell))
        assert np.allclose(t.value(new_feat), t.value(h_feat))

    def test_alpha_one_ignores_cell_channel_in_feature_update(self):
        rng = np.random.default_rng(2)
        dense = np.abs(rng.standard_normal((3, 2))) + 0.1
        g = toy_graph(dense)
        g.ff_i = np.array([0])
        g.ff_j = np.array([1])
        g.ff_weights = np.array([0.8])
        cfg = ConvConfig(n_layers=2, hidden_dim=3, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC, alpha=1.0,
                         residual_mode="skip")
        store = ParamStore()
        init_params(g, cfg, store, seed=3)
        # zero the cells->features channel parameters: with alpha=1 the
        # feature update must not change at all
        t = Tape(store)
        h_cell = t.constant(rng.standard_normal((3, 3)))
        h_feat = t.constant(rng.standard_normal((2, 3)))
        _, feat_a = conv_layer(t, g.operators(SYM), h_cell, h_feat, 1, cfg,
                               h_feat)
        store.entries["l1.uv.w"].value[:] = 0.0
        store.entries["l1.uv.b"].value[:] = 7.7
        t2 = Tape(store)
        h_cell2 = t2.constant(t.value(h_cell))
        h_feat2 = t2.constant(t.value(h_feat))
        _, feat_b = conv_layer(t2, g.operators(SYM), h_cell2, h_feat2, 1, cfg,
                               h_feat2)
        assert np.allclose(t.value(feat_a), t2.value(feat_b))

    def test_hand_expanded_aggregation(self):
        # 3 cells, 2 features, unit weights; symmetric normalization
        dense = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        g = toy_graph(dense)
        cfg = ConvConfig(n_layers=2, hidden_dim=2, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC,
                         residual_mode="skip")
        store = ParamStore()
        init_params(g, cfg, store, seed=4)
        rng = np.random.default_rng(5)
        hc = rng.standard_normal((3, 2))
        hf = rng.standard_normal((2, 2))
        t = Tape(store)
        h_feat = t.constant(hf)
        new_cell, new_feat = conv_layer(t, g.operators(SYM), t.constant(hc),
                                        h_feat, 1, cfg, h_feat)
        deg_c = dense.sum(axis=1)
        deg_f = dense.sum(axis=0)
        norm = dense / np.sqrt(np.outer(deg_c, deg_f))
        m_uv = relu(norm.T @ hc @ store.value("l1.uv.w")
                    + store.value("l1.uv.b"))
        m_vu = relu(norm @ hf @ store.value("l1.vu.w")
                    + store.value("l1.vu.b"))
        assert np.allclose(t.value(new_feat), hf + m_uv)
        assert np.allclose(t.value(new_cell), hc + m_vu)

    def test_initial_residual_uses_first_layer_state(self):
        dense = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = toy_graph(dense)
        cfg = ConvConfig(n_layers=2, hidden_dim=2, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC,
                         residual_mode="initial")
        store = ParamStore()
        init_params(g, cfg, store, seed=6)
        rng = np.random.default_rng(7)
        h0f = rng.standard_normal((2, 2))
        hc, hf = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        t = Tape(store)
        new_cell, new_feat = conv_layer(t, g.operators(SYM), t.constant(hc),
                                        t.constant(hf), 1, cfg,
                                        t.constant(h0f))
        norm = dense / 2.0
        m_uv = relu(norm.T @ hc @ store.value("l1.uv.w")
                    + store.value("l1.uv.b"))
        m_vu = relu(norm @ hf @ store.value("l1.vu.w")
                    + store.value("l1.vu.b"))
        # the features add their first state; the cells' first state is
        # zero, so their update is the message alone
        assert np.allclose(t.value(new_feat), h0f + m_uv)
        assert np.allclose(t.value(new_cell), m_vu)


class TestPathwayChannel:
    def test_parameters_follow_the_graph(self):
        # the channel's weights (and a learnable alpha) exist exactly when
        # the graph has pathway edges; no config flag turns it on
        m = SparseMatrix.from_dense(np.array([[1.0, 2.0, 0.5],
                                              [0.5, 1.0, 2.0]]))
        sets = GeneSetCollection([("s", [0, 1, 2])])
        for alpha in (0.5, "learnable"):
            cfg = ConvConfig(alpha=alpha)
            for g, has in ((augment_with_pathways(build_bipartite(m), sets),
                            True),
                           (build_bipartite(m), False)):
                store = ParamStore()
                init_params(g, cfg, store, seed=0)
                assert ("l1.vv.w" in store) == has
                assert ("l1.vv.gn.g" in store) == has
                assert ("alpha" in store) == (has and alpha == "learnable")


class TestReadout:
    def _trace(self, t, arrays):
        return [t.constant(a) for a in arrays]

    def test_single_layer_identity_weight(self):
        store = ParamStore()
        store.register("readout.w", np.array([1.0]))
        t = Tape(store)
        h = np.random.default_rng(8).standard_normal((3, 2))
        out = readout(t, self._trace(t, [h]))
        assert np.allclose(t.value(out), h)

    def test_selector_weight(self):
        store = ParamStore()
        store.register("readout.w", np.array([0.0, 1.0]))
        rng = np.random.default_rng(9)
        h1, h2 = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        t = Tape(store)
        out = readout(t, self._trace(t, [h1, h2]))
        assert np.allclose(t.value(out), h2)

    def test_matches_explicit_weighted_sum(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal(3)
        store = ParamStore()
        store.register("readout.w", w)
        arrays = [rng.standard_normal((4, 2)) for _ in range(3)]
        t = Tape(store)
        out = readout(t, self._trace(t, arrays))
        assert np.allclose(t.value(out), sum(wi * a for wi, a in zip(w, arrays)))

    def test_empty_trace_rejected(self):
        store = ParamStore()
        store.register("readout.w", np.array([1.0]))
        with pytest.raises(ValueError):
            readout(Tape(store), [])

    def test_readout_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal((3, 2)) for _ in range(2)]
        target = rng.standard_normal((3, 2))
        store = ParamStore()
        store.register("readout.w", np.array([0.3, 0.7]))

        def build(t):
            return t.mse(readout(t, self._trace(t, arrays)), target)

        assert finite_difference_check(build, store) < 1e-4


class TestDecoupledPropagate:
    @staticmethod
    def assert_states(states, expected):
        assert len(states) == len(expected)
        for got, want in zip(states, expected):
            assert np.allclose(got, want)

    def test_disjoint_pairs_reflect_state(self):
        x = np.diag(np.random.default_rng(12).uniform(0.5, 2.0, 4))
        self.assert_states(decoupled_propagate(x, 2, SYM), [x, x, x])

    def test_zero_steps_input_only(self):
        self.assert_states(decoupled_propagate(np.eye(2), 0, SYM),
                           [np.eye(2)])

    def test_first_state_is_the_input(self):
        x = np.abs(np.random.default_rng(15).standard_normal((5, 3))) + 0.1
        for mode in EdgeScaling:
            assert decoupled_propagate(x, 2, mode)[0] is x

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        dense = np.abs(rng.standard_normal((6, 4))) + 0.05
        deg_c = dense.sum(axis=1)
        deg_f = dense.sum(axis=0)
        norm = dense / np.sqrt(np.outer(deg_c, deg_f))
        self.assert_states(decoupled_propagate(dense, 1, SYM),
                           [dense, norm @ (norm.T @ dense)])

    def test_min_max_matches_dense_oracle(self):
        # the stored entries' values, mapped onto [0, 1] over the stored
        # entries alone, weigh the edges of every hop
        rng = np.random.default_rng(16)
        dense = rng.standard_normal((6, 4))
        dense[1, 2] = dense[4, 0] = 0.0
        stored = dense != 0
        lo, hi = dense[stored].min(), dense[stored].max()
        w = np.where(stored, (dense - lo) / (hi - lo), 0.0)
        one = w @ (w.T @ dense)
        self.assert_states(decoupled_propagate(dense, 2, EdgeScaling.MIN_MAX),
                           [dense, one, w @ (w.T @ one)])

    def test_post_norm_standardizes_each_hop(self):
        rng = np.random.default_rng(14)
        dense = rng.standard_normal((5, 4))
        feat = standardize_rows(dense.T @ dense)
        self.assert_states(
            decoupled_propagate(dense, 1, EdgeScaling.POST_NORM),
            [dense, standardize_rows(dense @ feat)])


class TestForward:
    def test_zero_layers_decoupled_is_mlp_only(self):
        cfg = ConvConfig(n_layers=0, hidden_dim=4, dropout_rate=0.0)
        store = ParamStore()
        init_decoupled_params(2, cfg, store, seed=15)
        x = np.random.default_rng(16).standard_normal((3, 2))
        t = Tape(store)
        out = decoupled_forward(t, [x], cfg)
        hidden = relu(x @ store.value("dec.w1") + store.value("dec.b1"))
        expected = (hidden @ store.value("dec.w2") + store.value("dec.b2"))
        assert np.allclose(t.value(out), expected * 1.0)  # readout w = [1]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        dense = np.abs(rng.standard_normal((5, 3))) + 0.1
        g = toy_graph(dense)
        cfg = ConvConfig(n_layers=2, hidden_dim=4, dropout_rate=0.3,
                         aggregation_norm=EdgeScaling.SYMMETRIC)
        store = ParamStore()
        init_params(g, cfg, store, seed=18)

        def run():
            t = Tape(store, train=True, rng=np.random.default_rng(99))
            return t.value(forward(t, g, cfg)).copy()

        assert np.array_equal(run(), run())

    def test_coupled_equals_manual_composition(self):
        rng = np.random.default_rng(19)
        dense = np.abs(rng.standard_normal((4, 3))) + 0.1
        g = toy_graph(dense)
        cfg = ConvConfig(n_layers=2, hidden_dim=3, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC,
                         residual_mode="skip")
        store = ParamStore()
        init_params(g, cfg, store, seed=20)
        t = Tape(store)
        h_hat = forward(t, g, cfg)
        t2 = Tape(store)
        hc, hf = input_transform(t2, g)
        states = []
        for layer in (1, 2):
            hc, hf = conv_layer(t2, g.operators(SYM), hc, hf, layer, cfg,
                                hf, last=layer == 2)
            states.append(hc)
        manual = readout(t2, states)
        assert np.allclose(t.value(h_hat), t2.value(manual))

    def test_post_norm_config_multiplies_raw_weights(self):
        # the config alone owns the scaling mode: on a fresh graph, a
        # POST_NORM network aggregates over the raw measured values
        dense = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.5],
                          [4.0, 1.0, 0.0], [0.0, 0.0, 2.5]])
        g = build_bipartite(SparseMatrix.from_dense(dense))
        cfg = ConvConfig(n_layers=1, hidden_dim=4, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.POST_NORM,
                         residual_mode="initial")
        store = ParamStore()
        init_params(g, cfg, store, seed=25)
        rng = np.random.default_rng(26)
        for name in store.names():
            store.entries[name].value[:] = rng.uniform(
                0.2, 1.0, store.entries[name].value.shape)
        v = store.value

        def group_norm(z, gamma, beta):
            mu = z.mean(axis=1, keepdims=True)
            var = z.var(axis=1, keepdims=True)
            return (z - mu) / np.sqrt(var + 1e-5) * gamma + beta

        h0_feat = relu(v("in.feat.w") + v("in.feat.b"))
        m_vu = group_norm(relu(dense @ h0_feat @ v("l1.vu.w") + v("l1.vu.b")),
                          v("l1.vu.gn.g"), v("l1.vu.gn.b"))
        # the cells' initial state is zero, so the initial residual adds
        # nothing to the message
        expected = v("readout.w")[0] * m_vu
        t = Tape(store)
        assert np.allclose(t.value(forward(t, g, cfg)), expected,
                           atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        dense = np.abs(rng.standard_normal((6, 4))) + 0.1
        cfg = ConvConfig(n_layers=2, hidden_dim=4, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC)
        perm = rng.permutation(6)

        def embed(d):
            g = toy_graph(d)
            store = ParamStore()
            init_params(g, cfg, store, seed=22)
            t = Tape(store)
            return t.value(forward(t, g, cfg))

        assert np.allclose(embed(dense)[perm], embed(dense[perm]), atol=1e-12)

    def test_bounded_with_initial_residual(self):
        rng = np.random.default_rng(23)
        dense = np.abs(rng.standard_normal((5, 4))) + 0.1
        g = toy_graph(dense)
        cfg = ConvConfig(n_layers=4, hidden_dim=4, dropout_rate=0.0,
                         aggregation_norm=EdgeScaling.SYMMETRIC,
                         residual_mode="initial")
        store = ParamStore()
        init_params(g, cfg, store, seed=24)
        t = Tape(store)
        out = t.value(forward(t, g, cfg))
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() < 1e3


class TestTaskDefaults:
    def test_layer_counts(self):
        assert TASK_LAYER_COUNTS == {"predict": 4, "match": 3, "embed": 2}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConvConfig(alpha=1.5).validate()
        with pytest.raises(ValueError):
            ConvConfig(dropout_rate=1.0).validate()
        with pytest.raises(ValueError):
            ConvConfig(hidden_dim=5, n_groups=2).validate()
        ConvConfig(alpha="learnable").validate()


# ---------------------------------------------------------------------------
# the network as it was recorded with the matmul -> add -> relu chain and
# with its initial residual spelled out


def reference_affine(tape, x, w, b, relu=False):
    """Tape.affine as the matmul -> add (-> relu) chain it stands for."""
    out = tape.add(tape.matmul(x, w), b)
    return tape.relu(out) if relu else out


def reference_forward(tape, g, cfg):
    """forward() with every dense layer as the three-node chain and every
    residual an add, the cells' from their zero start; the last layer
    records no feature update, and the zero start draws no dropout mask."""
    operators = g.operators(cfg.aggregation_norm)
    rate = cfg.dropout_rate

    def message(operator, h, layer, channel):
        p = f"l{layer}.{channel}"
        agg = tape.spmm_const(operator, h, operator.transpose())
        msg = reference_affine(tape, agg,
                               tape.param(p + ".w"), tape.param(p + ".b"),
                               relu=True)
        if cfg.aggregation_norm is EdgeScaling.POST_NORM:
            msg = tape.group_norm(msg, tape.param(p + ".gn.g"),
                                  tape.param(p + ".gn.b"),
                                  n_groups=cfg.n_groups)
        return msg

    cell = tape.constant(np.zeros((g.n_cells, cfg.hidden_dim)))
    feat_w = tape.param("in.feat.w")
    if g.n_features > ONE_HOT_MAX_FEATURES:
        feat_w = tape.matmul(tape.param("feature_table"), feat_w)
    feat = tape.relu(tape.add(feat_w, tape.param("in.feat.b")))
    h0_cell, h0_feat = cell, feat
    if rate > 0:
        feat = tape.dropout(feat, rate)
    skip = cfg.residual_mode == "skip"
    states = []
    for layer in range(1, cfg.n_layers + 1):
        last = layer == cfg.n_layers
        if not last:
            m_uv = message(operators[1], cell, layer, "uv")
        m_vu = message(operators[0], feat, layer, "vu")
        cell = tape.add(cell if skip else h0_cell, m_vu)
        if rate > 0:
            cell = tape.dropout(cell, rate)
        states.append(cell)
        if last:
            break
        if operators[2] is not None:
            m_vv = message(operators[2], feat, layer, "vv")
            if cfg.alpha == "learnable":
                m_uv = tape.scalar_mix([m_vv, m_uv], tape.param("alpha"),
                                       tied=True)
            else:
                m_uv = tape.scalar_mix([m_vv, m_uv],
                                       np.array([cfg.alpha, 1 - cfg.alpha]))
        feat = tape.add(feat if skip else h0_feat, m_uv)
        if rate > 0:
            feat = tape.dropout(feat, rate)
    return readout(tape, states)


class RecordingRng:
    """A generator that keeps every dropout draw it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]


def tape_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape keeps alive, which are those its
    vjp closures hold (values live in the handles); a view counts as its
    base."""
    arrays = {}

    def visit(obj):
        if isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif isinstance(obj, Var):
            visit(obj.value)
        elif isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            arrays[id(obj)] = obj.nbytes

    for node in tape.nodes:
        for cell in getattr(node.vjp, "__closure__", None) or ():
            visit(cell.cell_contents)
    return sum(arrays.values())


def pathway_network(pathways=True, n_features=9, **conv):
    """A 14 x n_features graph, gene sets optional, with every parameter
    drawn away from zero; past ONE_HOT_MAX_FEATURES features the feature
    input is the learned table."""
    rng = np.random.default_rng(40)
    dense = rng.uniform(0.2, 2.0, (14, n_features)) * (
        rng.random((14, n_features)) < 0.5)
    g = toy_graph(dense)
    if pathways:
        g = augment_with_pathways(g, GeneSetCollection(
            [("a", [0, 1, 2]), ("b", [3, 4, 5, 6])]))
    cfg = ConvConfig(**{"n_layers": 3, "hidden_dim": 6, "n_groups": 2,
                        "dropout_rate": 0.3, **conv})
    store = ParamStore()
    init_params(g, cfg, store, seed=41)
    store.register("head.w", rng.standard_normal((6, 2)))
    store.register("head.b", rng.standard_normal((1, 2)))
    for name in store.names():
        value = store.value(name)
        value[:] = rng.uniform(0.2, 0.9, value.shape) * np.where(
            rng.random(value.shape) < 0.5, -1.0, 1.0)
        if name.endswith("alpha"):
            value[:] = np.abs(value)
    return g, cfg, store, rng.standard_normal((14, 2))


class TestAgainstReference:
    @pytest.mark.parametrize("setup", [
        {},
        {"pathways": False},
        {"alpha": "learnable", "n_features": ONE_HOT_MAX_FEATURES + 1},
        {"residual_mode": "skip", "n_features": ONE_HOT_MAX_FEATURES + 1},
        {"residual_mode": "skip", "alpha": "learnable", "pathways": False},
        {"aggregation_norm": SYM, "dropout_rate": 0.0, "n_layers": 1},
    ])
    def test_same_output_loss_gradients_and_draws(self, setup):
        g, cfg, store, target = pathway_network(**setup)
        runs = []
        for net, head in ((reference_forward, reference_affine),
                          (forward, Tape.affine)):
            rng = RecordingRng(42)
            t = Tape(store, rng=rng)
            h_hat = net(t, g, cfg)
            loss = t.rmse(head(t, h_hat, t.param("head.w"),
                               t.param("head.b")), target)
            t.backward(loss)
            runs.append((t.value(h_hat), t.value(loss),
                         {k: store.grad(k).copy() for k in store.names()},
                         rng.draws))
            store.zero_grads()
        (ref_h, ref_loss, ref_grads, ref_draws), (h, loss, grads, draws) = runs
        assert np.array_equal(h, ref_h) and np.array_equal(loss, ref_loss)
        for name in store.names():
            assert np.array_equal(grads[name], ref_grads[name]), name
        assert len(draws) == len(ref_draws)
        assert all(np.array_equal(a, b) for a, b in zip(draws, ref_draws))

    @pytest.mark.parametrize("pathways", [True, False])
    def test_spmm_count(self, pathways, monkeypatch):
        g, cfg, store, _ = pathway_network(pathways=pathways)
        calls = []
        spmm_const = Tape.spmm_const

        def counting(tape, s, h, st):
            calls.append(s is g.operators(cfg.aggregation_norm)[2])
            return spmm_const(tape, s, h, st)

        monkeypatch.setattr(Tape, "spmm_const", counting)
        forward(Tape(store), g, cfg)
        n = cfg.n_layers
        assert calls.count(False) == 2 * n - 1
        assert calls.count(True) == (n - 1 if pathways else 0)

    def test_training_tape_is_smaller(self, monkeypatch):
        # RSS cannot be gated in a unit test; the first training tape of a
        # 4-layer pathway run, counted in bytes, stands in for it
        rng = np.random.default_rng(43)
        dense = rng.uniform(0.2, 2.0, (240, 60)) * (rng.random((240, 60))
                                                    < 0.2)
        g = toy_graph(dense)
        sets = GeneSetCollection([(f"s{i}", list(range(6 * i, 6 * i + 6)))
                                  for i in range(8)])
        cfg = ConvConfig(n_layers=4, hidden_dim=16)
        protocol = TrainProtocol(max_epochs=1, seed=0)
        sizes = []
        backward = Tape.backward

        def measured(tape, loss):
            sizes.append(tape_bytes(tape))
            return backward(tape, loss)

        monkeypatch.setattr(Tape, "backward", measured)
        target = rng.standard_normal((240, 5))
        prediction.train_prediction(g, target, cfg, protocol, gene_sets=sets)
        monkeypatch.setattr(Tape, "affine", reference_affine)
        monkeypatch.setattr(prediction, "forward", reference_forward)
        prediction.train_prediction(g, target, cfg, protocol, gene_sets=sets)
        new, reference = sizes
        # once values live in the handles, the chain's intermediate values
        # are freed too, so the fused ops gain less over it (about 0.94)
        assert new <= reference, (new, reference)
        # 1,203,104 bytes: this run's tape when every node kept its value
        # (node values plus closures), before values moved to the handles
        assert new <= 0.55 * 1_203_104, new


class TestTapeContracts:
    @staticmethod
    def predict(tape, g, cfg):
        h_hat = forward(tape, g, cfg)
        return tape.affine(h_hat, tape.param("head.w"), tape.param("head.b"))

    def test_eval_tape_records_values_only(self):
        g, cfg, store, _ = pathway_network()
        tape = Tape(store, train=False)
        out = self.predict(tape, g, cfg)
        assert all(node.vjp is None for node in tape.nodes)
        with pytest.raises(RuntimeError, match="eval tape"):
            tape.backward(tape.rmse(out, np.zeros((14, 2))))

    def test_eval_tape_keeps_no_array_once_handles_drop(self, monkeypatch):
        g, cfg, store, _ = pathway_network()
        alive = []
        derived = Tape._derived

        def recording(tape, value, parents, vjp):
            handle = derived(tape, value, parents, vjp)
            alive.append(weakref.ref(handle.value))
            return handle

        monkeypatch.setattr(Tape, "_derived", recording)
        tape = Tape(store, train=False)
        out = self.predict(tape, g, cfg)
        assert alive[-1]() is out.value
        del out
        assert len(alive) == len(tape.nodes) - sum(
            node.param_name is not None or not node.parents
            for node in tape.nodes)
        assert all(ref() is None for ref in alive)
        assert tape_bytes(tape) == 0

    def test_gradients_need_no_handle_but_the_loss(self):
        g, cfg, store, target = pathway_network()
        grads = []
        for net, head in ((reference_forward, reference_affine),
                          (forward, Tape.affine)):
            t = Tape(store, rng=np.random.default_rng(42))

            def loss_only():  # every other handle dies on return
                h_hat = net(t, g, cfg)
                return t.rmse(head(t, h_hat, t.param("head.w"),
                                   t.param("head.b")), target)

            t.backward(loss_only())
            grads.append({k: store.grad(k).copy() for k in store.names()})
            store.zero_grads()
        for name in store.names():
            assert np.array_equal(grads[0][name], grads[1][name]), name

    def test_training_epoch_builds_no_transpose(self, monkeypatch):
        g, cfg, store, target = pathway_network()
        g.operators(cfg.aggregation_norm)
        calls = []
        transpose = SparseMatrix.transpose

        def counting(self):
            calls.append(self.shape)
            return transpose(self)

        monkeypatch.setattr(SparseMatrix, "transpose", counting)
        tape = Tape(store, rng=np.random.default_rng(0))
        tape.backward(tape.rmse(self.predict(tape, g, cfg), target))
        assert calls == []
        assert any(store.grad(name).any() for name in store.names())

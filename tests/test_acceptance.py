"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or -rA) to see the
per-criterion lines. The heavy matching fixture is trained once per
(seed, variant) and shared between the skill and ablation criteria.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from cellgraph.assignment import AssignmentProblem, brute_force_solve, solve
from cellgraph.cli import cli_dispatch
from cellgraph.convnet import ConvConfig
from cellgraph.data import generate_synthetic
from cellgraph.gradcheck import run_gradient_checks
from cellgraph.graph import EdgeScaling, build_bipartite
from cellgraph.linalg import SparseMatrix, symmetric_edge_normalize
from cellgraph.metrics import (aggregate, cell_type_asw, graph_connectivity,
                               knn_graph, nmi, nmi_cluster_label,
                               trajectory_conservation)
from cellgraph.tasks import (MatcherConfig, TrainProtocol,
                             match_inference, match_scores,
                             pca_concat_baseline, score_probabilities,
                             svd_linear_baseline, train_joint_embedding,
                             train_matcher, train_prediction)


def report(number, text):
    print(f"\n[acceptance] criterion {number}: PASS - {text}")


# ---------------------------------------------------------------------------
# shared matching fixture (criteria 5 and 6)

MATCH_SEEDS = (0, 1, 2)


def _match_protocol(seed):
    return TrainProtocol(patience_epochs=300, max_epochs=1200, seed=seed,
                         weight_decay=1e-3, lr_decay_rate=0.7,
                         lr_decay_every=200)


@pytest.fixture(scope="module")
def matching_runs():
    ds = generate_synthetic(n_cells=500, noise=0.1, dropout=0.3, seed=7)
    runs = {}
    for seed in MATCH_SEEDS:
        for variant in ("full", "no_propagation", "no_aux"):
            conv = ConvConfig(n_layers=3, hidden_dim=64, dropout_rate=0.5)
            cfg = MatcherConfig()
            if variant == "no_propagation":
                conv.n_layers = 0
            if variant == "no_aux":
                cfg.aux_weight = 0.0
            start = time.perf_counter()
            model = train_matcher(ds.modality_1, ds.modality_2,
                                  ds.correspondence, conv,
                                  _match_protocol(seed), cfg)
            output = model.infer(ds.batch_labels, ds.batch_labels_2())
            elapsed = time.perf_counter() - start
            runs[(seed, variant)] = {
                "scores": match_scores(output, ds.correspondence),
                "seconds": elapsed,
            }
    return runs


def test_criterion_01_gradient_integrity():
    start = time.perf_counter()
    results, worst, passed = run_gradient_checks(n_seeds=20,
                                                 network_seeds=(0,))
    elapsed = time.perf_counter() - start
    assert passed, f"worst relative error {worst:.3e} (limit 1e-4): {results}"
    assert elapsed < 10.0, f"gradient suite took {elapsed:.1f}s (limit 10s)"
    report(1, f"all op kinds + full 2-layer network, worst rel err "
              f"{worst:.2e} in {elapsed:.1f}s")


def test_criterion_02_assignment_exactness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        profits = rng.uniform(-10, 10, size=(5, 5))
        assert solve(AssignmentProblem(profits)).total == \
            brute_force_solve(AssignmentProblem(profits)).total
    for _ in range(200):
        profits = rng.uniform(-10, 10, size=(4, 7))
        assert solve(AssignmentProblem(profits)).total == \
            brute_force_solve(AssignmentProblem(profits)).total
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"assignment suite took {elapsed:.1f}s (limit 5s)"
    report(2, f"1000x 5x5 + 200x 4x7 exact vs brute force in {elapsed:.1f}s")


def test_criterion_03_probability_normalization():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in (3, 17, 64, 200):
        scores = rng.standard_normal((n, n)) * rng.uniform(0.5, 30)
        row_prob, col_prob = score_probabilities(scores)
        worst = max(worst,
                    np.abs(row_prob.sum(axis=1) - 1.0).max(),
                    np.abs(col_prob.sum(axis=0) - 1.0).max())
    assert worst < 1e-6
    report(3, f"rows of P^r / columns of P^c stochastic, worst dev "
              f"{worst:.1e} up to 200x200")


def test_criterion_04_dual_symmetry():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        h1 = rng.standard_normal((n, 6))
        h2 = rng.standard_normal((n, 6))
        batches = rng.integers(0, 3, n)
        truth = np.arange(n)
        fwd = match_inference(h1, h2, batches, batches, percentile=40.0)
        rev = match_inference(h2, h1, batches, batches, percentile=40.0)
        assert sorted((j, i) for i, j in rev.assignment) == fwd.assignment
        s_fwd = match_scores(fwd, truth)
        s_rev = match_scores(rev, truth)
        assert abs(s_fwd["score_softmax"] - s_rev["score_softmax"]) < 1e-9
        assert s_fwd["score_assignment"] == s_rev["score_assignment"]
    report(4, "20 random instances: transposed assignments, scores equal "
              "within 1e-9")


def test_criterion_05_matching_skill(matching_runs):
    run = matching_runs[(0, "full")]
    scores = run["scores"]
    assert run["seconds"] < 300, f"training took {run['seconds']:.0f}s"
    assert scores["top1_accuracy"] >= 0.30, scores
    assert scores["score_assignment"] >= 50.0, scores
    report(5, f"top-1 accuracy {scores['top1_accuracy']:.3f} (>= 0.30), "
              f"assignment score {scores['score_assignment']:.0f} (>= 50, "
              f"uniform = 1.0), softmax score "
              f"{scores['score_softmax']:.2f}, {run['seconds']:.0f}s")


def test_criterion_06_ablation_direction(matching_runs):
    prop_wins = sum(
        matching_runs[(s, "full")]["scores"]["score_assignment"]
        > matching_runs[(s, "no_propagation")]["scores"]["score_assignment"]
        for s in MATCH_SEEDS)
    aux_wins = sum(
        matching_runs[(s, "full")]["scores"]["score_assignment"]
        > matching_runs[(s, "no_aux")]["scores"]["score_assignment"]
        for s in MATCH_SEEDS)
    assert prop_wins >= 2, f"propagation helped in only {prop_wins}/3 seeds"
    assert aux_wins >= 2, f"aux losses helped in only {aux_wins}/3 seeds"
    report(6, f"full model beats no-propagation in {prop_wins}/3 and "
              f"no-aux-loss in {aux_wins}/3 seeds")


def test_criterion_07_prediction_skill():
    ds = generate_synthetic(400, dims=(60, 45), noise=0.1, dropout=0.3,
                            seed=11)
    target = ds.modality_2_aligned().to_dense()
    start = time.perf_counter()
    ratios = []
    for seed in (0, 1, 2):
        protocol = TrainProtocol(patience_epochs=100, max_epochs=600,
                                 seed=seed, weight_decay=1e-4,
                                 lr_decay_rate=0.7, lr_decay_every=150)
        g = build_bipartite(ds.modality_1)
        cfg = ConvConfig(n_layers=4, hidden_dim=48,
                         aggregation_norm=EdgeScaling.POST_NORM,
                         dropout_rate=0.2, residual_mode="initial")
        model = train_prediction(g, target, cfg, protocol)
        baseline = svd_linear_baseline(ds.modality_1, target,
                                       model.train_idx, model.val_idx,
                                       rank=32, seed=seed)
        ratios.append(model.validation_rmse / baseline)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"prediction runs took {elapsed:.0f}s (limit 300s)"
    assert all(r <= 1.05 for r in ratios), ratios
    report(7, "GNN/baseline validation RMSE ratios "
              + ", ".join(f"{r:.3f}" for r in ratios)
              + f" (all <= 1.05) in {elapsed:.0f}s")


def test_criterion_08_joint_embedding_skill():
    ds = generate_synthetic(400, dims=(60, 45), n_types=3, n_batches=2,
                            noise=0.3, dropout=0.6, seed=21)
    m2 = ds.modality_2_aligned()
    baseline = nmi_cluster_label(
        knn_graph(pca_concat_baseline(ds.modality_1, m2, rank=32, seed=0), 15),
        ds.cell_type_labels, seed=0)
    margins = []
    for seed in (0, 1, 2):
        protocol = TrainProtocol(patience_epochs=100, max_epochs=500,
                                 seed=seed, weight_decay=1e-4)
        model = train_joint_embedding(ds.modality_1, m2,
                                      ds.cell_type_labels, ConvConfig(),
                                      protocol)
        score = nmi_cluster_label(knn_graph(model.embed(), 15),
                                  ds.cell_type_labels, seed=0)
        margins.append(score - baseline)
    assert all(m >= 0.05 for m in margins), (baseline, margins)
    report(8, f"NMI margins over PCA-concat baseline ({baseline:.3f}): "
              + ", ".join(f"+{m:.3f}" for m in margins) + " (all >= 0.05)")


def test_criterion_09_metric_identities():
    labels = np.array([0, 0, 1, 2, 2, 1])
    assert nmi(labels, labels) == 1.0

    rng = np.random.default_rng(9)
    far = np.vstack([rng.normal(0, 1e-9, (8, 2)),
                     rng.normal(1e6, 1e-9, (8, 2))])
    two = np.repeat([0, 1], 8)
    assert abs(cell_type_asw(far, two) - 1.0) < 1e-9   # silhouette +1 -> 1
    # silhouette -1 -> 0: the affine map endpoint checked algebraically
    assert (-1.0 + 1.0) / 2.0 == 0.0

    pt = np.arange(12.0)
    assert abs(trajectory_conservation(pt, pt[::-1]) - 0.0) < 1e-9

    blobs = np.vstack([rng.normal(0, 0.05, (10, 2)),
                       rng.normal(40, 0.05, (10, 2))])
    types = np.repeat([0, 1], 10)
    assert graph_connectivity(knn_graph(blobs, 4), types) == 1.0

    assert abs(aggregate(1, 1, 1, 1, 1, 1).overall - 1.0) < 1e-9
    assert abs(aggregate(1, 1, 1, 1, 0, 0).overall - 0.6) < 1e-9
    report(9, "NMI/ASW/trajectory/connectivity/aggregate identities exact "
              "within 1e-9")


def test_criterion_10_early_stopping():
    # zero learning rate: parameters never move, so the validation metric
    # is identical every epoch and can never improve on its first value
    rng = np.random.default_rng(10)
    source = np.abs(rng.standard_normal((80, 10))) + 0.05
    target = rng.standard_normal((80, 3))
    g = build_bipartite(SparseMatrix.from_dense(source))
    cfg = ConvConfig(n_layers=1, hidden_dim=8, dropout_rate=0.0,
                     aggregation_norm=EdgeScaling.POST_NORM)
    protocol = TrainProtocol(patience_epochs=5, max_epochs=400, seed=0,
                             lr=0.0)
    model = train_prediction(g, target, cfg, protocol)
    halted_after = len(model.history) - 1 - model.best_epoch
    assert halted_after <= 5 + 1, (model.best_epoch, len(model.history))
    assert len(model.history) <= model.best_epoch + 5 + 1
    assert len(model.history) < 400
    report(10, f"patience-5 run stopped {halted_after} epochs after its "
               f"best epoch ({model.best_epoch})")


def test_criterion_11_reproducibility(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_dispatch(["synth", "--cells", "100", "--seed", "5",
                         "--out", str(data_dir),
                         "--set", "synth.dim1=24", "--set", "synth.dim2=18",
                         "--set", "synth.types=3"]) == 0
    fast = ["--set", "train.patience=6", "--set", "train.max_epochs=20",
            "--set", "conv.hidden_dim=16", "--set", "match.reduce_rank=10",
            "--set", "embed.lsi_rank=8", "--set", "metrics.knn_k=5"]
    jobs = {
        "synth": ["synth", "--cells", "50", "--seed", "6"],
        "predict": ["predict", "--data", str(data_dir), "--seed", "6",
                    "--set", "conv.n_layers=2", *fast],
        "match": ["match", "--data", str(data_dir), "--seed", "6", *fast],
        "embed": ["embed", "--data", str(data_dir), "--seed", "6", *fast],
    }
    emb_path = None
    for name, argv in jobs.items():
        first = tmp_path / f"{name}_a"
        second = tmp_path / f"{name}_b"
        assert cli_dispatch(argv + ["--out", str(first)]) == 0
        assert cli_dispatch(argv + ["--out", str(second)]) == 0
        entries = sorted(os.listdir(first))
        assert entries == sorted(os.listdir(second))
        for entry in entries:
            assert filecmp.cmp(first / entry, second / entry,
                               shallow=False), f"{name}/{entry} differs"
        if name == "embed":
            emb_path = first / "embedding.mtx"
    eval_args = ["eval", "--embedding", str(emb_path),
                 "--labels", str(data_dir / "types.txt"),
                 "--batches", str(data_dir / "batches.txt"),
                 "--pseudotime", str(data_dir / "pseudotime.txt"),
                 "--knn-k", "5"]
    a, b = tmp_path / "eval_a", tmp_path / "eval_b"
    assert cli_dispatch(eval_args + ["--out", str(a)]) == 0
    assert cli_dispatch(eval_args + ["--out", str(b)]) == 0
    assert filecmp.cmp(a / "metrics.kv", b / "metrics.kv", shallow=False)
    report(11, "synth/predict/match/embed/eval outputs byte-identical "
               "across repeated runs")


def test_criterion_12_edge_normalization_closed_form():
    # unit-weight stars of several sizes: every edge must equal
    # 1/sqrt(deg_center * deg_leaf) with no tolerance at all
    for degree in (1, 2, 4, 5, 9):
        normalized = symmetric_edge_normalize([0] * degree,
                                              list(range(1, degree + 1)),
                                              [1.0] * degree, degree + 1)
        expected = 1.0 / (np.sqrt(degree) * np.sqrt(1.0))
        assert np.all(normalized == expected)
    # general two-level case agrees with the closed form to float precision
    w = symmetric_edge_normalize([0, 0, 1], [1, 2, 3], [1.0] * 3, 4)
    assert abs(w[0] - 0.5) < 1e-15
    assert w[1] == 1.0 / np.sqrt(2)
    assert w[2] == 1.0 / np.sqrt(2)
    report(12, "unit-weight stars normalize to 1/sqrt(deg_u*deg_v) exactly")

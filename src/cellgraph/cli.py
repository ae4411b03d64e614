"""Command-line surface binding the pipelines together.

Subcommands: synth, predict, match, embed, eval, gradcheck. Each reads an
optional config file; --set key=value flags override file keys. Exit codes:
0 success, 1 validation/usage error, 2 runtime failure. Output files carry
no timestamps, so identical configs and seeds give byte-identical reports
at the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .autodiff import save_checkpoint
from .config import ConfigError, RunConfig, apply_setting, load_config_file
from . import data as dio
from . import metrics as met
from .graph import build_bipartite
from .gradcheck import GRADCHECK_TOL, run_gradient_checks
from .tasks import (match_scores, train_joint_embedding, train_matcher,
                    train_prediction, write_run_log)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract wants usage + 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cellgraph")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("synth", description="generate a synthetic dataset")
    common(p)
    p.add_argument("--cells", type=int)
    p.add_argument("--types", type=int)
    p.add_argument("--batches", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--dropout", type=float)

    for name, desc in (("predict", "train the modality prediction head"),
                       ("match", "train the matcher and run assignment"),
                       ("embed", "train the joint embedding")):
        p = sub.add_parser(name, description=desc)
        common(p)
        p.add_argument("--data", help="dataset directory (from synth)")

    p = sub.add_parser("eval", description="score an embedding")
    common(p)
    p.add_argument("--embedding", required=True)
    p.add_argument("--labels", required=True, help="cell type labels")
    p.add_argument("--batches", required=True, help="batch labels")
    p.add_argument("--pseudotime", help="pre-integration pseudotime")
    p.add_argument("--cc-scores", help="per-cell program scores")
    p.add_argument("--pre-embedding", help="pre-integration coordinates")
    p.add_argument("--knn-k", type=int)

    p = sub.add_parser("gradcheck",
                       description="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=20)
    return parser


def _resolve_config(args, task: str) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = load_config_file(args.config, cfg)
    for item in getattr(args, "set", []):
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        apply_setting(cfg, key.strip(), value.strip())
    mappings = [("seed", "seed"), ("out", "out"), ("data", "data")]
    if task == "synth":
        mappings += [("cells", "synth.cells"), ("types", "synth.types"),
                     ("batches", "synth.batches"), ("noise", "synth.noise"),
                     ("dropout", "synth.dropout")]
    if task == "eval":
        mappings += [("knn_k", "metrics.knn_k")]
    for flag, key in mappings:
        value = getattr(args, flag, None)
        if value is not None:
            apply_setting(cfg, key, str(value))
    cfg.task = task
    cfg.validate()
    if task in ("predict", "match", "embed") and not cfg.data:
        raise ConfigError(f"{task} needs --data (or data= in the config)")
    return cfg


def _out_dir(cfg: RunConfig, default: str) -> str:
    out = cfg.out or default
    os.makedirs(out, exist_ok=True)
    return out


def _run_synth(cfg: RunConfig) -> int:
    ds = dio.generate_synthetic(
        cfg.cells, dims=(cfg.dim1, cfg.dim2), n_types=cfg.types,
        n_batches=cfg.batches, noise=cfg.noise, dropout=cfg.synth_dropout,
        seed=cfg.train.seed,
    )
    out = _out_dir(cfg, "synth_out")
    dio.save_dataset(ds, out)
    dio.write_kv({"task": "synth", "n_cells": cfg.cells,
                  "n_types": cfg.types, "n_batches": cfg.batches,
                  "seed": cfg.train.seed}, os.path.join(out, "report.kv"))
    print(f"wrote dataset to {out}")
    return 0


def _run_predict(cfg: RunConfig) -> int:
    ds = dio.load_dataset(cfg.data)
    if ds.modality_2 is None:
        raise ValueError("prediction needs a paired dataset")
    target = ds.modality_2_aligned().to_dense()
    g = build_bipartite(ds.modality_1)
    conv = cfg.conv_config("predict")
    gene_sets = None
    if cfg.gene_sets:
        names_path = os.path.join(cfg.data, "features1.txt")
        gene_sets = dio.load_gene_sets(cfg.gene_sets, names_path)
    model = train_prediction(g, target, conv, cfg.protocol(),
                             gene_sets=gene_sets)
    out = _out_dir(cfg, "predict_out")
    write_run_log(model.history, os.path.join(out, "run.log"))
    dio.write_kv({
        "task": "predict",
        "val_rmse": model.validation_rmse,
        "best_epoch": model.best_epoch,
        "epochs_run": len(model.history),
        "n_cells": g.n_cells,
        "n_layers": conv.n_layers,
        "seed": cfg.train.seed,
    }, os.path.join(out, "report.kv"))
    save_checkpoint(model.store, os.path.join(out, "model.ckpt"))
    dio.write_dense_matrix(model.predict(), os.path.join(out,
                                                         "predictions.mtx"))
    print(f"validation rmse {model.validation_rmse:.6f} "
          f"(best epoch {model.best_epoch})")
    return 0


def _run_match(cfg: RunConfig) -> int:
    ds = dio.load_dataset(cfg.data)
    if ds.modality_2 is None or ds.correspondence is None:
        raise ValueError("matching needs two modalities plus the train "
                         "correspondence")
    model = train_matcher(ds.modality_1, ds.modality_2, ds.correspondence,
                          cfg.conv_config("match"), cfg.protocol(), cfg.match)
    output = model.infer(ds.batch_labels, ds.batch_labels_2())
    scores = match_scores(output, ds.correspondence)
    out = _out_dir(cfg, "match_out")
    write_run_log(model.history, os.path.join(out, "run.log"))
    dio.write_kv({
        "task": "match",
        "val_loss": model.validation_loss,
        "best_epoch": model.best_epoch,
        "epochs_run": len(model.history),
        "n_cells": ds.n_cells,
        "score_softmax": scores["score_softmax"],
        "score_assignment": scores["score_assignment"],
        "top1_accuracy": scores["top1_accuracy"],
        "percentile": cfg.match.percentile,
        "seed": cfg.train.seed,
    }, os.path.join(out, "report.kv"))
    save_checkpoint(model.store, os.path.join(out, "model.ckpt"))
    with open(os.path.join(out, "assignment.txt"), "w",
              encoding="utf-8") as fh:
        for i, j in output.assignment:
            fh.write(f"{i}\t{j}\n")
    print(f"competition score (softmax) {scores['score_softmax']:.6f}, "
          f"top-1 accuracy {scores['top1_accuracy']:.4f}")
    return 0


def _run_embed(cfg: RunConfig) -> int:
    ds = dio.load_dataset(cfg.data)
    if ds.modality_2 is None:
        raise ValueError("joint embedding needs two modalities")
    if ds.cell_type_labels is None:
        raise ValueError("joint embedding needs cell type labels "
                         "(NA rows allowed)")
    m2 = ds.modality_2_aligned()
    model = train_joint_embedding(ds.modality_1, m2, ds.cell_type_labels,
                                  cfg.conv_config("embed"), cfg.protocol(),
                                  cfg.embed)
    embedding = model.embed()
    out = _out_dir(cfg, "embed_out")
    write_run_log(model.history, os.path.join(out, "run.log"))
    dio.write_dense_matrix(embedding, os.path.join(out, "embedding.mtx"))
    report = {
        "task": "embed",
        "val_loss": model.validation_loss,
        "best_epoch": model.best_epoch,
        "epochs_run": len(model.history),
        "n_cells": ds.n_cells,
        "n_types": model.n_types,
        "seed": cfg.train.seed,
    }
    dio.write_kv(report, os.path.join(out, "report.kv"))
    save_checkpoint(model.store, os.path.join(out, "model.ckpt"))
    metrics_report = _metric_suite(
        embedding, ds.cell_type_labels, ds.batch_labels, cfg.knn_k,
        pseudotime_before=ds.pseudotime, cc_scores=ds.cc_scores,
        pre_embedding=model.states[0], seed=cfg.train.seed,
    )
    met.write_report(metrics_report, os.path.join(out, "metrics.kv"))
    print(f"embedding written; overall metric {metrics_report.overall:.6f}")
    return 0


def _metric_suite(embedding, cell_types, batch_labels, knn_k,
                  pseudotime_before=None, cc_scores=None, pre_embedding=None,
                  seed: int = 0) -> met.MetricReport:
    """The six metrics on one kNN graph; a missing input's metric is nan."""
    g = met.knn_graph(embedding, knn_k)
    types = np.asarray(cell_types)
    if len(np.unique(types[types >= 0])) > 1:
        nmi_score = met.nmi_cluster_label(g, cell_types, seed)
        asw = met.cell_type_asw(embedding, cell_types)
    else:
        # nmi scores two one-cluster partitions as 1.0, so a single type
        # would read as perfect whenever Louvain puts it in one cluster
        warnings.warn("fewer than 2 labeled cell types; NMI is left out "
                      "(nan), and cell-type ASW is left out (nan)")
        nmi_score = asw = float("nan")
    try:
        basw = met.batch_asw(embedding, batch_labels, cell_types)
    except met.NoBatchMixing as exc:
        warnings.warn(f"{exc}; batch ASW is left out (nan)")
        basw = float("nan")
    connectivity = met.graph_connectivity(g, cell_types)
    traj = cc = float("nan")
    if pseudotime_before is not None:
        root = int(np.argmin(pseudotime_before))
        after = met.pseudotime_from_root(g, root)
        traj = met.trajectory_conservation(pseudotime_before, after)
    else:
        warnings.warn("no pseudotime supplied; trajectory conservation is "
                      "left out (nan)")
    if cc_scores is not None and pre_embedding is not None:
        var_before = {
            b: met.variance_explained(cc_scores[batch_labels == b],
                                      pre_embedding[batch_labels == b])
            for b in np.unique(batch_labels)}
        cc = met.cell_cycle_conservation(cc_scores, embedding, batch_labels,
                                         var_before)
    else:
        warnings.warn("no cell-cycle inputs supplied; cell-cycle "
                      "conservation is left out (nan)")
    return met.aggregate(nmi_score, asw, cc, traj, basw, connectivity)


def _run_eval(args, cfg: RunConfig) -> int:
    embedding = dio.load_dense_matrix(args.embedding)
    cell_types, _ = dio.load_labels(args.labels)
    batch_labels, _ = dio.load_labels(args.batches)
    pseudotime = (dio.load_real_array(args.pseudotime)
                  if args.pseudotime else None)
    cc_scores = dio.load_real_array(args.cc_scores) if args.cc_scores else None
    pre_embedding = (dio.load_dense_matrix(args.pre_embedding)
                     if args.pre_embedding else None)
    n = embedding.shape[0]
    for path, values in ((args.labels, cell_types),
                         (args.batches, batch_labels),
                         (args.pseudotime, pseudotime),
                         (args.cc_scores, cc_scores),
                         (args.pre_embedding, pre_embedding)):
        if values is not None and len(values) != n:
            raise ValueError(f"{path}: {len(values)} entries, but the "
                             f"embedding {args.embedding} has {n} rows")
    if not (cell_types >= 0).any():
        raise ValueError(f"{args.labels}: no labeled cell (every entry is "
                         "NA)")
    report = _metric_suite(embedding, cell_types, batch_labels, cfg.knn_k,
                           pseudotime, cc_scores, pre_embedding,
                           cfg.train.seed)
    out = _out_dir(cfg, ".")
    met.write_report(report, os.path.join(out, "metrics.kv"))
    for name in met.MetricReport.FIELDS:
        print(f"{name} = {getattr(report, name):.6f}")
    return 0


def _run_gradcheck(args) -> int:
    results, worst, passed = run_gradient_checks(n_seeds=args.seeds)
    for name in sorted(results):
        status = "ok" if results[name] < GRADCHECK_TOL else "FAIL"
        print(f"{name}: max rel err {results[name]:.3e} [{status}]")
    print(f"worst {worst:.3e}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 2


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if not args.command:
        print(parser.format_usage(), file=sys.stderr)
        return 1
    if args.command == "gradcheck":
        return _run_gradcheck(args)
    try:
        cfg = _resolve_config(args, args.command)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    runners = {
        "synth": lambda: _run_synth(cfg),
        "predict": lambda: _run_predict(cfg),
        "match": lambda: _run_match(cfg),
        "embed": lambda: _run_embed(cfg),
        "eval": lambda: _run_eval(args, cfg),
    }
    try:
        return runners[args.command]()
    except Exception as exc:  # runtime failure contract: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()

"""The benchmark's workloads: one `cellgraph` subcommand each, over inputs
generated from the run's seed, and why each one is in the benchmark."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cellgraph subcommand
    why: str
    synth: dict  # keyword arguments of cellgraph.data.generate_synthetic
    settings: tuple[str, ...]  # --set KEY=VALUE flags
    gene_sets: tuple[int, int] | None = None  # (sets, features per set)

    @property
    def epochs(self) -> int:
        return int(dict(s.split("=", 1) for s in self.settings)
                   ["train.max_epochs"])


# Patience sits above every epoch count, so each run trains exactly
# train.max_epochs epochs whatever the losses do.
_FIXED_EPOCHS = ("train.patience=100000",)

WORKLOADS = {w.name: w for w in [
    # 3000 x 1500 cells x features at 3 % density (about 134.5k nnz).
    # n * k = 4.5 M is above the 2^22 operator size up to which spmm
    # multiplies a densified copy, so every cell-feature message takes the
    # CSR kernel; k <= 2000 keeps the one-hot feature input. 20 gene sets
    # of 10 features switch the pathway channel on.
    Workload(
        name="predict-sparse",
        command="predict",
        why="coupled 4-layer GNN whose every cell-feature message takes the "
            "CSR spmm kernel, with the pathway channel on",
        synth={"n_cells": 3000, "dims": [1500, 45], "n_types": 4,
               "n_batches": 2, "noise": 0.1, "dropout": 0.97},
        settings=_FIXED_EPOCHS + ("train.max_epochs=3", "conv.n_layers=4"),
        gene_sets=(20, 10),
    ),
    # 2000 cells, 60 and 45 features at 70 % density, 2 batches: each
    # assignment block is about 1000 x 1000. Every operator is below the
    # dense cutoff, so CSR spmm does no work here and a sparse-kernel change
    # should leave this workload flat. The filter keeps its default 95th
    # percentile, as users run it; the kept entries of these blocks usually
    # admit no perfect matching, so the solver returns a partial
    # maximum-cardinality matching (about 1790 of 2000 cells paired). The
    # solver's time depends on the learned embeddings (interquartile range
    # over median about 0.28 across ten seeds), so 30 epochs of training
    # keep it from dominating the run's total time.
    Workload(
        name="match-assign",
        command="match",
        why="decoupled GNN training on the tape with dense operators only, "
            "then percentile filter and assignment over 1000 x 1000 blocks",
        synth={"n_cells": 2000, "dims": [60, 45], "n_types": 4,
               "n_batches": 2, "noise": 0.1, "dropout": 0.3},
        settings=_FIXED_EPOCHS + ("train.max_epochs=30",),
    ),
    # 1500 cells; modality 1 is peak-like, 3000 features at 2 % (about
    # 89.6k nnz), so TF-IDF and the truncated SVD of LSI take the CSR path
    # and the SVD runs to its iteration cap. Most of the time is LSI set-up
    # and the six-metric suite (Louvain sweep, kNN, silhouettes); training
    # is light.
    Workload(
        name="embed-eval",
        command="embed",
        why="LSI set-up on a sparse peak-like modality plus the six-metric "
            "suite (kNN, Louvain sweep, silhouettes); training is light",
        synth={"n_cells": 1500, "dims": [3000, 45], "n_types": 6,
               "n_batches": 3, "noise": 0.3, "dropout": 0.98},
        settings=_FIXED_EPOCHS + ("train.max_epochs=50",),
    ),
]}

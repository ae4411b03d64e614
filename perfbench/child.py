"""Child-process entry points of the benchmark; each run is a fresh process.

    python3 child.py gen SPEC.json WORK_DIR    write one workload's inputs
    python3 child.py cli MARKS.json -- ARGS    run `cellgraph ARGS`, noting
                                               when each phase starts/ends
    python3 child.py trace TRACE.json -- ARGS  run `cellgraph ARGS` under the
                                               span tracer

The parent puts the checkout's ``src`` on PYTHONPATH and names it in
PERFBENCH_SRC; a child refuses to run against any other copy of cellgraph.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402  (the benchmark's own module)


def _import_cellgraph():
    import cellgraph
    import cellgraph.cli

    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    where = os.path.realpath(cellgraph.__file__)
    if not where.startswith(src + os.sep):
        sys.exit(f"cellgraph imported from {where}, expected under {src}")
    return cellgraph


def generate(spec_path: str, work: str):
    """WORK/data (generate_synthetic + save_dataset), WORK/gene_sets.txt and
    WORK/numpy.json, which names the numpy and BLAS builds."""
    import numpy as np

    _import_cellgraph()
    from cellgraph import data as dio

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    synth = dict(spec["synth"])
    synth["dims"] = tuple(synth["dims"])
    ds = dio.generate_synthetic(seed=spec["seed"], **synth)
    dio.save_dataset(ds, os.path.join(work, "data"))
    if spec["gene_sets"]:
        n_sets, size = spec["gene_sets"]
        rng = np.random.default_rng([spec["seed"], 1])
        with open(os.path.join(work, "gene_sets.txt"), "w",
                  encoding="utf-8") as fh:
            for s in range(n_sets):
                members = np.sort(rng.choice(ds.modality_1.n_cols, size,
                                             replace=False))
                names = ",".join(ds.feature_names_1[j] for j in members)
                fh.write(f"set{s}\t{names}\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "nnz": [ds.modality_1.nnz, ds.modality_2.nnz]}
    with open(os.path.join(work, "numpy.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh)


# phase -> (module, attribute) of the call whose extent is that phase
PHASES = {
    "train": [("cellgraph.tasks.common", "run_training")],
    "infer": [("cellgraph.tasks.prediction", "PredictionModel.predict"),
              ("cellgraph.tasks.matching", "MatcherModel.infer"),
              ("cellgraph.tasks.embedding", "EmbedModel.embed")],
    "eval": [("cellgraph.cli", "_metric_suite")],
}


def run_cli(marks_path: str, argv: list[str]) -> int:
    """Run the CLI with timestamps around its phases and nothing else."""
    cellgraph = _import_cellgraph()
    marks: dict[str, list[float]] = {}
    absent: list[str] = []

    def timed(phase):
        def make(fn):
            def stamped(*args, **kwargs):
                start = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                finally:
                    marks.setdefault(phase, []).append(
                        [start, time.monotonic()])
            return stamped
        return make

    for phase, sites in PHASES.items():
        for module, path in sites:
            if not tr.patch(module, path, timed(phase)):
                absent.append(f"{module}.{path}")
    rc = cellgraph.cli.cli_dispatch(argv)
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump({"marks": marks, "absent": absent}, fh)
    return rc


def run_traced(trace_path: str, argv: list[str]) -> int:
    cellgraph = _import_cellgraph()
    tracer = tr.Tracer()
    tr.install(tracer)
    rc = cellgraph.cli.cli_dispatch(argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return rc


def main(argv: list[str]) -> int:
    mode, path, rest = argv[0], argv[1], argv[2:]
    if mode == "gen":
        generate(path, rest[0])
        return 0
    if rest[:1] == ["--"]:
        rest = rest[1:]
    if mode == "trace":
        return run_traced(path, rest)
    return run_cli(path, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

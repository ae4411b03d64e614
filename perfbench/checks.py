"""Output checks. Each returns a list of problems; an empty list passes.

They read the files the CLI wrote with plain Python, not with cellgraph's
own loaders, so a bug in those loaders cannot hide a bad output.
"""

from __future__ import annotations

import math
import os
from collections import Counter

# files whose bytes must repeat across the runs of one set (README contract)
DETERMINISTIC_FILES = ("report.kv", "metrics.kv", "run.log")

SIX_METRICS = ("nmi", "cell_type_asw", "cc_conservation",
               "trajectory_conservation", "batch_asw", "graph_connectivity")


def read_kv(path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def check_predictions(out_dir, n_cells: int, n_targets: int) -> list[str]:
    """predictions.mtx holds every entry of an n_cells x n_targets matrix,
    all finite."""
    lines = _read_lines(os.path.join(out_dir, "predictions.mtx"))
    if len(lines) < 2:
        return ["predictions.mtx: truncated"]
    size = lines[1].split()
    expected = [str(n_cells), str(n_targets), str(n_cells * n_targets)]
    if size != expected:
        return [f"predictions.mtx: size line {size}, expected {expected}"]
    seen = set()
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            return [f"predictions.mtx: malformed entry {line!r}"]
        value = float(parts[2])
        if not math.isfinite(value):
            return [f"predictions.mtx: non-finite entry {line!r}"]
        seen.add((parts[0], parts[1]))
    if len(seen) != n_cells * n_targets:
        return [f"predictions.mtx: {len(seen)} distinct entries, expected "
                f"{n_cells * n_targets}"]
    return []


def check_assignment(out_dir, data_dir) -> list[str]:
    """assignment.txt is a partial bijection inside batches, with between
    one and min(block sides) pairs in each shared batch, and report.kv's
    top-1 count and accuracy agree with it.

    The filter may leave a block without a perfect matching; the solver
    then returns a partial maximum-cardinality one, so a batch can hold
    fewer than min(block sides) pairs.
    """
    batch_1 = _read_lines(os.path.join(data_dir, "batches.txt"))
    truth = [int(v) for v in
             _read_lines(os.path.join(data_dir, "correspondence.txt"))]
    n = len(batch_1)
    batch_2 = [""] * n
    for i, j in enumerate(truth):
        batch_2[j] = batch_1[i]
    pairs = []
    for line in _read_lines(os.path.join(out_dir, "assignment.txt")):
        parts = line.split()
        if len(parts) != 2:
            return [f"assignment.txt: malformed line {line!r}"]
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < n and 0 <= j < n):
            return [f"assignment.txt: pair ({i}, {j}) out of range"]
        pairs.append((i, j))
    problems = []
    if len({i for i, _ in pairs}) != len(pairs):
        problems.append("assignment.txt: a modality-1 row is paired twice")
    if len({j for _, j in pairs}) != len(pairs):
        problems.append("assignment.txt: a modality-2 row is paired twice")
    if any(batch_1[i] != batch_2[j] for i, j in pairs):
        problems.append("assignment.txt: a pair crosses batches")
    matched = Counter(batch_1[i] for i, _ in pairs)
    sides_1, sides_2 = Counter(batch_1), Counter(batch_2)
    for batch in sorted(set(sides_1) & set(sides_2)):
        most = min(sides_1[batch], sides_2[batch])
        if not 1 <= matched[batch] <= most:
            problems.append(f"assignment.txt: batch {batch} has "
                            f"{matched[batch]} pairs, expected 1 to {most}")
    report = read_kv(os.path.join(out_dir, "report.kv"))
    correct = sum(1 for i, j in pairs if truth[i] == j)
    if float(report["score_assignment"]) != correct:
        problems.append(f"report.kv: score_assignment "
                        f"{report['score_assignment']}, but "
                        f"assignment.txt has {correct} true pairs")
    if abs(float(report["top1_accuracy"]) - correct / n) > 5e-7 + 1e-12:
        problems.append(f"report.kv: top1_accuracy "
                        f"{report['top1_accuracy']} != {correct} / {n}")
    return problems


def check_metrics(out_dir) -> list[str]:
    """The six metrics lie in [0, 1] and overall = 0.6 bio + 0.4 batch."""
    kv = read_kv(os.path.join(out_dir, "metrics.kv"))
    try:
        values = {k: float(kv[k]) for k in
                  SIX_METRICS + ("s_bio", "s_batch", "overall")}
    except (KeyError, ValueError) as exc:
        return [f"metrics.kv: missing or malformed {exc}"]
    problems = [f"metrics.kv: {k} = {values[k]} outside [0, 1]"
                for k in SIX_METRICS if not 0.0 <= values[k] <= 1.0]
    # each value is written to 6 decimals, so rounding alone can move the
    # two sides apart by up to 1e-6
    combined = 0.6 * values["s_bio"] + 0.4 * values["s_batch"]
    if abs(values["overall"] - combined) > 1e-6 + 1e-12:
        problems.append(f"metrics.kv: overall {values['overall']} != "
                        f"0.6 s_bio + 0.4 s_batch = {combined}")
    return problems


def deterministic_bytes(out_dir) -> dict[str, bytes | None]:
    out = {}
    for name in DETERMINISTIC_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
        else:
            out[name] = None
    return out


def check_same_bytes(out_dir, reference_dir) -> list[str]:
    """report.kv, metrics.kv and run.log repeat byte for byte."""
    mine, ref = deterministic_bytes(out_dir), deterministic_bytes(
        reference_dir)
    return [f"{name}: differs from the first run of the set"
            for name in DETERMINISTIC_FILES if mine[name] != ref[name]]

"""Dataset container, file formats, and the synthetic data generator.

File formats are deliberately plain text: coordinate-format matrices
(MatrixMarket-style header), one-token-per-line label files, tab-separated
gene sets, and flat key-value reports. Everything round-trips exactly.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import GeneSetCollection
from .linalg import SparseMatrix

MTX_HEADER = "%%MatrixMarket matrix coordinate real general"
UNLABELED = -1


@dataclass
class Dataset:
    """In-memory view of one (optionally paired) modality dataset.

    correspondence[i] gives the modality-2 row holding the same cell as
    modality-1 row i. cell_type_labels uses -1 for unlabeled cells.
    batch_labels/cell ids/types are in modality-1 row order.
    """

    modality_1: SparseMatrix
    modality_2: SparseMatrix | None
    cell_ids: list[str]
    feature_names_1: list[str]
    feature_names_2: list[str] | None
    batch_labels: np.ndarray
    batch_names: list[str]
    cell_type_labels: np.ndarray | None = None
    cell_type_names: list[str] | None = None
    correspondence: np.ndarray | None = None
    pseudotime: np.ndarray | None = None
    cc_scores: np.ndarray | None = None

    def __post_init__(self):
        n = self.modality_1.n_rows
        if len(self.cell_ids) != n or len(self.batch_labels) != n:
            raise ValueError("per-cell arrays must have length n_cells")
        for k, m, names in ((1, self.modality_1, self.feature_names_1),
                            (2, self.modality_2, self.feature_names_2)):
            n_names = len(names or ())
            if m is not None and n_names != m.n_cols:
                raise ValueError(f"feature_names_{k} has {n_names} names, "
                                 f"expected one per modality_{k} column "
                                 f"({m.n_cols})")
        if self.modality_2 is not None and self.modality_2.n_rows != n:
            raise ValueError(f"modality_2 has {self.modality_2.n_rows} rows, "
                             f"expected {n}")
        for name in ("cell_type_labels", "pseudotime", "cc_scores"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise ValueError(f"{name} has {len(values)} entries, "
                                 f"expected {n}")
        if self.correspondence is not None and not np.array_equal(
                np.sort(self.correspondence), np.arange(n)):
            raise ValueError("correspondence must be a permutation of the "
                             f"{n} modality-2 rows")

    @property
    def n_cells(self) -> int:
        return self.modality_1.n_rows

    def modality_2_aligned(self) -> SparseMatrix:
        """Modality 2 with rows reordered to match modality 1."""
        if self.modality_2 is None:
            raise ValueError("dataset has a single modality")
        if self.correspondence is None:
            return self.modality_2
        m = self.modality_2
        # row i is source row correspondence[i]: gather each one's slice of
        # the stored entries, then drop stored zeros as from_dense would
        lengths = np.diff(m.row_offsets)[self.correspondence]
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        src = np.arange(bounds[-1]) + np.repeat(
            m.row_offsets[self.correspondence] - bounds[:-1], lengths)
        keep = m.values[src] != 0
        offsets = np.concatenate(([0], np.cumsum(keep)))[bounds]
        return SparseMatrix(m.n_rows, m.n_cols, offsets,
                            m.col_indices[src[keep]], m.values[src[keep]])

    def batch_labels_2(self) -> np.ndarray:
        """Batch label of each modality-2 row."""
        if self.correspondence is None:
            return self.batch_labels
        out = np.empty_like(self.batch_labels)
        out[self.correspondence] = self.batch_labels
        return out


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


# ---------------------------------------------------------------------------
# coordinate matrix format


# the loader reads entries in chunks of this many bytes, each cut at its
# last newline; entries are about 25 bytes, so a chunk holds about 2.6k
_CHUNK_BYTES = 1 << 16
# the only bytes chunk parsing accepts; anything else (nan, 1_0, \r, \x0c,
# NBSP, non-ASCII digits) goes to the line loop
_ENTRY_BYTES = b"0123456789.+-eE \t\n"
_ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64),
                         ("value", np.float64)])


def load_sparse_matrix(path) -> SparseMatrix:
    """Parse a coordinate-format text matrix; duplicates are summed.

    Entries are parsed a chunk at a time by np.loadtxt. A file that the
    chunks do not accept as it stands goes to `_load_sparse_lines`, which
    decides what is accepted and formats every error, so both paths accept
    the same files with the same arrays.
    """
    m = _load_sparse_chunks(path)
    return m if m is not None else _load_sparse_lines(path)


def _load_sparse_chunks(path) -> SparseMatrix | None:
    """The matrix, or None if anything about the file is unusual."""
    header = MTX_HEADER.encode() + b"\n"
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            return None
        size = fh.readline(_CHUNK_BYTES)
        if not size.endswith(b"\n") or size.translate(None, _ENTRY_BYTES):
            return None
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in size.split())
        except ValueError:
            return None
        if min(n_rows, n_cols, nnz) < 0:
            return None
        parts, carry = [np.empty(0, _ENTRY_DTYPE)], b""
        while chunk := fh.read(_CHUNK_BYTES):
            body = carry + chunk
            cut = body.rfind(b"\n") + 1
            body, carry = body[:cut], body[cut:]
            if len(carry) >= _CHUNK_BYTES or not _parse_entries(
                    body, n_rows, n_cols, parts):
                return None
        if not _parse_entries(carry, n_rows, n_cols, parts):
            return None
    if sum(len(p) for p in parts) != nnz:
        return None
    # one block of all entries, freed once the matrix is built: glibc then
    # keeps later arrays up to its size on the heap. Per-field arrays left
    # the training arrays to fresh mmaps (4x predict's page faults).
    entries = np.concatenate(parts)
    del parts
    return SparseMatrix.from_coo(n_rows, n_cols, entries["row"] - 1,
                                 entries["col"] - 1, entries["value"])


def _parse_entries(body: bytes, n_rows, n_cols, parts: list) -> bool:
    """Append body's entries to parts; False if any byte, token or entry
    is unusual."""
    if body.translate(None, _ENTRY_BYTES):
        return False
    if not body.strip():
        return True
    try:
        # numpy 1.23 parses `1.0`, `1e0` and `1.5` as integers via a float,
        # with only a DeprecationWarning: raised, it sends the chunk to the
        # line loop, which rejects such an index
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            entries = np.loadtxt(body.decode("ascii").splitlines(),
                                 dtype=_ENTRY_DTYPE, comments=None, ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning):
        return False
    rows, cols = entries["row"], entries["col"]
    if not (np.isfinite(entries["value"]).all()
            and rows.min() >= 1 and rows.max() <= n_rows
            and cols.min() >= 1 and cols.max() <= n_cols):
        return False
    parts.append(entries)
    return True


def _load_sparse_lines(path) -> SparseMatrix:
    """The line loop: one Python parse per entry, and every error message
    with its `path:line:`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != MTX_HEADER:
        raise ValueError(f"{path}:1: expected header {MTX_HEADER!r}")
    if len(lines) < 2:
        raise ValueError(f"{path}:2: missing size line")
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise ValueError(f"{path}:2: malformed size line: {lines[1]!r}") from exc
    if min(n_rows, n_cols, nnz) < 0:
        raise ValueError(f"{path}:2: negative size: {lines[1]!r}")
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'row col value'")
        try:
            r, c = int(parts[0]), int(parts[1])
            v = _finite_float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric or non-finite "
                             f"entry: {line.strip()!r}") from exc
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise ValueError(f"{path}:{lineno}: index ({r}, {c}) out of range "
                             f"for {n_rows}x{n_cols}")
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(v)
    if len(vals) != nnz:
        raise ValueError(f"{path}: header promised {nnz} entries, "
                         f"found {len(vals)}")
    return SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)


def write_sparse_matrix(m: SparseMatrix, path):
    """Write coordinate text; repr() of each value keeps round trips exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MTX_HEADER + "\n")
        fh.write(f"{m.n_rows} {m.n_cols} {m.nnz}\n")
        rows = m.row_indices()
        for r, c, v in zip(rows, m.col_indices, m.values):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def write_dense_matrix(m: np.ndarray, path):
    """Dense matrix in the same coordinate format (all entries written)."""
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MTX_HEADER + "\n")
        fh.write(f"{m.shape[0]} {m.shape[1]} {m.size}\n")
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                fh.write(f"{i + 1} {j + 1} {float(m[i, j])!r}\n")


def load_dense_matrix(path) -> np.ndarray:
    return load_sparse_matrix(path).to_dense()


# ---------------------------------------------------------------------------
# labels and arrays


def load_labels(path):
    """One token per line; NA means unlabeled. Returns (ids, names).

    ids are stable first-appearance label indices; unlabeled entries are -1.
    """
    with open(path, encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    if not tokens:
        raise ValueError(f"{path}: empty label file")
    names: list[str] = []
    index: dict[str, int] = {}
    ids = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        if tok == "NA":
            ids[i] = UNLABELED
            continue
        if tok not in index:
            index[tok] = len(names)
            names.append(tok)
        ids[i] = index[tok]
    return ids, names


def write_labels(ids, names, path):
    with open(path, "w", encoding="utf-8") as fh:
        for i in np.asarray(ids):
            fh.write(("NA" if i == UNLABELED else names[i]) + "\n")


def _load_numbers(path, parse, kind: str = "number") -> list:
    """One kind per non-blank line, read with parse."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    values.append(parse(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: not a {kind}: "
                                     f"{line.strip()!r}") from exc
    return values


def load_real_array(path) -> np.ndarray:
    return np.asarray(_load_numbers(path, _finite_float, "finite number"))


def write_real_array(values, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(values, dtype=np.float64):
            fh.write(f"{float(v)!r}\n")


def load_index_array(path) -> np.ndarray:
    return np.asarray(_load_numbers(path, int), dtype=np.int64)


def write_index_array(values, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v in np.asarray(values, dtype=np.int64):
            fh.write(f"{v}\n")


def load_gene_sets(sets_path, feature_names_path) -> GeneSetCollection:
    """`name<TAB>id,id,...` lines resolved against a feature-name index."""
    with open(feature_names_path, encoding="utf-8") as fh:
        names = [line.strip() for line in fh if line.strip()]
    index = {name: i for i, name in enumerate(names)}
    sets = []
    with open(sets_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            name, _, members = line.rstrip("\n").partition("\t")
            if not members:
                raise ValueError(f"{sets_path}:{lineno}: expected "
                                 "'name<TAB>id,id,...'")
            ids = []
            for tok in members.split(","):
                tok = tok.strip()
                if tok not in index:
                    raise ValueError(f"{sets_path}:{lineno}: unknown feature "
                                     f"{tok!r}")
                ids.append(index[tok])
            sets.append((name, ids))
    return GeneSetCollection(sets)


# ---------------------------------------------------------------------------
# key-value reports


def write_kv(values: dict, path):
    """Flat `key = value` report; floats fixed at 6 decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.6f}\n")
            else:
                fh.write(f"{key} = {value}\n")


def read_kv(path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# synthetic data


def generate_synthetic(n_cells: int, dims=(60, 45), n_types: int = 4,
                       n_batches: int = 2, noise: float = 0.1,
                       dropout: float = 0.3, seed: int = 0) -> Dataset:
    """Paired modalities from a shared latent with full ground truth.

    Each cell's latent is its type center plus a batch offset plus unit
    jitter (the jitter is what makes individual cells matchable). Both
    modalities are softplus maps of the latent with additive noise and
    Bernoulli dropout. Modality 2 rows are emitted shuffled; the
    correspondence array records the true pairing. Pseudotime is the latent
    distance from the type-0 center.
    """
    if n_types < 2:
        raise ValueError("need at least 2 cell types")
    rng = np.random.default_rng(seed)
    z_dim = 8
    centers = rng.normal(0.0, 1.6, size=(n_types, z_dim))
    offsets = rng.normal(0.0, 0.4, size=(n_batches, z_dim))
    types = rng.integers(0, n_types, size=n_cells)
    batches = rng.integers(0, n_batches, size=n_cells)
    z = centers[types] + offsets[batches] + rng.normal(
        0.0, 1.0, size=(n_cells, z_dim)
    )

    def modality(k: int) -> np.ndarray:
        a = rng.normal(0.0, 1.0 / np.sqrt(z_dim), size=(z_dim, k))
        shift = rng.uniform(1.0, 3.0, size=k)
        raw = z @ a + shift + noise * rng.normal(0.0, 1.0, size=(n_cells, k))
        soft = np.logaddexp(0.0, raw)  # softplus
        if dropout > 0:
            soft = soft * (rng.random((n_cells, k)) >= dropout)
        return soft

    m1 = modality(dims[0])
    m2_aligned = modality(dims[1])
    perm = rng.permutation(n_cells)  # cell i lands in modality-2 row perm[i]
    m2 = np.empty_like(m2_aligned)
    m2[perm] = m2_aligned
    pseudotime = np.linalg.norm(z - centers[0], axis=1)
    cc_direction = rng.normal(0.0, 1.0, size=z_dim)
    cc_direction /= np.linalg.norm(cc_direction)
    return Dataset(
        modality_1=SparseMatrix.from_dense(m1),
        modality_2=SparseMatrix.from_dense(m2),
        cell_ids=[f"cell{i:05d}" for i in range(n_cells)],
        feature_names_1=[f"g1_{j:04d}" for j in range(dims[0])],
        feature_names_2=[f"g2_{j:04d}" for j in range(dims[1])],
        batch_labels=batches.astype(np.int64),
        batch_names=[f"batch{b}" for b in range(n_batches)],
        cell_type_labels=types.astype(np.int64),
        cell_type_names=[f"type{t}" for t in range(n_types)],
        correspondence=perm.astype(np.int64),
        pseudotime=pseudotime,
        cc_scores=z @ cc_direction,
    )


_FILES = {
    "modality1": "modality1.mtx",
    "modality2": "modality2.mtx",
    "cells": "cell_ids.txt",
    "features1": "features1.txt",
    "features2": "features2.txt",
    "batches": "batches.txt",
    "types": "types.txt",
    "correspondence": "correspondence.txt",
    "pseudotime": "pseudotime.txt",
    "cc_scores": "cc_scores.txt",
}


def save_dataset(ds: Dataset, out_dir):
    os.makedirs(out_dir, exist_ok=True)

    def path(key):
        return os.path.join(out_dir, _FILES[key])

    write_sparse_matrix(ds.modality_1, path("modality1"))
    with open(path("cells"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(ds.cell_ids) + "\n")
    with open(path("features1"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(ds.feature_names_1) + "\n")
    write_labels(ds.batch_labels, ds.batch_names, path("batches"))
    if ds.modality_2 is not None:
        write_sparse_matrix(ds.modality_2, path("modality2"))
        with open(path("features2"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(ds.feature_names_2) + "\n")
    if ds.cell_type_labels is not None:
        write_labels(ds.cell_type_labels, ds.cell_type_names, path("types"))
    if ds.correspondence is not None:
        write_index_array(ds.correspondence, path("correspondence"))
    if ds.pseudotime is not None:
        write_real_array(ds.pseudotime, path("pseudotime"))
    if ds.cc_scores is not None:
        write_real_array(ds.cc_scores, path("cc_scores"))


def load_dataset(data_dir) -> Dataset:
    def path(key):
        return os.path.join(data_dir, _FILES[key])

    def optional(key, loader):
        return loader(path(key)) if os.path.exists(path(key)) else None

    with open(path("cells"), encoding="utf-8") as fh:
        cell_ids = [line.strip() for line in fh if line.strip()]
    with open(path("features1"), encoding="utf-8") as fh:
        features1 = [line.strip() for line in fh if line.strip()]
    features2 = None
    if os.path.exists(path("features2")):
        with open(path("features2"), encoding="utf-8") as fh:
            features2 = [line.strip() for line in fh if line.strip()]
    batch_ids, batch_names = load_labels(path("batches"))
    types = optional("types", load_labels)
    fields = dict(
        modality_1=load_sparse_matrix(path("modality1")),
        modality_2=optional("modality2", load_sparse_matrix),
        cell_ids=cell_ids,
        feature_names_1=features1,
        feature_names_2=features2,
        batch_labels=batch_ids,
        batch_names=batch_names,
        cell_type_labels=types[0] if types else None,
        cell_type_names=types[1] if types else None,
        correspondence=optional("correspondence", load_index_array),
        pseudotime=optional("pseudotime", load_real_array),
        cc_scores=optional("cc_scores", load_real_array),
    )
    try:
        return Dataset(**fields)
    except ValueError as exc:
        raise ValueError(f"{data_dir}: {exc}") from exc

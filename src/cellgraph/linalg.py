"""Dense/sparse kernels shared by every other module.

Dense matrices are plain 2-D float64 ndarrays. Sparse matrices are CSR
(`SparseMatrix`). Everything here is a pure function; nothing mutates its
inputs, so all of it is safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NormalizationUndefined(ValueError):
    """Symmetric edge normalization hit a node with incident weight sum <= 0.

    Happens with negative weights (e.g. adjacency built from reduced
    features). Use min-max edge scaling or post-aggregation standardization
    instead.
    """


def as_dense(values) -> np.ndarray:
    """Coerce to a C-contiguous, finite float64 2-D array."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("dense matrix contains NaN/Inf")
    return m


@dataclass
class SparseMatrix:
    """Compressed sparse row matrix over float64 values.

    row_offsets has length n_rows+1 and is non-decreasing; col_indices are
    strictly increasing within each row. Instances are treated as immutable
    after construction.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _dense_cache: "np.ndarray | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.row_offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows+1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != len(self.values):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(self.col_indices) != len(self.values):
            raise ValueError("col_indices and values length mismatch")
        if len(self.col_indices) and (
            self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols
        ):
            raise ValueError("column index out of range")
        # a column must rise wherever the next entry does not start a row
        starts = self.row_offsets[:-1]
        row_start = np.zeros(self.nnz, dtype=bool)
        row_start[starts[starts < self.nnz]] = True
        bad = np.flatnonzero(
            (np.diff(self.col_indices) <= 0) & ~row_start[1:])
        if bad.size:
            r = np.searchsorted(self.row_offsets, bad[0], side="right") - 1
            raise ValueError(f"columns not strictly increasing in row {r}")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise ValueError("sparse values contain NaN/Inf")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        """The nonzero entries of a dense matrix."""
        d = as_dense(dense)
        rows, cols = np.nonzero(d)
        return cls.from_coo(d.shape[0], d.shape[1], rows, cols, d[rows, cols])

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals, sum_duplicates=True):
        """Build from triplets; duplicate (row, col) entries are summed.

        Triplets already in order are kept as given, so the matrix may
        share the caller's arrays.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        # triplets already in strictly increasing (row, col) order, as the
        # writers and from_dense give them, need neither sort nor summing
        d_rows = np.diff(rows)
        if not np.all((d_rows > 0) | ((d_rows == 0) & (np.diff(cols) > 0))):
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            if sum_duplicates:
                keep = np.ones(len(rows), dtype=bool)
                keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
                group = np.cumsum(keep) - 1
                summed = np.zeros(group[-1] + 1)
                np.add.at(summed, group, vals)
                rows, cols, vals = rows[keep], cols[keep], summed
        elif sum_duplicates:
            # as summing onto zeros would: -0.0 is stored as 0.0
            vals = vals + 0.0
        offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        offsets = np.cumsum(offsets)
        return cls(n_rows, n_cols, offsets, cols, vals)

    # -- views -------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def row_indices(self) -> np.ndarray:
        """Row index of every stored entry (COO expansion of the offsets)."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         np.diff(self.row_offsets))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_indices(), self.col_indices] = self.values
        return out

    # an operator of at most _DENSE_MATMUL_LIMIT entries, of which at least
    # one in _DENSE_MATMUL_FILL is stored, is faster through BLAS on a dense
    # copy than through the CSR path; the two round differently, so moving
    # either cutoff moves bits
    _DENSE_MATMUL_LIMIT = 1 << 22
    _DENSE_MATMUL_FILL = 64

    def _dense_for_matmul(self) -> "np.ndarray | None":
        size = self.n_rows * self.n_cols
        if (size > self._DENSE_MATMUL_LIMIT
                or self._DENSE_MATMUL_FILL * self.nnz < size):
            return None
        if self._dense_cache is None:
            object.__setattr__(self, "_dense_cache", self.to_dense())
        return self._dense_cache

    def transpose(self) -> "SparseMatrix":
        """CSR transpose, built anew on every call."""
        return SparseMatrix.from_coo(self.n_cols, self.n_rows,
                                     self.col_indices, self.row_indices(),
                                     self.values, sum_duplicates=False)

    def with_values(self, new_values) -> "SparseMatrix":
        """Same sparsity pattern, different values."""
        new_values = np.asarray(new_values, dtype=np.float64)
        if new_values.shape != self.values.shape:
            raise ValueError("value count must match the sparsity pattern")
        return SparseMatrix(
            self.n_rows, self.n_cols, self.row_offsets, self.col_indices, new_values
        )


# stored entries per chunk of whole rows in the CSR branch of spmm: the
# gathered chunk (this many rows of b) stays in cache instead of an nnz x d
# temporary in memory
_SPMM_CHUNK_NNZ = 4096


def spmm(a: SparseMatrix, b: np.ndarray) -> np.ndarray:
    """Sparse @ dense, accumulated per row over the stored entries in order.

    The CSR branch walks the matrix in chunks of whole rows holding about
    `_SPMM_CHUNK_NNZ` stored entries (a longer row is a chunk of its own),
    so its temporaries stay near that many rows of b. Each row's sum runs
    over the same entries in the same order wherever the chunk boundaries
    fall, so the product is bit-identical to one pass over all of a.
    An operator that is both small (at most 2**22 entries) and dense (at
    least 1 in 64 entries stored) goes through a cached dense copy and
    BLAS instead; see `SparseMatrix._dense_for_matmul`.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or a.n_cols != b.shape[0]:
        raise ValueError(
            f"shape mismatch in spmm: sparse {a.shape} @ dense {b.shape}"
        )
    dense = a._dense_for_matmul()
    if dense is not None:
        return dense @ b
    out = np.zeros((a.n_rows, b.shape[1]))
    offsets = a.row_offsets
    r0 = 0
    while r0 < a.n_rows:
        budget_end = np.searchsorted(
            offsets, offsets[r0] + _SPMM_CHUNK_NNZ, side="right") - 1
        r1 = max(r0 + 1, budget_end)
        s, e = offsets[r0], offsets[r1]
        if e > s:
            contrib = b[a.col_indices[s:e]]
            contrib *= a.values[s:e, None]
            # reduceat over starts of non-empty rows: empty rows in between
            # would corrupt segment boundaries if passed directly.
            nonempty = r0 + np.flatnonzero(np.diff(offsets[r0:r1 + 1]))
            out[nonempty] = np.add.reduceat(
                contrib, offsets[nonempty] - s, axis=0)
        r0 = r1
    return out


def symmetric_edge_normalize(endpoints_a, endpoints_b, weights, n_nodes):
    """Divide each undirected edge weight by sqrt(sum_a) * sqrt(sum_b).

    The sums are the incident-weight totals of the edge's two endpoints,
    with each edge listed once and counted at both ends. Node ids live in a
    single [0, n_nodes) space.
    """
    a = np.asarray(endpoints_a, dtype=np.int64)
    b = np.asarray(endpoints_b, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("edge weights must be finite")
    incident = np.zeros(n_nodes)
    np.add.at(incident, a, w)
    np.add.at(incident, b, w)
    touched = np.zeros(n_nodes, dtype=bool)
    touched[a] = True
    touched[b] = True
    if np.any(incident[touched] <= 0):
        raise NormalizationUndefined(
            "incident weight sum <= 0 on some node; symmetric normalization is "
            "undefined. Use min_max_scale on the edges or post-aggregation "
            "standardization instead."
        )
    return w / (np.sqrt(incident[a]) * np.sqrt(incident[b]))


def min_max_scale(values) -> np.ndarray:
    """Affine map onto [0, 1]; a constant array maps to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("min_max_scale needs a nonempty array")
    if not np.all(np.isfinite(v)):
        raise ValueError("min_max_scale needs finite values")
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def standardize_rows(m: np.ndarray) -> np.ndarray:
    """Per-row mean 0 / population std 1; zero-variance rows become zeros."""
    m = as_dense(m)
    mean = m.mean(axis=1, keepdims=True)
    std = m.std(axis=1, keepdims=True)
    out = np.where(std > 0, (m - mean) / np.where(std > 0, std, 1.0), 0.0)
    return out


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Unit Euclidean norm per row; all-zero rows stay zero."""
    m = as_dense(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.where(norms > 0, m / np.where(norms > 0, norms, 1.0), 0.0)


def cosine_similarity_columns(m: SparseMatrix, pairs) -> np.ndarray:
    """Cosine of columns i and j of m for each pair (i, j); 0 where either
    column is all zero. Each distinct column is densified once, from one
    transpose of m."""
    t = m.transpose()
    columns = {}
    for k in {k for pair in pairs for k in pair}:
        if not 0 <= k < m.n_cols:
            raise IndexError(f"column {k} out of range for {m.shape}")
        lo, hi = t.row_offsets[k], t.row_offsets[k + 1]
        columns[k] = np.zeros(m.n_rows)
        columns[k][t.col_indices[lo:hi]] = t.values[lo:hi]
    norms = {k: np.linalg.norm(c) for k, c in columns.items()}
    out = np.zeros(len(pairs))
    for p, (i, j) in enumerate(pairs):
        if norms[i] and norms[j]:
            out[p] = columns[i] @ columns[j] / (norms[i] * norms[j])
    return out


def tfidf(m: SparseMatrix) -> SparseMatrix:
    """TF-IDF weighting: row-normalized counts scaled by log(1 + N/(1+df)).

    Preserves the sparsity pattern exactly. Requires non-negative entries.
    """
    if m.nnz and m.values.min() < 0:
        raise ValueError("tfidf requires non-negative entries")
    rows = m.row_indices()
    row_totals = np.zeros(m.n_rows)
    np.add.at(row_totals, rows, m.values)
    denom = np.where(row_totals > 0, row_totals, 1.0)
    tf = m.values / denom[rows]
    df = np.zeros(m.n_cols)
    np.add.at(df, m.col_indices, (m.values != 0).astype(np.float64))
    idf = np.log(1.0 + m.n_rows / (1.0 + df))
    return m.with_values(tf * idf[m.col_indices])


def truncated_svd(m: SparseMatrix, rank: int, seed: int):
    """Top-`rank` left singular vectors and singular values, seeded.

    Randomized range finder (oversampling 8, power iterations with QR
    re-orthonormalization). Past the 2 baseline power steps it stops once
    no singular value moves by 1e-9 or more relative to the step before,
    or after 40 steps. That is a stopping rule, not an accuracy bound: on a
    slowly decaying spectrum the result can stay well off a dense SVD.

    Returns (U, s) with U of shape (n_rows, rank), s non-increasing.
    """
    if rank < 1 or rank > min(m.n_rows, m.n_cols):
        raise ValueError(
            f"rank must be in [1, min{m.shape}], got {rank}"
        )
    rng = np.random.default_rng(seed)
    width = min(rank + 8, min(m.n_rows, m.n_cols))
    mt = m.transpose()
    omega = rng.standard_normal((m.n_cols, width))
    q, _ = np.linalg.qr(spmm(m, omega))
    z = spmm(mt, q)  # m^T q, carried into the next step
    prev = None
    for _ in range(40):
        q, _ = np.linalg.qr(spmm(m, z))
        z = spmm(mt, q)
        ub, s, _ = np.linalg.svd(z.T, full_matrices=False)  # q^T m
        if prev is not None:  # two baseline power iterations
            denom = np.where(prev[:rank] > 0, prev[:rank], 1.0)
            if np.max(np.abs(s[:rank] - prev[:rank]) / denom) < 1e-9:
                break
        prev = s
    u = q @ ub[:, :rank]
    return u, s[:rank].copy()


def lsi_embedding(m: SparseMatrix, rank: int, seed: int) -> np.ndarray:
    """Latent semantic indexing coordinates: TF-IDF, then U * diag(s)."""
    u, s = truncated_svd(tfidf(m), rank, seed)
    return u * s

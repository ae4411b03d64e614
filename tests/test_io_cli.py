import ast
import dataclasses
import filecmp
import importlib
import os
import pathlib
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from cellgraph import cli, data
from cellgraph.autodiff import ParamStore, save_checkpoint
from cellgraph.cli import cli_dispatch
from cellgraph.config import (ConfigError, RunConfig, apply_setting,
                              load_config_file)
from cellgraph.convnet import ConvConfig, init_params
from cellgraph.data import (Dataset, _load_sparse_chunks,
                            _load_sparse_lines, generate_synthetic,
                            load_dataset, load_gene_sets, load_labels,
                            load_real_array, load_sparse_matrix, read_kv,
                            save_dataset, write_dense_matrix, write_kv,
                            write_labels, write_real_array,
                            write_sparse_matrix)
from cellgraph.graph import EdgeScaling, augment_with_pathways, build_bipartite
from cellgraph.linalg import SparseMatrix
from cellgraph.tasks import EmbedConfig, MatcherConfig, TrainProtocol


class TestSparseMatrixFile:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 3.5\n")
        m = load_sparse_matrix(path)
        assert m.shape == (2, 2)
        assert m.to_dense()[0, 0] == 3.5

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1\n1 1 1\n")
        assert load_sparse_matrix(path).to_dense()[0, 0] == 2.0

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((12, 7)) * (rng.random((12, 7)) < 0.4)
        m = SparseMatrix.from_dense(dense)
        path = tmp_path / "m.mtx"
        write_sparse_matrix(m, path)
        loaded = load_sparse_matrix(path)
        assert np.array_equal(loaded.values, m.values)
        assert np.array_equal(loaded.col_indices, m.col_indices)
        assert np.array_equal(loaded.row_offsets, m.row_offsets)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%Wrong\n1 1 0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_sparse_matrix(path)

    def test_out_of_range_index_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(ValueError, match=":3:.*out of range"):
            load_sparse_matrix(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 x 1.0\n")
        with pytest.raises(ValueError, match=":3:.*non-numeric"):
            load_sparse_matrix(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_reports_line(self, tmp_path, token):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"2 2 2\n1 1 1.0\n2 1 {token}\n")
        with pytest.raises(ValueError, match=re.escape(
                f":4: non-numeric or non-finite entry: '2 1 {token}'")):
            load_sparse_matrix(path)

    def test_negative_size_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "-1 3 0\n")
        with pytest.raises(ValueError, match=":2: negative size"):
            load_sparse_matrix(path)


MTX = "%%MatrixMarket matrix coordinate real general\n"


def same_as_line_loop(path):
    """load_sparse_matrix accepts path with the line loop's arrays, bit for
    bit, or rejects it with the line loop's message."""
    try:
        expected = _load_sparse_lines(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            load_sparse_matrix(path)
        assert str(caught.value) == str(exc)
        return
    got = load_sparse_matrix(path)
    assert got.shape == expected.shape
    assert np.array_equal(got.row_offsets, expected.row_offsets)
    assert np.array_equal(got.col_indices, expected.col_indices)
    assert np.array_equal(got.values.view(np.int64),
                          expected.values.view(np.int64))


def index_case(tok):
    return f"12 12 2\n{tok} 1 1.0\n2 {tok} 2.0\n"


def value_case(tok):
    return f"2 2 2\n1 1 {tok}\n2 2 1.0\n"


class TestChunkedLoader:
    """The chunks accept plain files; the line loop decides the rest."""

    @pytest.mark.parametrize("body,chunks", [
        *((index_case(tok), tok in ("+1", "007")) for tok in
          ("+1", "007", "-0", "1_0", "1e0", "1.5", "99999999999999999999")),
        *((value_case(tok), tok not in ("1_0", "nan", "inf", "1e400"))
          for tok in (".5", "5.", "+1", "1_0", "nan", "inf", "1e400",
                      "1e-400", "-0.0", "1E-3", "-7.25e+02")),
        ("3 3 1\n\u0663 1 1.0\n", False),  # a non-ASCII digit
        ("3 3 1\n1\u00a01 1.0\n", False),  # NBSP between tokens
        ("3 3 2\n1 1\x0c1.0\n2 2 2.0\n", False),  # \x0c splits a line
        ("3 3 2\r\n1 1 1.0\r\n2 2 2.0\r\n", False),
        ("3 3 2\n1\t1\t1.0\n2 \t2  2.0\n", True),
        ("3 3 2\n\n  \n1 1 1.0\n\t\n2 2 2.0\n \n", True),
        ("3 3 2\n1 1 1.0\n2 2 2.0", True),  # no final newline
        ("3 3 2\n1 1\n1 1 1.0 2\n", False),
        ("3 3 2\n3 3 1.0\n1 1 2.0\n3 3 0.5\n", False),  # one too many
        ("3 3 0\n", True),
        ("3 3 0", False),  # the size line has no newline
        ("3 3\n", False),
        # a size line longer than a chunk, whose first chunk would parse
        ("3 3 1" + " " * data._CHUNK_BYTES + "1 1 1.0\n", False),
        ("3 3 1\n1 1 1.0" + " " * data._CHUNK_BYTES + "\n", False),
        ("", False),
    ])
    def test_same_as_line_loop(self, tmp_path, body, chunks):
        path = tmp_path / "m.mtx"
        path.write_bytes((MTX + body).encode())
        same_as_line_loop(path)
        assert (_load_sparse_chunks(path) is not None) == chunks

    @staticmethod
    def numpy_1_23_loadtxt(chained: bool):
        """np.loadtxt as numpy 1.23 parses integer fields: a non-integer
        index token goes through a float with a DeprecationWarning, raised
        as it is or (chained) turned into a ValueError when it is raised."""
        real = np.loadtxt
        calls = []

        def loadtxt(lines, dtype, **kwargs):
            calls.append(len(lines))
            fixed = []
            for line in lines:
                tokens = line.split()
                for k, tok in enumerate(tokens[:2]):
                    if re.fullmatch(r"[+-]?[0-9]+", tok):
                        continue
                    try:
                        warnings.warn("parsing an integer via a float",
                                      DeprecationWarning)
                    except DeprecationWarning as exc:
                        if not chained:
                            raise
                        raise ValueError(f"could not convert {tok!r}") \
                            from exc
                    tokens[k] = str(int(float(tok)))
                fixed.append(" ".join(tokens))
            return real(fixed, dtype, **kwargs)

        return loadtxt, calls

    def test_float_parsing_numpy_takes_line_loop(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "m.mtx"
        for chained in (False, True):
            loadtxt, calls = self.numpy_1_23_loadtxt(chained)
            monkeypatch.setattr(data.np, "loadtxt", loadtxt)
            path.write_text(MTX + "12 12 3\n7 1 1.0\n2 7 2.0\n12 3 -0.5\n")
            assert _load_sparse_chunks(path) is not None and calls
            same_as_line_loop(path)
            for tok in ("1.0", "1e0", "1.5"):
                path.write_text(MTX + index_case(tok))
                assert _load_sparse_chunks(path) is None
                with pytest.raises(ValueError, match=re.escape(
                        f"{path}:3: non-numeric or non-finite entry")):
                    load_sparse_matrix(path)
            # with the warning not raised, the fake parses it as an integer
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                assert loadtxt(["1.5 1 1.0"], data._ENTRY_DTYPE)["row"] == 1

    def test_unsorted_duplicates_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [f"{r} {c} {v!r}" for r, c, v in zip(
            rng.integers(1, 6, 400), rng.integers(1, 4, 400),
            rng.standard_normal(400).tolist())]
        path = tmp_path / "m.mtx"
        path.write_text(MTX + "5 3 400\n" + "\n".join(lines) + "\n")
        same_as_line_loop(path)
        assert _load_sparse_chunks(path) is not None

    @pytest.mark.parametrize("bad,lead,message", [
        ("1 x 1.0", 0, "non-numeric"),  # starts exactly at a chunk edge
        ("3 1 1.0", 3, r"index \(3, 1\) out of range"),  # straddles it
    ])
    def test_bad_line_at_chunk_edge(self, tmp_path, bad, lead, message):
        size = "2 2 9999\n"
        # entries start after the size line; the bad line starts `lead`
        # bytes before the first chunk's end
        room = data._CHUNK_BYTES - lead
        fill = ["1 1 1.0\n"] * (room // 8 - 1)
        fill.append(" " * (room - 8 * len(fill) - 8) + "1 1 1.0\n")
        assert sum(map(len, fill)) == room
        path = tmp_path / "m.mtx"
        path.write_text(MTX + size + "".join(fill) + bad + "\n1 1 1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{len(fill) + 3}: ") + message):
            load_sparse_matrix(path)
        same_as_line_loop(path)

    def test_empty_matrix_loads_without_warning(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(MTX + "3 4 0\n\n \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = load_sparse_matrix(path)
        assert m.shape == (3, 4) and m.nnz == 0

    def test_huge_promise_allocates_nothing_large(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(MTX + "1000000 1000000 1000000000000\n"
                        "1 1 1.0\n2 2 2.0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="header promised "
                                                 "1000000000000 entries"):
                load_sparse_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_peak_within_three_entry_arrays(self, tmp_path):
        rng = np.random.default_rng(17)
        n_rows, n_cols, nnz = 4000, 2000, 160_000
        flat = rng.choice(n_rows * n_cols, nnz, replace=False)
        m = SparseMatrix.from_coo(n_rows, n_cols, flat // n_cols,
                                  flat % n_cols, rng.standard_normal(nnz))
        path = tmp_path / "m.mtx"
        write_sparse_matrix(m, path)
        assert os.path.getsize(path) > 4_000_000
        tracemalloc.start()
        try:
            loaded = load_sparse_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, m.values)
        # the row, column and value arrays (24 bytes an entry) three times
        # over: reading the whole file or parsing it into lists breaks this
        assert peak <= 3 * nnz * 24 + (1 << 20)


class TestLabels:
    def test_interning(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a\nb\na\n")
        ids, names = load_labels(path)
        assert ids.tolist() == [0, 1, 0]
        assert names == ["a", "b"]

    def test_na_masked(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a\nNA\nb\n")
        ids, names = load_labels(path)
        assert ids.tolist() == [0, -1, 1]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        names = [f"type{i}" for i in range(6)]
        ids = rng.integers(-1, 6, size=1000)
        path = tmp_path / "labels.txt"
        write_labels(ids, names, path)
        loaded_ids, loaded_names = load_labels(path)
        # renumbering follows first appearance; compare via name strings
        def as_names(i, nm):
            return ["NA" if x == -1 else nm[x] for x in i]
        assert as_names(loaded_ids, loaded_names) == as_names(ids, names)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_labels(path)


class TestGeneSets:
    def test_resolution_against_name_index(self, tmp_path):
        names = tmp_path / "features.txt"
        names.write_text("geneA\ngeneB\ngeneC\n")
        sets = tmp_path / "sets.tsv"
        sets.write_text("pathway1\tgeneA,geneC\npathway2\tgeneB\n")
        collection = load_gene_sets(sets, names)
        assert collection.sets == [("pathway1", [0, 2]), ("pathway2", [1])]

    def test_unknown_feature_reports_line(self, tmp_path):
        names = tmp_path / "features.txt"
        names.write_text("geneA\n")
        sets = tmp_path / "sets.tsv"
        sets.write_text("p\tgeneA\nq\tgeneZ\n")
        with pytest.raises(ValueError, match=":2:.*geneZ"):
            load_gene_sets(sets, names)

    def test_missing_tab_rejected(self, tmp_path):
        names = tmp_path / "features.txt"
        names.write_text("geneA\n")
        sets = tmp_path / "sets.tsv"
        sets.write_text("justaname\n")
        with pytest.raises(ValueError, match="name<TAB>"):
            load_gene_sets(sets, names)


class TestGenerateSynthetic:
    def test_cross_modality_linear_predictability(self):
        ds = generate_synthetic(300, noise=0.0, dropout=0.0, seed=3)
        m1 = ds.modality_1.to_dense()
        m2 = ds.modality_2_aligned().to_dense()
        design = np.hstack([m1, np.ones((300, 1))])
        coef, *_ = np.linalg.lstsq(design, m2, rcond=None)
        resid = m2 - design @ coef
        r2 = 1 - (resid ** 2).sum() / ((m2 - m2.mean(0)) ** 2).sum()
        assert r2 > 0.99

    def test_sparsity_monotone_in_dropout(self):
        densities = []
        for dropout in (0.0, 0.5, 0.9):
            ds = generate_synthetic(250, dropout=dropout, seed=4)
            densities.append(ds.modality_1.nnz / (250 * 60))
        assert densities[0] > densities[1] > densities[2]

    def test_deterministic_per_seed(self):
        a = generate_synthetic(100, seed=5)
        b = generate_synthetic(100, seed=5)
        assert np.array_equal(a.modality_1.values, b.modality_1.values)
        assert np.array_equal(a.correspondence, b.correspondence)
        assert np.array_equal(a.pseudotime, b.pseudotime)

    def test_correspondence_is_permutation(self):
        ds = generate_synthetic(80, seed=6)
        assert np.array_equal(np.sort(ds.correspondence), np.arange(80))

    def test_batch_labels_follow_correspondence(self):
        ds = generate_synthetic(60, n_batches=3, seed=7)
        b2 = ds.batch_labels_2()
        assert np.array_equal(b2[ds.correspondence], ds.batch_labels)

    def test_needs_two_types(self):
        with pytest.raises(ValueError):
            generate_synthetic(10, n_types=1)

    def test_dataset_round_trip(self, tmp_path):
        ds = generate_synthetic(40, seed=8)
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path)
        assert np.array_equal(loaded.modality_1.values, ds.modality_1.values)
        assert np.array_equal(loaded.modality_2.values, ds.modality_2.values)
        # interning renumbers ids by first appearance; names are preserved
        assert ([loaded.batch_names[i] for i in loaded.batch_labels]
                == [ds.batch_names[i] for i in ds.batch_labels])
        assert ([loaded.cell_type_names[i] for i in loaded.cell_type_labels]
                == [ds.cell_type_names[i] for i in ds.cell_type_labels])
        assert np.array_equal(loaded.correspondence, ds.correspondence)
        assert np.array_equal(loaded.pseudotime, ds.pseudotime)
        assert loaded.cell_ids == ds.cell_ids

    def test_repeated_correspondence_index_rejected(self, tmp_path):
        ds = generate_synthetic(40, seed=8)
        ds.correspondence[1] = ds.correspondence[0]
        save_dataset(ds, tmp_path)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path}: ")
                           + "correspondence must be a permutation"):
            load_dataset(tmp_path)

    def test_non_numeric_correspondence_reports_line(self, tmp_path):
        save_dataset(generate_synthetic(40, seed=8), tmp_path)
        path = tmp_path / "correspondence.txt"
        lines = path.read_text().splitlines()
        lines[2] = "x7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")
                           + "not a number: 'x7'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["pseudotime.txt", "cc_scores.txt"])
    def test_non_numeric_real_array_reports_line(self, tmp_path, name):
        save_dataset(generate_synthetic(40, seed=8), tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        for token in ("0.5.1", "nan", "inf", "1e400"):
            lines[4] = token
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}:5: not a finite number: '{token}'")):
                load_dataset(tmp_path)

    def test_aligned_modality_2_permutes_rows_sparsely(self):
        ds = generate_synthetic(40, seed=8)
        dense = ds.modality_2.to_dense()
        dense[ds.correspondence[0]] = 0.0  # aligned row 0 is empty
        m2 = SparseMatrix.from_dense(dense)
        values = m2.values.copy()
        values[5] = 0.0  # a stored zero, which the aligned copy drops
        m2 = m2.with_values(values)
        aligned = dataclasses.replace(ds, modality_2=m2).modality_2_aligned()
        expected = SparseMatrix.from_dense(m2.to_dense()[ds.correspondence])
        assert aligned.nnz == m2.nnz - 1
        assert aligned.row_offsets[1] == 0
        for name in ("row_offsets", "col_indices", "values"):
            assert np.array_equal(getattr(aligned, name),
                                  getattr(expected, name))

    def test_per_cell_lengths_checked(self):
        ds = generate_synthetic(40, seed=8)
        for name, short in (
                ("cell_type_labels", ds.cell_type_labels[:37]),
                ("pseudotime", ds.pseudotime[:39]),
                ("cc_scores", ds.cc_scores[:39]),
                ("modality_2", SparseMatrix.from_dense(
                    ds.modality_2.to_dense()[:39]))):
            with pytest.raises(ValueError, match=f"{name} has"):
                dataclasses.replace(ds, **{name: short})


class TestConfig:
    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nseed = 7\nconv.n_layers = 3\n"
                        "train.lr = 0.005  # inline comment\n")
        cfg = load_config_file(path)
        assert (cfg.train.seed == 7 and cfg.conv.n_layers == 3
                and cfg.train.lr == 0.005)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("conv.window = 5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(path)

    def test_validation_bounds(self):
        cfg = RunConfig()
        cfg.conv.alpha = 1.5
        with pytest.raises(ConfigError, match="alpha"):
            cfg.validate()
        cfg = RunConfig()
        cfg.train.split_fraction = 1.0
        with pytest.raises(ConfigError, match="split_fraction"):
            cfg.validate()
        cfg = RunConfig()
        cfg.match.percentile = 100.0
        with pytest.raises(ConfigError, match="percentile"):
            cfg.validate()

    @pytest.mark.parametrize("key, value", [
        ("conv.alpha", 1.5), ("conv.dropout", 1.0), ("conv.residual", "x"),
        ("conv.groups", 5), ("conv.hidden_dim", 0), ("conv.n_layers", -1),
        ("train.split_fraction", 1.0), ("train.patience", 0),
        ("train.max_epochs", 0), ("train.lr_decay_every", 0)])
    def test_errors_name_the_config_key(self, key, value):
        cfg = RunConfig(task="match")
        apply_setting(cfg, key, str(value))
        with pytest.raises(ConfigError, match=f"^{key.split('.')[0]}: "
                           f"{re.escape(key)} "):
            cfg.validate()

    def test_error_names_every_key_it_mentions(self):
        cfg = RunConfig(task="match")
        cfg.conv.n_groups = 5
        with pytest.raises(ConfigError, match="^conv: conv.groups must "
                           "divide conv.hidden_dim"):
            cfg.validate()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a hand-written run\n"
                        "conv.alpha = learnable\n"
                        "match.percentile = 90  # trailing comment\n"
                        "\n"
                        "conv.n_layers = default\n"
                        "train.lr = default\n", encoding="utf-8")
        loaded = load_config_file(path)
        assert loaded.conv.alpha == "learnable"
        assert loaded.match.percentile == 90.0
        assert loaded.conv.n_layers is None and loaded.train.lr is None
        expected = RunConfig()
        expected.conv.alpha = "learnable"
        expected.match.percentile = 90.0
        assert loaded == expected

    def test_quoted_value_not_renamed(self):
        cfg = RunConfig(task="match")
        apply_setting(cfg, "conv.residual", "alpha")
        with pytest.raises(ConfigError, match="got 'alpha'$"):
            cfg.validate()

    def test_task_layer_defaults(self):
        cfg = RunConfig()
        assert cfg.conv_config("predict").n_layers == 4
        assert cfg.conv_config("match").n_layers == 3
        assert cfg.conv_config("embed").n_layers == 2

    def test_conv_settings_reach_matcher_and_embed(self, synth_dir,
                                                   monkeypatch):
        settings = ["conv.hidden_dim=24", "conv.dropout=0.1",
                    "conv.alpha=learnable", "conv.residual=skip",
                    "conv.norm=min_max", "conv.groups=3", "seed=4",
                    "match.percentile=90", "match.aux_weight=0.5",
                    "embed.beta=0.2", "embed.lsi_rank=8"]
        want = ConvConfig(hidden_dim=24, dropout_rate=0.1, alpha="learnable",
                          residual_mode="skip",
                          aggregation_norm=EdgeScaling.MIN_MAX, n_groups=3)
        for command, layers, task_cfg in (
                ("match", 3, MatcherConfig(percentile=90, aux_weight=0.5)),
                ("embed", 2, EmbedConfig(beta=0.2, lsi_rank=8))):
            assert handed_to_trainer(monkeypatch, synth_dir, command,
                                     settings) == (
                dataclasses.replace(want, n_layers=layers),
                TrainProtocol(seed=4), task_cfg)

    def test_train_seed_reaches_the_protocol(self):
        cfg = RunConfig()
        cfg.train.seed = 5
        assert cfg.protocol().seed == 5
        apply_setting(cfg, "seed", "7")
        assert cfg.train.seed == 7 and cfg.protocol().seed == 7

    def test_conv_n_layers_reaches_the_network(self, synth_dir,
                                               monkeypatch):
        cfg = RunConfig()
        cfg.conv.n_layers = 3
        assert [cfg.conv_config(task).n_layers
                for task in ("predict", "match", "embed")] == [3, 3, 3]
        for command in ("match", "embed"):
            conv, _, _ = handed_to_trainer(monkeypatch, synth_dir, command,
                                           ["conv.n_layers=1"])
            assert conv.n_layers == 1

    @pytest.mark.parametrize("command", ["predict", "match", "embed"])
    def test_bad_norm_exit_1_naming_the_key(self, tmp_path, command, capsys):
        # the (missing) dataset is never read
        assert cli_dispatch([command, "--data", str(tmp_path / "nowhere"),
                             "--set", "conv.norm=l2"]) == 1
        assert "config error: bad value for conv.norm: 'l2'" in (
            capsys.readouterr().err)


def run_cli(*args):
    return cli_dispatch(list(args))


def handed_to_trainer(monkeypatch, data, command, settings):
    """The (conv, protocol, task config) that `cellgraph command` hands
    its trainer, which is stubbed out to stop the run before training."""
    handed = []

    def stub(m1, m2, labels, *args):
        handed.extend(args)
        raise RuntimeError("stub trainer")

    name = {"match": "train_matcher", "embed": "train_joint_embedding"}
    monkeypatch.setattr(cli, name[command], stub)
    flags = [arg for kv in settings for arg in ("--set", kv)]
    assert run_cli(command, "--data", str(data), *flags) == 2
    return tuple(handed)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run_cli("synth", "--cells", "120", "--seed", "1",
                   "--out", str(out), "--set", "synth.dim1=30",
                   "--set", "synth.dim2=24", "--set", "synth.types=3")
    assert code == 0
    return out


def fast_overrides(*extra):
    args = []
    for kv in ("train.patience=8", "train.max_epochs=25",
               "conv.hidden_dim=16", "match.reduce_rank=12",
               "embed.lsi_rank=10", "metrics.knn_k=6") + extra:
        args.extend(["--set", kv])
    return args


class TestCli:
    def test_unknown_flag_usage_exit_1(self, capsys):
        assert run_cli("predict", "--bogus") == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_exit_1(self, capsys):
        assert run_cli() == 1

    def test_unknown_config_key_exit_1(self, synth_dir, capsys):
        assert run_cli("match", "--data", str(synth_dir),
                       "--set", "nope=1") == 1

    def test_missing_data_dir_is_runtime_error(self, tmp_path):
        assert run_cli("match", "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("task, code", [("match", 1), ("embed", 1),
                                            ("predict", 2)])
    def test_symmetric_norm_rejected_for_signed_graphs(self, tmp_path, task,
                                                       code, capsys):
        # match and embed weight their edges by signed SVD/LSI coordinates,
        # so the key fails before the (missing) dataset is read; predict's
        # graph is the non-negative modality and gets as far as loading it
        assert run_cli(task, "--data", str(tmp_path / "nowhere"),
                       "--set", "conv.norm=symmetric") == code
        err = capsys.readouterr().err
        assert ("config error" in err) == (code == 1)

    @pytest.mark.parametrize("setting", ["conv.groups=5", "conv.groups=0",
                                         "conv.hidden_dim=0",
                                         "conv.n_layers=-1"])
    def test_invalid_conv_setting_exit_1(self, tmp_path, setting, capsys):
        assert run_cli("match", "--data", str(tmp_path / "nowhere"),
                       "--set", setting) == 1
        assert "config error: conv: " in capsys.readouterr().err

    @pytest.mark.parametrize("setting, code", [
        ("conv.groups=5", 0), ("conv.hidden_dim=0", 0), ("conv.n_layers=-1", 0),
        ("conv.alpha=1.5", 1), ("conv.dropout=1", 1), ("conv.residual=x", 1)])
    def test_synth_checks_conv_values_not_shape(self, tmp_path, setting,
                                                code):
        # synth builds no network, so only values no network takes fail
        assert run_cli("synth", "--cells", "40", "--seed", "2",
                       "--out", str(tmp_path / "s"), "--set", setting) == code

    @pytest.mark.parametrize("command, setting", [
        ("predict", "train.lr=-0.5"), ("predict", "train.weight_decay=-1"),
        ("predict", "train.lr_decay_rate=0"), ("match", "match.aux_weight=-1"),
        ("match", "match.reduce_rank=0"), ("embed", "embed.beta=-1"),
        ("embed", "embed.lsi_rank=0"), ("synth", "synth.types=1"),
        ("synth", "synth.batches=0"), ("synth", "synth.cells=0"),
        ("synth", "synth.cells=1"), ("synth", "synth.dim1=0"),
        ("synth", "synth.dim2=0"), ("synth", "synth.noise=-0.1"),
        ("synth", "synth.dropout=1.5"), ("synth", "synth.dropout=-0.1")])
    def test_out_of_range_setting_exit_1_naming_the_key(
            self, tmp_path, command, setting, capsys):
        # each fails before the (missing) dataset is read, and synth
        # writes nothing
        data = ["--data", str(tmp_path / "nowhere")] * (command != "synth")
        assert run_cli(command, *data, "--out", str(tmp_path / "o"),
                       "--set", setting) == 1
        err = capsys.readouterr().err
        assert "config error: " in err
        assert f" {setting.split('=')[0]} must be " in err
        assert not (tmp_path / "o").exists()

    def test_predict_without_layers_exit_1(self, tmp_path, capsys):
        # the coupled readout mixes per-layer states, so predict needs one;
        # the (missing) dataset is never read
        assert run_cli("predict", "--data", str(tmp_path / "nowhere"),
                       "--set", "conv.n_layers=0") == 1
        assert "config error: conv: conv.n_layers" in capsys.readouterr().err

    def test_synth_then_match_smoke(self, synth_dir, tmp_path):
        out = tmp_path / "match"
        code = run_cli("match", "--data", str(synth_dir), "--seed", "1",
                       "--out", str(out), *fast_overrides())
        assert code == 0
        report = read_kv(out / "report.kv")
        assert "score_softmax" in report and "score_assignment" in report
        assert (out / "run.log").exists()
        assert (out / "model.ckpt").exists()

    def test_predict_smoke(self, synth_dir, tmp_path):
        out = tmp_path / "pred"
        code = run_cli("predict", "--data", str(synth_dir), "--seed", "1",
                       "--out", str(out), *fast_overrides("conv.n_layers=2"))
        assert code == 0
        report = read_kv(out / "report.kv")
        assert "val_rmse" in report
        assert (out / "predictions.mtx").exists()

    def test_predict_with_gene_sets(self, synth_dir, tmp_path):
        sets_path = tmp_path / "sets.tsv"
        sets_path.write_text("p1\tg1_0000,g1_0001,g1_0002\n"
                             "p2\tg1_0002,g1_0003\n")
        out = tmp_path / "pred_gs"
        code = run_cli("predict", "--data", str(synth_dir), "--seed", "1",
                       "--out", str(out),
                       "--set", f"predict.gene_sets={sets_path}",
                       *fast_overrides("conv.n_layers=1"))
        assert code == 0
        assert "val_rmse" in read_kv(out / "report.kv")

    def test_predict_checkpoint_holds_what_the_network_registers(
            self, synth_dir, tmp_path, monkeypatch):
        sets_path = tmp_path / "sets.tsv"
        sets_path.write_text("p1\tg1_0000,g1_0001,g1_0002\n"
                             "p2\tg1_0002,g1_0003\n")
        out = tmp_path / "pred_ckpt"
        saved = []

        def save(store, path):
            saved.append(store)
            save_checkpoint(store, path)

        monkeypatch.setattr(cli, "save_checkpoint", save)
        assert run_cli("predict", "--data", str(synth_dir), "--seed", "1",
                       "--out", str(out),
                       "--set", f"predict.gene_sets={sets_path}",
                       *fast_overrides("conv.n_layers=3",
                                       "conv.alpha=learnable")) == 0
        ds = load_dataset(synth_dir)
        g = augment_with_pathways(build_bipartite(ds.modality_1),
                                  load_gene_sets(sets_path,
                                                 synth_dir / "features1.txt"))
        store = ParamStore()
        init_params(g, ConvConfig(n_layers=3, hidden_dim=16,
                                  alpha="learnable"), store, seed=1)
        (trained,) = saved
        names = sorted(trained.names())
        assert names == sorted(store.names() + ["head.w", "head.b"])
        # header: magic, version, step count, parameter count
        header = (out / "model.ckpt").read_bytes()[:20]
        assert struct.unpack("<4sIQI", header) == (
            b"CGCK", 1, trained.step_count, len(names))
        assert "alpha" in names and "l3.vu.w" in names
        assert not any(n.startswith(("in.cell", "l3.uv", "l3.vv"))
                       for n in names)

    def test_embed_then_eval_smoke(self, synth_dir, tmp_path):
        out = tmp_path / "embed"
        code = run_cli("embed", "--data", str(synth_dir), "--seed", "1",
                       "--out", str(out), *fast_overrides())
        assert code == 0
        metrics = read_kv(out / "metrics.kv")
        assert len(metrics) == 9
        eval_out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="cell-cycle conservation is "
                                             "left out"):
            code = run_cli("eval",
                           "--embedding", str(out / "embedding.mtx"),
                           "--labels", str(synth_dir / "types.txt"),
                           "--batches", str(synth_dir / "batches.txt"),
                           "--pseudotime", str(synth_dir / "pseudotime.txt"),
                           "--knn-k", "6",
                           "--out", str(eval_out))
        assert code == 0
        report = read_kv(eval_out / "metrics.kv")
        assert len(report) == 9
        assert set(report) == {"nmi", "cell_type_asw", "cc_conservation",
                               "trajectory_conservation", "batch_asw",
                               "graph_connectivity", "s_bio", "s_batch",
                               "overall"}

    def test_embed_single_batch_leaves_batch_asw_out(self, tmp_path):
        data_dir, out = tmp_path / "data", tmp_path / "embed"
        assert run_cli("synth", "--cells", "80", "--batches", "1",
                       "--seed", "1", "--out", str(data_dir)) == 0
        with pytest.warns(UserWarning, match="batch ASW is left out"):
            code = run_cli("embed", "--data", str(data_dir), "--seed", "1",
                           "--out", str(out), *fast_overrides())
        assert code == 0
        metrics = read_kv(out / "metrics.kv")
        assert metrics["batch_asw"] == "nan"
        assert metrics["s_batch"] == metrics["graph_connectivity"]

    def test_single_cell_type_leaves_cell_type_asw_out(self, tmp_path):
        data_dir, out = tmp_path / "data", tmp_path / "embed"
        assert run_cli("synth", "--cells", "120", "--seed", "2",
                       "--out", str(data_dir)) == 0
        types = data_dir / "types.txt"
        types.write_text("T0\n" * len(types.read_text().splitlines()))
        with pytest.warns(UserWarning, match="cell-type ASW is left out"):
            code = run_cli("embed", "--data", str(data_dir), "--seed", "2",
                           "--out", str(out), *fast_overrides())
        assert code == 0
        eval_out = tmp_path / "eval"
        with pytest.warns(UserWarning, match="left out") as caught:
            code = run_cli("eval", "--embedding", str(out / "embedding.mtx"),
                           "--labels", str(types),
                           "--batches", str(data_dir / "batches.txt"),
                           "--pseudotime", str(data_dir / "pseudotime.txt"),
                           "--knn-k", "6", "--out", str(eval_out))
        assert code == 0
        assert any("cell-type ASW is left out" in str(w.message)
                   for w in caught)
        for report in (read_kv(out / "metrics.kv"),
                       read_kv(eval_out / "metrics.kv")):
            assert report["cell_type_asw"] == "nan"
            others = [float(report[name]) for name in
                      ("nmi", "cc_conservation", "trajectory_conservation")
                      if report[name] != "nan"]
            assert float(report["s_bio"]) == pytest.approx(np.mean(others),
                                                           abs=1e-6)

    @staticmethod
    def no_louvain_sweep(monkeypatch):
        def sweep(*args):
            raise AssertionError("the Louvain sweep ran on one cell type")
        monkeypatch.setattr(cli.met, "nmi_cluster_label", sweep)

    @staticmethod
    def assert_nmi_left_out(report):
        assert report["nmi"] == "nan" and report["cell_type_asw"] == "nan"
        others = [float(report[name]) for name in
                  ("cc_conservation", "trajectory_conservation")
                  if report[name] != "nan"]
        assert float(report["s_bio"]) == pytest.approx(np.mean(others),
                                                       abs=1e-6)

    def test_embed_single_cell_type_leaves_nmi_out(self, tmp_path,
                                                   monkeypatch):
        data_dir, out = tmp_path / "data", tmp_path / "embed"
        assert run_cli("synth", "--cells", "120", "--seed", "2",
                       "--out", str(data_dir)) == 0
        types = data_dir / "types.txt"
        types.write_text("T0\n" * len(types.read_text().splitlines()))
        self.no_louvain_sweep(monkeypatch)
        with pytest.warns(UserWarning, match="NMI is left out"):
            code = run_cli("embed", "--data", str(data_dir), "--seed", "2",
                           "--out", str(out), *fast_overrides())
        assert code == 0
        self.assert_nmi_left_out(read_kv(out / "metrics.kv"))

    def test_eval_single_cell_type_leaves_nmi_out(self, synth_dir, tmp_path,
                                                  monkeypatch):
        emb = tmp_path / "embedding.mtx"
        write_dense_matrix(np.random.default_rng(7).standard_normal((120, 5)),
                           emb)
        labels = tmp_path / "types.txt"
        labels.write_text("T0\nNA\n" * 60)
        self.no_louvain_sweep(monkeypatch)
        with pytest.warns(UserWarning, match="left out") as caught:
            code = run_cli("eval", "--embedding", str(emb),
                           "--labels", str(labels),
                           "--batches", str(synth_dir / "batches.txt"),
                           "--pseudotime", str(synth_dir / "pseudotime.txt"),
                           "--knn-k", "6", "--out", str(tmp_path / "eval"))
        assert code == 0
        assert any("NMI is left out" in str(w.message) for w in caught)
        self.assert_nmi_left_out(read_kv(tmp_path / "eval" / "metrics.kv"))

    def test_eval_without_labeled_cells_exit_2(self, synth_dir, tmp_path,
                                               capsys):
        emb = tmp_path / "embedding.mtx"
        write_dense_matrix(np.random.default_rng(5).standard_normal((120, 5)),
                           emb)
        labels = tmp_path / "types.txt"
        labels.write_text("NA\n" * 120)
        assert run_cli("eval", "--embedding", str(emb),
                       "--labels", str(labels),
                       "--batches", str(synth_dir / "batches.txt"),
                       "--knn-k", "6", "--out", str(tmp_path / "eval")) == 2
        assert f"{labels}: no labeled cell" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.kv").exists()

    def test_eval_minimal_inputs_has_nine_keys(self, synth_dir, tmp_path):
        emb_out = tmp_path / "embed2"
        assert run_cli("embed", "--data", str(synth_dir), "--seed", "2",
                       "--out", str(emb_out), *fast_overrides()) == 0
        eval_out = tmp_path / "eval2"
        with pytest.warns(UserWarning, match="left out") as caught:
            code = run_cli("eval",
                           "--embedding", str(emb_out / "embedding.mtx"),
                           "--labels", str(synth_dir / "types.txt"),
                           "--batches", str(synth_dir / "batches.txt"),
                           "--knn-k", "6",
                           "--out", str(eval_out))
        assert code == 0
        assert len(read_kv(eval_out / "metrics.kv")) == 9
        assert sum("left out" in str(w.message) for w in caught) == 2

    def test_eval_without_cc_scores_leaves_it_out(self, synth_dir,
                                                  tmp_path):
        emb = tmp_path / "embedding.mtx"
        write_dense_matrix(np.random.default_rng(3).standard_normal((120, 5)),
                           emb)
        with pytest.warns(UserWarning, match="cell-cycle conservation is "
                                             "left out"):
            code = run_cli("eval", "--embedding", str(emb),
                           "--labels", str(synth_dir / "types.txt"),
                           "--batches", str(synth_dir / "batches.txt"),
                           "--pseudotime", str(synth_dir / "pseudotime.txt"),
                           "--knn-k", "6", "--out", str(tmp_path / "eval"))
        assert code == 0
        report = read_kv(tmp_path / "eval" / "metrics.kv")
        assert report["cc_conservation"] == "nan"
        others = [float(report[name]) for name in
                  ("nmi", "cell_type_asw", "trajectory_conservation")]
        # each of the four values was rounded to 6 decimals by at most 5e-7
        assert float(report["s_bio"]) == pytest.approx(np.mean(others),
                                                       abs=1e-6)

    @pytest.mark.parametrize("flag", ["--labels", "--batches", "--pseudotime",
                                      "--cc-scores", "--pre-embedding"])
    def test_eval_input_length_mismatch_exit_2(self, synth_dir, tmp_path,
                                               capsys, flag):
        rng = np.random.default_rng(4)
        emb = tmp_path / "embedding.mtx"
        write_dense_matrix(rng.standard_normal((120, 5)), emb)
        write_dense_matrix(rng.standard_normal((120, 3)), tmp_path / "pre.mtx")
        inputs = {"--labels": synth_dir / "types.txt",
                  "--batches": synth_dir / "batches.txt",
                  "--pseudotime": synth_dir / "pseudotime.txt",
                  "--cc-scores": synth_dir / "cc_scores.txt",
                  "--pre-embedding": tmp_path / "pre.mtx"}
        short = tmp_path / ("short" + inputs[flag].suffix)
        if flag == "--pre-embedding":
            write_dense_matrix(rng.standard_normal((119, 3)), short)
        else:
            lines = inputs[flag].read_text().splitlines(keepends=True)
            short.write_text("".join(lines[:-1]))
        inputs[flag] = short
        argv = ["eval", "--embedding", str(emb), "--knn-k", "6",
                "--out", str(tmp_path / "eval")]
        for name, path in inputs.items():
            argv += [name, str(path)]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert str(short) in err and "119 entries" in err
        assert f"{emb} has 120 rows" in err
        assert not (tmp_path / "eval" / "metrics.kv").exists()

    @pytest.mark.parametrize("kept", [3, None])
    def test_modality_2_feature_names_must_match_width(self, synth_dir,
                                                       tmp_path, capsys,
                                                       kept):
        # a features2.txt cut to 3 names, or deleted, fails at load time
        data = tmp_path / "data"
        save_dataset(load_dataset(synth_dir), data)
        names = data / "features2.txt"
        if kept is None:
            names.unlink()
        else:
            lines = names.read_text().splitlines(keepends=True)
            names.write_text("".join(lines[:kept]))
        assert run_cli("match", "--data", str(data),
                       "--out", str(tmp_path / "o")) == 2
        assert (f"feature_names_2 has {kept or 0} names, expected one per "
                "modality_2 column (24)") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gradcheck_exit_zero(self):
        assert run_cli("gradcheck", "--seeds", "2") == 0


class TestReproducibility:
    def compare_dirs(self, a, b):
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), f"{name} differs"

    def test_every_subcommand_byte_identical(self, synth_dir, tmp_path):
        for sub, extra in (
            ("synth", ["--cells", "60", "--seed", "3"]),
            ("predict", ["--data", str(synth_dir), "--seed", "3",
                         *fast_overrides("conv.n_layers=2")]),
            ("match", ["--data", str(synth_dir), "--seed", "3",
                       *fast_overrides()]),
            ("embed", ["--data", str(synth_dir), "--seed", "3",
                       *fast_overrides()]),
        ):
            a = tmp_path / f"{sub}_a"
            b = tmp_path / f"{sub}_b"
            assert run_cli(sub, *extra, "--out", str(a)) == 0
            assert run_cli(sub, *extra, "--out", str(b)) == 0
            self.compare_dirs(a, b)


class TestKvFormat:
    def test_floats_fixed_six_decimals(self, tmp_path):
        path = tmp_path / "r.kv"
        write_kv({"a": 0.123456789, "b": 3, "c": "text"}, path)
        content = path.read_text()
        assert "a = 0.123457\n" in content
        assert "b = 3\n" in content
        assert "c = text\n" in content

    def test_real_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(50)
        path = tmp_path / "x.txt"
        write_real_array(values, path)
        assert np.array_equal(load_real_array(path), values)


class TestBenchmarkPhases:
    def test_every_phase_site_resolves(self):
        # the benchmark times its phases by patching these names; one that
        # no longer resolves fails every benchmark run with missing marks
        path = (pathlib.Path(__file__).parents[1] / "perfbench" / "child.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        phases = next(ast.literal_eval(node.value) for node in tree.body
                      if isinstance(node, ast.Assign)
                      and [t.id for t in node.targets] == ["PHASES"])
        sites = [site for group in phases.values() for site in group]
        assert len(sites) == 5
        for module, attrs in sites:
            obj = importlib.import_module(module)
            for attr in attrs.split("."):
                obj = getattr(obj, attr)
            assert callable(obj), f"{module}.{attrs}"


class TestTracerTargets:
    # the benchmark's tracer wraps these names; one that no longer resolves
    # is reported absent, and the trace then fails its absent-names check.
    # selector_matrix went with row selection by sparse matmul, and the
    # tracer still lists it
    KNOWN_ABSENT = {"cellgraph.tasks.common.selector_matrix"}

    @staticmethod
    def resolves(module: str, path: str) -> bool:
        """The tracer's own lookup: a method must be on the class itself."""
        owner = importlib.import_module(module)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if isinstance(owner, type):
            return name in vars(owner)
        return getattr(owner, name, None) is not None

    def test_every_traced_name_resolves(self):
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        install = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "install")
        targets = [
            (node.elts[0].value, node.elts[1].value)
            for node in ast.walk(install)
            if isinstance(node, ast.Tuple) and len(node.elts) == 3
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.elts[:2])
            and node.elts[0].value.startswith("cellgraph.")]
        tape_ops = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [t.id for t in node.targets] == ["TAPE_OPS"])
        assert len(targets) > 30 and "spmm_const" in tape_ops
        targets += [("cellgraph.autodiff", f"Tape.{op}") for op in tape_ops]
        missing = {f"{module}.{name}" for module, name in targets
                   if not self.resolves(module, name)}
        assert missing <= self.KNOWN_ABSENT


@pytest.mark.parametrize("module", ["cellgraph", "cellgraph.tasks"])
def test_every_exported_name_resolves(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)

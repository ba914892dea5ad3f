import re
import warnings

import numpy as np
import pytest

import oracles
from genefunnel import data
from genefunnel.data import (Dataset, apply_minmax, impute_knn, load_csv,
                             make_folds, minmax_stats, normalize_minmax,
                             project)
from genefunnel.errors import ParseError, ValidationError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDatasetInvariants:
    @pytest.mark.parametrize("values, labels, gene_ids, class_names, message", [
        (np.zeros(4), [0, 1, 0, 1], ("g",), ("a", "b"), "2-D"),
        (np.zeros((4, 1)), [0, 1, 0], ("g",), ("a", "b"), "label count"),
        (np.zeros((4, 1)), [0, 1, 0, 1], ("g", "h"), ("a", "b"),
         "2 gene ids for 1 columns"),
        (np.zeros((4, 0)), np.zeros(4), (), (), "class name"),
        (np.zeros((4, 1)), [0, 1, 2, 1], ("g",), ("a", "b"), "outside"),
    ], ids=["not_2d", "label_count", "gene_id_count", "no_class_names",
            "label_outside_classes"])
    def test_rejected(self, values, labels, gene_ids, class_names, message):
        with pytest.raises(ValidationError, match=message):
            Dataset(values, np.asarray(labels), gene_ids, class_names)


class TestLoadCsv:
    def test_first_appearance_label_mapping(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,4,B\n5,6,A\n")
        ds, mask = load_csv(path)
        assert ds.n_samples == 3 and ds.n_genes == 2 and ds.n_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ("A", "B")
        assert mask.shape == (0, 2)

    def test_missing_cell_recorded(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n,4,B\n")
        ds, mask = load_csv(path)
        assert mask.tolist() == [[1, 0]]
        assert mask.dtype == np.int64 and not mask.flags.writeable
        assert ds.values[1, 0] == 0.0  # provisional zero fill

    def test_missing_token_configurable(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,?,A\n3,4,B\n")
        _, mask = load_csv(path, missing_token="?")
        assert mask.tolist() == [[0, 1]]

    def test_label_column_first(self, tmp_path):
        path = write(tmp_path, "label,g1,g2\nA,1,2\nB,3,4\n")
        ds, _ = load_csv(path, label_column="first")
        assert ds.gene_ids == ("g1", "g2")
        assert ds.values[0].tolist() == [1.0, 2.0]

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,B\n")
        with pytest.raises(ParseError, match=":3"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,oops,A\n3,4,B\n")
        with pytest.raises(ParseError, match="oops"):
            load_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,2,A\n3,4,A\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_colon_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        m, n = 62, 2000
        header = ",".join(f"g{j}" for j in range(n)) + ",label"
        lines = [header]
        for i in range(m):
            row = ",".join(f"{v:.4f}" for v in rng.normal(size=n))
            lines.append(row + "," + ("tumor" if i % 2 else "normal"))
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds, _ = load_csv(path)
        assert (ds.n_samples, ds.n_genes, ds.n_classes) == (62, 2000, 2)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"g1,g2,label\n1,\xff,A\n3,4,B\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize("row3, message", [
        (b"x,4,B", r"data\.csv:3: non-numeric cell 'x'$"),
        (b"3,4,B", r"data\.csv: not UTF-8 text$")],
        ids=["earlier_error", "no_earlier_error"])
    def test_not_utf8_past_the_first_block_of_a_gap_file(self, tmp_path,
                                                         row3, message):
        # the bad byte lies past the first 8 KiB that a text read decodes,
        # so the row parser reaches an earlier error before it
        good = b"1.5,2.5,A\n3.5,4.5,B\n" * 500
        path = tmp_path / "data.csv"
        path.write_bytes(b"g1,g2,label\n1,,A\n" + row3 + b"\n" + good
                         + b"5,\xff,A\n")
        with pytest.raises(ParseError, match=message):
            load_csv(path)

    def test_label_column_must_be_first_or_last(self, tmp_path):
        path = write(tmp_path, "g1,label\n1,A\n2,B\n")
        with pytest.raises(ValidationError, match="'middle'"):
            load_csv(path, label_column="middle")

    def test_header_needs_a_gene_and_a_label_column(self, tmp_path):
        path = write(tmp_path, "label\nA\nB\n")
        with pytest.raises(ParseError, match="at least one gene column"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        # the blank line still counts, so the bad row is on line 4
        path = write(tmp_path, f"g1,g2,label\n1,2,A\n\n3,{cell},B\n")
        with pytest.raises(ParseError, match=r"data\.csv:4: non-finite cell "
                                             r".* in column 'g2'"):
            load_csv(path)

    @pytest.mark.parametrize("label_column", ["first", "last"])
    def test_repeated_gene_id_names_both_columns(self, tmp_path,
                                                 label_column):
        text = ("g1,g2,g1,label\n1,2,3,A\n4,5,6,B\n"
                if label_column == "last"
                else "label,g1,g2,g1\nA,1,2,3\nB,4,5,6\n")
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=r"data\.csv: gene id 'g1' "
                                             r"repeats in gene columns "
                                             r"0 and 2"):
            load_csv(path, label_column=label_column)

    @pytest.mark.parametrize("label, token", [
        ("", "NA"), ("  ", "NA"), ("NA", "NA"), (" NA ", "NA"), ("?", "?")])
    def test_missing_label_reports_line(self, tmp_path, label, token):
        path = write(tmp_path, f"g1,g2,label\n1,2,A\n3,4,B\n5,6,{label}\n")
        with pytest.raises(ParseError, match=r"data\.csv:4: missing class "
                                             r"label"):
            load_csv(path, missing_token=token)

    @pytest.mark.parametrize("bad, message", [
        ("3,B", "expected 3 columns, got 2"),
        ("3,4,", "missing class label ''"),
        ("3,x,B", "non-numeric cell 'x'"),
        ("3,inf,B", "non-finite cell inf in column 'g2'")])
    def test_line_after_a_quoted_newline(self, tmp_path, bad, message):
        # the first label spans lines 2-3, so the third record starts on
        # line 5
        path = write(tmp_path, f'g1,g2,label\n1,2,"A\nB"\n3,4,B\n{bad}\n')
        with pytest.raises(ParseError, match=rf"^.*data\.csv:5: "
                                             rf"{re.escape(message)}$"):
            load_csv(path)

    def test_label_equal_to_another_token_is_a_class(self, tmp_path):
        path = write(tmp_path, "g1,label\n1,NA\n2,B\n")
        ds, _ = load_csv(path, missing_token="?")
        assert ds.class_names == ("NA", "B")

    def test_nan_as_missing_token(self, tmp_path):
        path = write(tmp_path, "g1,g2,label\n1,nan,A\n3,4,B\n")
        ds, mask = load_csv(path, missing_token="nan")
        assert mask.tolist() == [[0, 1]] and ds.values[0, 1] == 0.0

    @pytest.mark.parametrize("label_column", ["first", "last"])
    def test_gaps_anywhere_in_a_row(self, tmp_path, label_column):
        rows = [["", " 2.5", "NA", "4 ", "  "],
                ["1e-3", " NA ", "-0", "7", "8"],
                ["1", "2", "3", "4", "5"]]
        lines = ["g0,g1,g2,g3,g4"]
        for cells, label in zip(rows, "ABA"):
            cells = ([label] + cells if label_column == "first"
                     else cells + [label])
            lines.append(",".join(cells))
        if label_column == "first":
            lines[0] = "label," + lines[0]
        else:
            lines[0] += ",label"
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds, mask = load_csv(path, label_column=label_column)
        expect = np.array([[0.0, 2.5, 0.0, 4.0, 0.0],
                           [1e-3, 0.0, -0.0, 7.0, 8.0],
                           [1.0, 2.0, 3.0, 4.0, 5.0]])
        assert ds.values.tobytes() == expect.tobytes()
        assert mask.tolist() == [[0, 0], [0, 2], [0, 4], [1, 1]]  # row-major

    def test_non_numeric_cell_after_a_gap(self, tmp_path):
        path = write(tmp_path, "g1,g2,g3,label\n1,2,3,A\nNA,, x1,B\n")
        with pytest.raises(ParseError,
                           match=r"^.*data\.csv:3: non-numeric cell ' x1'$"):
            load_csv(path)

    def test_numeric_missing_token_matches_text_only(self, tmp_path):
        path = write(tmp_path, "g1,g2,g3,label\n"
                               "-999, -999 ,-999.0,A\n1,,2,B\n")
        ds, mask = load_csv(path, missing_token="-999")
        assert mask.tolist() == [[0, 0], [0, 1], [1, 1]]
        assert ds.values.tolist() == [[0.0, 0.0, -999.0], [1.0, 0.0, 2.0]]

    def test_load_twice_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["g0,g1,g2,label"]
        for i in range(8):
            vals = [("" if (i, j) == (2, 1) else f"{rng.normal():.6f}")
                    for j in range(3)]
            lines.append(",".join(vals) + "," + "AB"[i % 2])
        path = write(tmp_path, "\n".join(lines) + "\n")
        first, m1 = load_csv(path)
        second, m2 = load_csv(path)
        a = normalize_minmax(impute_knn(first, m1, 3))
        b = normalize_minmax(impute_knn(second, m2, 3))
        np.testing.assert_array_equal(a.values, b.values)


    @pytest.mark.parametrize("g2", ["4", "NA"])
    @pytest.mark.parametrize("label_column", ["last", "first"])
    def test_byte_order_mark_and_crlf(self, tmp_path, label_column, g2):
        rows = [["g1", "g2", "label"], ["1", "2", "A"], ["3", g2, "B"]]
        if label_column == "first":
            rows = [row[-1:] + row[:-1] for row in rows]
        path = tmp_path / "data.csv"
        path.write_bytes(("\ufeff" + "".join(",".join(row) + "\r\n"
                                              for row in rows)).encode())
        ds, mask = load_csv(path, label_column=label_column)
        assert ds.gene_ids == ("g1", "g2") and ds.class_names == ("A", "B")
        assert ds.values.tolist() == [[1.0, 2.0], [3.0, 4.0 if g2 == "4"
                                                   else 0.0]]
        assert mask.tolist() == ([] if g2 == "4" else [[1, 1]])


def write_rows(tmp_path, rows, label_column="last"):
    """Write comma-joined ``rows`` whose label cell is last, moving it
    first for ``label_column="first"``."""
    if label_column == "first":
        rows = [row[-1:] + row[:-1] for row in rows]
    return write(tmp_path, "\n".join(map(",".join, rows)) + "\n")


def _refuse(*args, **kwargs):
    raise ValueError("one-pass parse refused")


def _unreachable(*args, **kwargs):
    raise AssertionError("the row parser ran on a file the numpy passes "
                         "should read")


class TestParsePaths:
    """A file parsed by the numpy passes, complete or with gaps, loads
    exactly as the row parser loads it; the row parser is reached by
    making np.loadtxt raise."""

    VARIANTS = ["quoted_crlf_blank", "padded", "signs", "repr", "%.6g"]

    @staticmethod
    def write_variant(tmp_path, variant, label_column):
        values = np.random.default_rng(5).normal(scale=50.0, size=(6, 4))
        fmt = (lambda v: "%.6g" % v) if variant == "%.6g" else repr
        cells = [[fmt(float(v)) for v in row] for row in values]
        if variant == "signs":
            cells[0][0], cells[1][1], cells[2][2] = "+.5", "1E5", "-0"
        elif variant == "padded":
            pads = (" ", "\t", "  ", "")
            cells = [[pads[(i + j) % 4] + c + pads[(i + 2 * j) % 3]
                      for j, c in enumerate(row)]
                     for i, row in enumerate(cells)]
        rows = [[f"g{j}" for j in range(4)] + ["label"]]
        rows += [row + [label] for row, label in zip(cells, "bacbac")]
        if label_column == "first":
            rows = [row[-1:] + row[:-1] for row in rows]
        eol = "\n"
        if variant == "quoted_crlf_blank":
            rows = [[f'"{c}"' for c in row] for row in rows]
            rows[2:2] = rows[5:5] = [[]]
            eol = "\r\n"
        path = tmp_path / "data.csv"
        path.write_bytes("".join(",".join(row) + eol for row in rows).encode())
        return path

    @staticmethod
    def row_parsed(monkeypatch, path, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", _refuse)
            return load_csv(path, **kwargs)

    @pytest.mark.parametrize("label_column", ["last", "first"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_pass_matches_row_parser(self, tmp_path, monkeypatch,
                                         variant, label_column):
        path = self.write_variant(tmp_path, variant, label_column)
        with monkeypatch.context() as patch:
            patch.setattr(data, "_parse_rows", _unreachable)
            fast, fast_mask = load_csv(path, label_column=label_column)
        rows, rows_mask = self.row_parsed(monkeypatch, path,
                                          label_column=label_column)
        assert fast.values.tobytes() == rows.values.tobytes()
        assert fast.values.shape == rows.values.shape == (6, 4)
        assert fast.labels.tolist() == rows.labels.tolist() == [0, 1, 2] * 2
        assert fast.class_names == rows.class_names == ("b", "a", "c")
        assert fast.gene_ids == rows.gene_ids == ("g0", "g1", "g2", "g3")
        for mask in (fast_mask, rows_mask):
            assert mask.shape == (0, 2) and mask.dtype == np.int64
            assert not mask.flags.writeable
        if variant == "signs":
            assert fast.values[:3, :3].diagonal().tolist() == [0.5, 1e5, 0.0]
            assert np.signbit(fast.values[2, 2])

    # (row, gene column) of the gaps: two adjacent ones in the first gene
    # columns, one in the last, an all-gap row, and two adjacent inside
    GAPS = [(0, 0), (0, 1), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3), (4, 1),
            (4, 2)]
    LAYOUTS = ["lf", "crlf", "bom_crlf_unterminated"]

    @classmethod
    def write_gaps(cls, tmp_path, token, label_column, layout):
        values = np.random.default_rng(6).normal(scale=50.0, size=(6, 4))
        cells = [[repr(float(v)) for v in row] for row in values]
        for i, j in cls.GAPS:
            cells[i][j] = token
        rows = [[f"g{j}" for j in range(4)] + ["label"]]
        rows += [row + [label] for row, label in zip(cells, "bacbac")]
        if label_column == "first":
            rows = [row[-1:] + row[:-1] for row in rows]
        eol = "\n" if layout == "lf" else "\r\n"
        text = "".join(",".join(row) + eol for row in rows)
        if layout == "bom_crlf_unterminated":
            text = "\ufeff" + text[:-len(eol)]
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        return path

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("label_column", ["last", "first"])
    @pytest.mark.parametrize("token", ["NA", "", "?", "N/A", "null"])
    def test_gap_pass_matches_row_parser(self, tmp_path, monkeypatch, token,
                                         label_column, layout):
        path = self.write_gaps(tmp_path, token, label_column, layout)
        kwargs = dict(label_column=label_column,
                      missing_token=token or "NA")
        with monkeypatch.context() as patch:
            patch.setattr(data, "_parse_rows", _unreachable)
            fast, fast_mask = load_csv(path, **kwargs)
        rows, rows_mask = self.row_parsed(monkeypatch, path, **kwargs)
        assert fast.values.tobytes() == rows.values.tobytes()
        assert fast.values.shape == rows.values.shape == (6, 4)
        assert fast.labels.tolist() == rows.labels.tolist() == [0, 1, 2] * 2
        assert fast.class_names == rows.class_names == ("b", "a", "c")
        assert fast.gene_ids == rows.gene_ids == ("g0", "g1", "g2", "g3")
        assert fast_mask.tolist() == rows_mask.tolist() == \
            [list(cell) for cell in self.GAPS]
        for mask in (fast_mask, rows_mask):
            assert mask.dtype == np.int64 and not mask.flags.writeable
        assert not fast.values[tuple(np.transpose(self.GAPS))].any()

    @staticmethod
    def spied(monkeypatch, path, **kwargs):
        """load_csv's result and whether the row parser ran."""
        calls = []

        def record(*args, **kw):
            calls.append(1)
            return real(*args, **kw)

        real = data._parse_rows
        with monkeypatch.context() as patch:
            patch.setattr(data, "_parse_rows", record)
            return load_csv(path, **kwargs), bool(calls)

    @pytest.mark.parametrize("label_column", ["last", "first"])
    def test_quoted_gap_cells_match_the_gap_pass(self, tmp_path, monkeypatch,
                                                 label_column):
        twin = self.write_gaps(tmp_path, "NA", label_column, "lf")
        with monkeypatch.context() as patch:
            patch.setattr(data, "_parse_rows", _unreachable)
            fast, fast_mask = load_csv(twin, label_column=label_column)
        quotes = iter(['"NA"', '""', '" NA "'] * 3)  # one per gap
        quoted = write(tmp_path, "\n".join(
            ",".join(next(quotes) if cell == "NA" else cell
                     for cell in line.split(","))
            for line in twin.read_text().split("\n")), name="quoted.csv")
        (rows, rows_mask), by_rows = self.spied(
            monkeypatch, quoted, label_column=label_column)
        assert by_rows and next(quotes, None) is None
        assert fast.values.tobytes() == rows.values.tobytes()
        assert fast.labels.tolist() == rows.labels.tolist() == [0, 1, 2] * 2
        assert fast.class_names == rows.class_names == ("b", "a", "c")
        assert fast_mask.tolist() == rows_mask.tolist() == \
            [list(cell) for cell in self.GAPS]

    @pytest.mark.parametrize("label_column", ["last", "first"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_in_a_gap_file(self, tmp_path, cell,
                                           label_column):
        rows = [["g1", "g2", "label"], ["NA", "2", "A"], ["3", cell, "B"]]
        path = write_rows(tmp_path, rows, label_column)
        with pytest.raises(ParseError, match=r"^.*data\.csv:3: non-finite "
                                             r"cell .* in column 'g2'$"):
            load_csv(path, label_column=label_column)

    @pytest.mark.parametrize("token", ["NA", "?"])
    def test_label_equal_to_the_token_in_a_gap_file(self, tmp_path, token):
        path = write(tmp_path, f"g1,g2,label\n{token},2,A\n3,4,{token}\n")
        with pytest.raises(ParseError, match=r"^.*data\.csv:3: missing "
                                             r"class label"):
            load_csv(path, missing_token=token)

    @pytest.mark.parametrize("label_column", ["last", "first"])
    def test_quoted_label_holding_a_gap_cell(self, tmp_path, monkeypatch,
                                             label_column):
        rows = [["g1", "g2", "label"], ["NA", "2", '"x,NA,y"'],
                ["3", "", "B"]]
        path = write_rows(tmp_path, rows, label_column)
        (ds, mask), by_rows = self.spied(monkeypatch, path,
                                         label_column=label_column)
        assert ds.class_names == ("x,NA,y", "B") and by_rows
        assert mask.tolist() == [[0, 0], [1, 1]]
        assert ds.values.tolist() == [[0.0, 2.0], [3.0, 0.0]]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_quoted_label_across_lines_in_a_gap_file(self, tmp_path, eol):
        text = f'g1,g2,label{eol}NA,2,"a{eol}b"{eol}3,,B{eol}'
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        ds, mask = load_csv(path)
        assert ds.class_names == (f"a{eol}b", "B")
        assert mask.tolist() == [[0, 0], [1, 1]]

    def test_quoted_label_rewrite_with_a_nan_cell(self, tmp_path):
        # the rewrite in the label and the literal nan would balance the
        # count of nan cells; the class names still send the file to the
        # row parser
        path = write(tmp_path, 'g1,g2,label\nNA,2,"x,NA,y"\n3,nan,B\n')
        with pytest.raises(ParseError, match=r"^.*data\.csv:3: non-finite "
                                             r"cell nan in column 'g2'$"):
            load_csv(path)

    @pytest.mark.parametrize("cell", [" NA ", " NA", "\tNA", "  "])
    def test_padded_gap_cell(self, tmp_path, monkeypatch, cell):
        path = write(tmp_path, f"g1,g2,label\n1,{cell},A\nNA,4,B\n")
        (ds, mask), by_rows = self.spied(monkeypatch, path)
        assert mask.tolist() == [[0, 1], [1, 0]] and by_rows
        assert ds.values.tolist() == [[1.0, 0.0], [0.0, 4.0]]

    @pytest.mark.parametrize("label_column", ["last", "first"])
    @pytest.mark.parametrize("cell, token", [
        ("-NA", "NA"), ("+NA", "NA"), (" NA", " NA"), ("NA ", "NA ")])
    def test_cell_that_is_not_the_token(self, tmp_path, cell, token,
                                        label_column):
        # "-nan" would read as a number, and a padded token is never
        # equal to a stripped cell
        rows = [["g1", "g2", "label"], ["1", cell, "A"], ["", "4", "B"]]
        path = write_rows(tmp_path, rows, label_column)
        with pytest.raises(ParseError, match=rf"^.*data\.csv:2: non-numeric "
                                             rf"cell {re.escape(repr(cell))}$"):
            load_csv(path, label_column=label_column, missing_token=token)

    def test_numeric_missing_token_in_a_gap_file(self, tmp_path,
                                                 monkeypatch):
        path = write(tmp_path, "g1,g2,label\n-999,,A\n2,-999.0,B\n")
        (ds, mask), by_rows = self.spied(monkeypatch, path,
                                         missing_token="-999")
        assert mask.tolist() == [[0, 0], [0, 1]] and by_rows
        assert ds.values.tolist() == [[0.0, 0.0], [2.0, -999.0]]

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\u0663.5"])
    def test_cells_only_float_reads(self, tmp_path, cell):
        path = write(tmp_path, f"g1,g2,label\n{cell},2,A\n3,4,B\n")
        ds, mask = load_csv(path)
        assert ds.values[0, 0] == float(cell) and mask.shape == (0, 2)

    @pytest.mark.parametrize("token", ["-999", "0"])
    def test_numeric_missing_token_without_empty_cells(self, tmp_path,
                                                      token):
        # every cell reads as a number, so only the text marks the gap
        path = write(tmp_path, f"g1,g2,label\n{token},1,A\n2,3,B\n")
        ds, mask = load_csv(path, missing_token=token)
        assert mask.tolist() == [[0, 0]]
        assert ds.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("text", ["g1,g2,label\n",
                                      "g1,g2,label\r\n\r\n\n"])
    def test_header_only_reports_no_data_rows_alone(self, tmp_path, text):
        path = write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"data\.csv: no data rows$"):
                load_csv(path)

    @pytest.mark.parametrize("label_column", ["last", "first"])
    def test_rows_wider_than_the_header(self, tmp_path, label_column):
        header = "g1,g2,label" if label_column == "last" else "label,g1,g2"
        path = write(tmp_path, header + "\n1,2,3,4\n5,6,7,8\n")
        with pytest.raises(ParseError, match=r"data\.csv:2: expected 3 "
                                             r"columns, got 4$"):
            load_csv(path, label_column=label_column)


class TestImputeKnn:
    def base(self):
        values = np.array([
            [1.0, 1.0, 0.0],
            [1.1, 0.0, 5.0],   # (1,1) missing
            [1.2, 3.0, 5.1],
            [9.0, 9.0, 9.0],
        ])
        labels = np.array([0, 0, 1, 1])
        return Dataset(values, labels, ("a", "b", "c"), ("x", "y"))

    def test_mean_of_nearest_neighbors(self):
        # neighbors 0 and 2 are nearest to sample 1; their column-1 values
        # are 1.0 and 3.0
        ds = self.base()
        out = impute_knn(ds, np.array([[1, 1]]), n_neighbors=2)
        assert out.values[1, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("cell", [np.inf, -np.inf, np.nan])
    def test_non_finite_observed_value_rejected(self, cell):
        # an observed inf times a gap's 0 would make a nan partial distance,
        # so an observed non-finite value is an error; a gap may hold anything
        values = np.arange(24, dtype=float).reshape(6, 4) % 5
        mask = np.array([[0, 0], [0, 2]])
        values[0, 0] = cell
        ds = Dataset(values.copy(), np.zeros(6), tuple("abcd"), ("x",),
                     "expr.csv")
        out = impute_knn(ds, mask, n_neighbors=2)
        assert np.isfinite(out.values).all()
        values[3, 0] = cell
        ds = Dataset(values, np.zeros(6), tuple("abcd"), ("x",), "expr.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"^expr\.csv: row 3, gene column 0 "
                                     r"\('a'\) holds the non-finite "
                                     rf"observed value {cell}$"):
                impute_knn(ds, mask, n_neighbors=2)

    def test_empty_mask_identity(self):
        ds = self.base()
        out = impute_knn(ds, np.empty((0, 2), dtype=np.int64), n_neighbors=2)
        assert out is ds

    def test_non_missing_cells_bit_identical(self):
        ds = self.base()
        out = impute_knn(ds, np.array([[1, 1]]), n_neighbors=2)
        expected = ds.values.copy()
        expected[1, 1] = out.values[1, 1]
        np.testing.assert_array_equal(out.values, expected)

    def test_matches_bruteforce_partial_distances(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(6, 4))
        mask = {(2, 1), (4, 3)}
        ds = Dataset(values, np.array([0, 1] * 3),
                     tuple("abcd"), ("x", "y"))
        out = impute_knn(ds, np.array(sorted(mask)), n_neighbors=2)

        n = 4
        observed = np.ones((6, n), dtype=bool)
        for (i, j) in mask:
            observed[i, j] = False
        for (i, j) in mask:
            dists = []
            for o in range(6):
                if o == i:
                    continue
                usable = observed[i] & observed[o]
                if not usable.any() or not observed[o, j]:
                    continue
                diff = values[i, usable] - values[o, usable]
                d = np.sqrt((diff @ diff) / (usable.sum() / n))
                dists.append((d, o))
            dists.sort()
            expect = np.mean([values[o, j] for _, o in dists[:2]])
            assert out.values[i, j] == pytest.approx(expect)

    def test_column_without_observations_rejected(self):
        ds = self.base()
        mask = np.array([(i, 1) for i in range(4)])
        with pytest.raises(ValidationError):
            impute_knn(ds, mask, n_neighbors=2)

    @pytest.mark.parametrize("mask", [
        np.array([[1.5, 1.0]]), np.array([[1.0, 1.0]]),
        np.array([[True, True]]), np.array([1, 1]), np.array([[1, 1, 0]]),
        np.empty(0, dtype=np.int64), np.array([["1", "1"]]),
        frozenset({(1, 1)})], ids=[
        "fraction", "integral_float", "bool", "flat_pair", "triple",
        "empty_1d", "text", "frozenset"])
    def test_malformed_mask_rejected(self, mask):
        # np.asarray(mask, dtype=np.int64) would read 1.5 as cell (1, 1)
        with pytest.raises(ValidationError,
                           match=r"^mask must be a \(K, 2\) integer array "
                                 r"of \(row, column\) cells, got [^\n]*$"):
            impute_knn(self.base(), mask, n_neighbors=2)

    def test_duplicate_and_unordered_cells_are_harmless(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(10, 6))
        ds, mask = _masked(values, rng.random(values.shape) < 0.2)
        want = impute_knn(ds, mask, 3)
        for cells in (np.vstack([mask, mask[::2]]), mask[::-1],
                      rng.permutation(mask), mask.astype(np.int32)):
            got = impute_knn(ds, cells, 3)
            assert got.values.tobytes() == want.values.tobytes()


def _masked(values, missing):
    m, n = values.shape
    ds = Dataset(values, np.arange(m) % 2, tuple(f"g{j}" for j in range(n)),
                 ("x", "y"))
    return ds, np.argwhere(missing)


class TestImputeKnnOracle:
    """The vectorised imputer against the per-pair reference loop
    (``oracles.impute_knn_loop``): imputed matrices must be bit-equal."""

    @staticmethod
    def check(ds, mask, n_neighbors):
        got = impute_knn(ds, mask, n_neighbors)
        want = oracles.impute_knn_loop(ds, mask, n_neighbors)
        assert got.values.tobytes() == want.values.tobytes()
        return got

    @pytest.mark.parametrize("seed, shape, frac, k", [
        (0, (12, 7), 0.15, 3), (1, (30, 40), 0.05, 5), (2, (25, 60), 0.3, 1),
        (3, (40, 9), 0.1, 10), (4, (9, 300), 0.02, 4)])
    def test_random_float_data(self, seed, shape, frac, k):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=shape[1])
        ds, mask = _masked(values, rng.random(shape) < frac)
        self.check(ds, mask, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_integer_data(self, seed):
        # sums of small integers are exact in any order, so only the
        # lower-index tie rule separates the many equidistant donors
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 3, size=(24, 6)).astype(float)
        ds, mask = _masked(values, rng.random((24, 6)) < 0.2)
        for k in (1, 2, 5):
            self.check(ds, mask, k)

    def test_duplicated_rows(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 8))
        values = np.vstack([base, base, base[::-1]])
        missing = np.zeros(values.shape, dtype=bool)
        missing[[0, 5, 9], [1, 1, 6]] = True
        missing[4, 2] = True
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 2)
        # (0, 1) has two copies of sample 0 at distance 0: rows 4 and 11;
        # row 4 misses column 2 only, so both donate column 1
        assert out.values[0, 1] == base[0, 1]

    def test_no_usable_overlap_is_infinitely_far(self):
        values = np.array([
            [1.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 4.0],   # shares no observed column with row 0
            [1.5, 2.5, 3.5, 4.5],
            [9.0, 9.0, 9.0, 9.0],
        ])
        missing = np.array([[0, 0, 1, 1], [1, 1, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]], dtype=bool)
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 3)
        # row 1 cannot donate to row 0, so (0, 2) averages rows 2 and 3
        assert out.values[0, 2] == (3.5 + 9.0) / 2

    def test_column_without_donors_falls_back_to_column_mean(self):
        nan = np.nan  # masked cells may hold anything, NaN included
        values = np.array([
            [1.0, nan, nan],
            [nan, 7.0, 2.0],   # the only observer of column 1; far from row 0
            [2.0, nan, 3.0],
            [4.0, nan, 5.0],
        ])
        ds, mask = _masked(values, np.isnan(values))
        out = self.check(ds, mask, 2)
        assert out.values[0, 1] == 7.0  # the column mean, not a donor mean
        assert out.values[2, 1] == 7.0  # row 1 donates via column 2

    def test_every_other_row_infinitely_far(self):
        values = np.array([[1.0, np.nan], [np.nan, 2.0], [np.nan, 4.0]])
        ds, mask = _masked(values, np.isnan(values))
        out = self.check(ds, mask, 2)
        assert out.values[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert out.values[0, 1] == 3.0

    def test_more_neighbors_than_donors(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(8, 5))
        missing = rng.random((8, 5)) < 0.25
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 50)
        i, j = mask[0]
        donors = np.flatnonzero(~missing[:, j])
        assert out.values[i, j] == pytest.approx(values[donors, j].mean())

    def test_gapless_rows_before_between_and_after_gap_rows(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(10, 12))
        missing = np.zeros(values.shape, dtype=bool)
        # gap rows 2, 3 and 6; rows 0-1, 4-5 and 7-9 are gapless
        missing[[2, 3, 3, 6], [0, 5, 11, 5]] = True
        ds, mask = _masked(values, missing)
        for k in (1, 3, 9):
            self.check(ds, mask, k)

    def test_single_gap_row_among_gapless_rows(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(9, 6))
        missing = np.zeros(values.shape, dtype=bool)
        missing[4, [1, 2]] = True
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 2)
        assert np.array_equal(np.delete(out.values, 4, axis=0),
                              np.delete(values, 4, axis=0))

    @pytest.mark.parametrize("gaps", [[(0, 1), (1, 2)], [(1, 0)]])
    def test_two_samples(self, gaps):
        values = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        missing = np.zeros(values.shape, dtype=bool)
        for i, j in gaps:
            missing[i, j] = True
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 3)
        for i, j in gaps:  # the other sample is the only donor
            assert out.values[i, j] == values[1 - i, j]

    def test_fully_missing_row_neither_donates_nor_imputes_itself(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(6, 4))
        values[2] = 1e6  # masked, so never read
        missing = np.zeros(values.shape, dtype=bool)
        missing[2] = True
        missing[4, 1] = True
        ds, mask = _masked(values, missing)
        out = self.check(ds, mask, 5)
        # row 2 is infinitely far from every sample, itself included, so
        # each of its cells falls back to the column mean
        for j in range(4):
            assert out.values[2, j] == values[~missing[:, j], j].mean()
        # (4, 1) averages the four other observers of column 1, not row 2
        assert out.values[4, 1] == pytest.approx(values[[0, 1, 3, 5], 1].mean())

    @pytest.mark.parametrize("budget", [1, 1000, 3000])
    def test_many_blocks_under_a_small_byte_budget(self, monkeypatch, budget):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(30, 20))
        missing = rng.random(values.shape) < 0.08
        missing[[0, 13, 29]] = False
        ds, mask = _masked(values, missing)
        whole = impute_knn(ds, mask, 4)
        # a budget of 1000 bytes gives tiles of 2 gap rows by 3 partners
        # and donor blocks of 4 cells
        monkeypatch.setattr("genefunnel.data._IMPUTE_BYTES", budget)
        out = self.check(ds, mask, 4)
        assert out.values.tobytes() == whole.values.tobytes()

    def test_each_pair_with_a_gap_row_is_computed_once(self, monkeypatch):
        from genefunnel import data
        rng = np.random.default_rng(11)
        values = rng.normal(size=(12, 9))
        gap_rows = {1, 2, 5, 6, 7, 10}
        missing = np.zeros(values.shape, dtype=bool)
        for i in gap_rows:
            missing[i, rng.integers(9)] = True
        ds, mask = _masked(values, missing)
        pairs = []
        real = data._partial_d2

        def record(zeroed, observed, a, b):
            a_b = np.broadcast_arrays(a, b)
            pairs.extend(zip(*(side.ravel().tolist() for side in a_b)))
            return real(zeroed, observed, a, b)

        monkeypatch.setattr(data, "_partial_d2", record)
        monkeypatch.setattr(data, "_IMPUTE_BYTES", 8 * 9 * 6)
        self.check(ds, mask, 3)
        unordered = [tuple(sorted(pair)) for pair in pairs]
        assert len(unordered) == len(set(unordered))
        assert set(unordered) == {(i, o) for i in range(12)
                                  for o in range(i + 1, 12)
                                  if i in gap_rows or o in gap_rows}

    def test_lowest_all_missing_column_is_named(self):
        values = np.ones((4, 5))
        missing = np.zeros((4, 5), dtype=bool)
        missing[:, [3, 1]] = True
        missing[0, 0] = True
        ds, mask = _masked(values, missing)
        message = r"^gene column 1 \('g1'\) has no observed values$"
        with pytest.raises(ValidationError, match=message):
            impute_knn(ds, mask, 2)
        with pytest.raises(ValidationError, match=message):
            oracles.impute_knn_loop(ds, mask, 2)
        named = Dataset(ds.values, ds.labels, ds.gene_ids, ds.class_names,
                        "expr.csv")
        with pytest.raises(ValidationError,
                           match=r"^expr\.csv: gene column 1 \('g1'\) has"):
            impute_knn(named, mask, 2)

    def test_out_of_bounds_coordinate(self):
        ds, _ = _masked(np.ones((4, 3)), np.zeros((4, 3), dtype=bool))
        for bad in [(4, 0), (0, 3), (-1, 1)]:
            with pytest.raises(ValidationError,
                               match=f"coordinate {re.escape(str(bad))} out"):
                impute_knn(ds, np.array([(0, 0), bad]), 2)

    def test_bad_neighbor_count_with_empty_mask(self):
        ds, _ = _masked(np.ones((4, 3)), np.zeros((4, 3), dtype=bool))
        with pytest.raises(ValidationError, match="n_neighbors"):
            impute_knn(ds, np.empty((0, 2), dtype=np.int64), 0)


class TestNormalize:
    def make(self, column):
        values = np.column_stack([column, np.arange(len(column), dtype=float)])
        labels = np.array([0, 1] * (len(column) // 2) + [0] * (len(column) % 2))
        return Dataset(values, labels, ("a", "b"), ("x", "y"))

    def test_linear_map(self):
        ds = normalize_minmax(self.make([2.0, 4.0, 6.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        ds = normalize_minmax(self.make([5.0, 5.0, 5.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_negative_min(self):
        ds = normalize_minmax(self.make([-1.0, 0.0, 3.0]))
        assert ds.values[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(10, 5))
        values[:, 3] = 7.0
        ds = Dataset(values, np.array([0, 1] * 5), tuple("abcde"), ("x", "y"))
        once = normalize_minmax(ds)
        twice = normalize_minmax(once)
        np.testing.assert_array_equal(once.values, twice.values)
        assert once.values.min() >= 0.0 and once.values.max() <= 1.0

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, cell):
        ds = self.make([1.0, cell, 3.0])
        with pytest.raises(ValidationError, match="fully observed"):
            normalize_minmax(ds)

    def test_stats_replay_on_heldout(self):
        rng = np.random.default_rng(3)
        train = Dataset(rng.normal(size=(8, 3)), np.array([0, 1] * 4),
                        ("a", "b", "c"), ("x", "y"))
        held = Dataset(rng.normal(size=(4, 3)), np.array([0, 1, 0, 1]),
                       ("a", "b", "c"), ("x", "y"))
        mins, maxs = minmax_stats(train)
        out = apply_minmax(held, mins, maxs)
        np.testing.assert_allclose(out.values, (held.values - mins) / (maxs - mins))


class TestMakeFolds:
    def test_basic_stratification(self):
        plan = make_folds([0, 0, 1, 1], k=2, rounds=1, seed=0)
        for _, _, _, test in plan.splits():
            assert sorted(np.array([0, 0, 1, 1])[test]) == [0, 1]

    def test_100_train_test_pairs(self):
        labels = [0, 1] * 30
        plan = make_folds(labels, k=10, rounds=10, seed=7)
        assert sum(1 for _ in plan.splits()) == 100

    def test_determinism(self):
        labels = [0, 1, 2] * 7
        a = make_folds(labels, k=3, rounds=4, seed=42)
        b = make_folds(labels, k=3, rounds=4, seed=42)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_partition_properties(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=29)
        labels[:3] = [0, 1, 2]
        plan = make_folds(labels, k=5, rounds=3, seed=1)
        assert plan.fold_of.shape == (3, 29)
        assert plan.fold_of.dtype == np.int64
        assert not plan.fold_of.flags.writeable
        for fold in plan.fold_of:
            assert set(fold.tolist()) == set(range(5))
            # per-class counts across folds differ by at most 1
            for c in range(3):
                per_fold = np.bincount(fold[labels == c], minlength=5)
                assert max(per_fold) - min(per_fold) <= 1
        for r, f, train, test in plan.splits():
            # each round's test folds partition the samples
            assert (np.sort(np.concatenate([train, test]))
                    == np.arange(29)).all()
            assert (plan.fold_of[r, test] == f).all()

    def test_golden_splits_three_classes(self):
        # the splits() of the tuple-based plan that fold_of replaced
        plan = make_folds([0, 0, 0, 1, 1, 1, 1, 2, 2], k=3, rounds=2, seed=5)
        got = [(r, f, train.tolist(), test.tolist())
               for r, f, train, test in plan.splits()]
        assert got == [
            (0, 0, [0, 2, 3, 6, 7, 8], [1, 4, 5]),
            (0, 1, [0, 1, 4, 5, 6, 8], [2, 3, 7]),
            (0, 2, [1, 2, 3, 4, 5, 7], [0, 6, 8]),
            (1, 0, [1, 2, 3, 4, 7, 8], [0, 5, 6]),
            (1, 1, [0, 1, 4, 5, 6, 7], [2, 3, 8]),
            (1, 2, [0, 2, 3, 5, 6, 8], [1, 4, 7])]

    def test_golden_splits_60_binary(self):
        plan = make_folds(np.arange(60) % 2, k=5, rounds=2, seed=11)
        tests = [
            [1, 4, 8, 11, 12, 33, 36, 38, 44, 45, 53, 55],
            [0, 2, 6, 9, 20, 21, 22, 31, 35, 47, 50, 59],
            [10, 13, 14, 17, 27, 29, 37, 40, 42, 48, 57, 58],
            [5, 7, 15, 16, 18, 19, 26, 30, 32, 34, 39, 51],
            [3, 23, 24, 25, 28, 41, 43, 46, 49, 52, 54, 56],
            [1, 6, 7, 9, 11, 12, 20, 22, 32, 37, 42, 59],
            [16, 17, 18, 19, 35, 40, 41, 46, 51, 54, 55, 56],
            [5, 24, 26, 29, 36, 38, 43, 45, 47, 52, 57, 58],
            [2, 3, 10, 21, 25, 27, 30, 31, 34, 44, 48, 49],
            [0, 4, 8, 13, 14, 15, 23, 28, 33, 39, 50, 53]]
        splits = list(plan.splits())
        assert [(r, f) for r, f, _, _ in splits] == [
            (r, f) for r in range(2) for f in range(5)]
        for (_, _, train, test), want in zip(splits, tests):
            assert test.tolist() == want
            assert train.tolist() == sorted(set(range(60)) - set(want))

    def test_k_larger_than_m_rejected(self):
        with pytest.raises(ValidationError):
            make_folds([0, 1, 0], k=4, rounds=1, seed=0)

    @pytest.mark.parametrize("k, rounds, message", [
        (1, 1, "k must be >= 2"), (2, 0, "rounds must be >= 1")])
    def test_k_below_2_or_no_rounds_rejected(self, k, rounds, message):
        with pytest.raises(ValidationError, match=message):
            make_folds([0, 1, 0, 1], k=k, rounds=rounds, seed=0)


class TestProject:
    def make(self):
        values = np.arange(12, dtype=float).reshape(4, 3)
        return Dataset(values, np.array([0, 1, 0, 1]),
                       ("a", "b", "c"), ("x", "y"))

    def test_identity(self):
        ds = self.make()
        out = project(ds, [0, 1, 2])
        np.testing.assert_array_equal(out.values, ds.values)
        assert out.gene_ids == ds.gene_ids

    def test_single_column(self):
        out = project(self.make(), [0])
        assert out.n_genes == 1 and out.gene_ids == ("a",)

    def test_subset_count(self):
        rng = np.random.default_rng(0)
        big = Dataset(rng.normal(size=(5, 7129)), np.array([0, 1, 0, 1, 0]),
                      tuple(f"g{i}" for i in range(7129)), ("x", "y"))
        assert project(big, [1, 5, 10, 100, 1000, 5000, 7000]).n_genes == 7

    def test_restriction_consistency(self):
        ds = self.make()
        s1, union = [0, 2], [0, 1, 2]
        full = project(ds, union)
        small = project(ds, s1)
        np.testing.assert_array_equal(full.values[:, [0, 2]], small.values)

    def test_invalid_subsets(self):
        ds = self.make()
        with pytest.raises(ValidationError):
            project(ds, [])
        with pytest.raises(ValidationError):
            project(ds, [1, 1])
        with pytest.raises(ValidationError):
            project(ds, [0, 5])

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lident.corpus import Label
from lident.errors import CorpusFormatError
from lident.metrics import (
    ConfusionMatrix,
    confusion,
    load_groups_tsv,
    load_matrix_csv,
    render,
    report,
)
from reference import reference_report

L = Label


class TestConfusion:
    def test_identity(self):
        cm = confusion([L("A"), L("B")], [L("A"), L("B")])
        assert cm.cells.tolist() == [[1, 0], [0, 1]]
        assert [l.code for l in cm.labels] == ["A", "B"]

    def test_all_wrong(self):
        cm = confusion([L("A"), L("A")], [L("B"), L("B")])
        assert cm.cells.tolist() == [[0, 2], [0, 0]]

    def test_total_conservation(self):
        gold = [L("A"), L("B"), L("C"), L("A")]
        pred = [L("C"), L("B"), L("C"), L("A")]
        assert confusion(gold, pred).cells.sum() == 4

    def test_length_mismatch_and_unknown_label(self):
        with pytest.raises(ValueError):
            confusion([L("A")], [L("A"), L("B")])
        with pytest.raises(ValueError, match="'C'"):
            confusion([L("A")], [L("C")], labels=[L("A"), L("B")])

    @pytest.mark.parametrize("make, match", [
        (lambda: ConfusionMatrix((), np.zeros((0, 0))), "non-empty label set"),
        (lambda: ConfusionMatrix((L("a"), L("b")), np.eye(3)), r"2x2, got \(3, 3\)"),
        (lambda: ConfusionMatrix((L("a"), L("b")), np.array([[1, -1], [0, 1]])), "non-negative"),
        (lambda: confusion([], []), "zero instances"),
        (lambda: confusion([L("C")], [L("A")], labels=[L("A"), L("B")]), "gold label 'C'"),
        (lambda: report(ConfusionMatrix((L("a"), L("b")), np.zeros((2, 2)))), "empty confusion matrix"),
    ], ids=["no-labels", "wrong-shape", "negative-count", "no-instances", "unknown-gold", "all-zero-report"])
    def test_bad_input_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_explicit_order_preserved(self):
        cm = confusion([L("B"), L("A")], [L("B"), L("A")], labels=[L("B"), L("A")])
        assert [l.code for l in cm.labels] == ["B", "A"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ConfusionMatrix((L("a"), L("a"), L("b")), np.eye(3, dtype=np.int64))
        with pytest.raises(ValueError, match="distinct"):
            confusion([L("a")], [L("a")], labels=[L("a"), L("a")])


class TestReport:
    def test_micro_equals_accuracy(self):
        cm = confusion([L("A"), L("A"), L("B")], [L("A"), L("B"), L("B")])
        rep = report(cm)
        assert abs(rep.f1_micro - rep.accuracy) <= 1e-12

    def test_zero_division_convention(self):
        # class B never occurs in gold or predictions beyond the matrix shape
        cm = ConfusionMatrix((L("A"), L("B")), np.array([[3, 0], [0, 0]]))
        rep = report(cm)
        b = rep.per_class[L("B")]
        assert (b.precision, b.recall, b.f1) == (0.0, 0.0, 0.0)

    def test_permutation_invariance(self):
        gold = [L(c) for c in "AABCBCAB"]
        pred = [L(c) for c in "ABACBCBB"]
        rep1 = report(confusion(gold, pred, labels=[L("A"), L("B"), L("C")]))
        rep2 = report(confusion(gold, pred, labels=[L("C"), L("A"), L("B")]))
        for field in ("accuracy", "f1_micro", "f1_macro", "f1_weighted"):
            assert getattr(rep1, field) == pytest.approx(getattr(rep2, field), abs=1e-12)

    def test_group_split_known_case(self):
        gold = [L("A"), L("A"), L("B"), L("C")]
        pred = [L("B"), L("C"), L("B"), L("A")]
        groups = {L("A"): 1, L("B"): 1, L("C"): 2}
        rep = report(confusion(gold, pred).with_groups(groups))
        # A->B shares group 1 (within); A->C and C->A cross groups
        assert rep.group_split.within_group_errors == 1
        assert rep.group_split.cross_group_errors == 2

    def test_group_split_balance(self):
        gold = [L(c) for c in "AAABBBCCC"]
        pred = [L(c) for c in "ABCABCABC"]
        groups = {L("A"): 1, L("B"): 1, L("C"): 2}
        cm = confusion(gold, pred)
        rep = report(cm.with_groups(groups))
        errors = int(cm.cells.sum() - np.trace(cm.cells))
        assert rep.group_split.within_group_errors + rep.group_split.cross_group_errors == errors

    def test_groups_argument_is_with_groups(self):
        gold = [L(c) for c in "AAABBBCCCD"]
        pred = [L(c) for c in "ABCABCABCA"]
        cm = confusion(gold, pred).with_groups({L("A"): 7, L("D"): 7})
        groups = {L("A"): 1, L("B"): 1, L("C"): 2}  # replaces the matrix's ids; D has none
        assert report(cm, groups) == report(cm.with_groups(groups))
        assert report(cm, groups).group_split.within_group_errors == 2

    def test_with_groups_keeps_the_matrix_labels(self):
        cm = confusion([L("A"), L("B")], [L("B"), L("C")])
        grouped = cm.with_groups({L("C"): 2, L("Z"): 9, L("A"): 1})
        assert grouped.groups == {L("A"): 1, L("C"): 2}
        assert list(grouped.groups) == [L("A"), L("C")]
        assert cm.groups == {} and grouped.cells.tolist() == cm.cells.tolist()
        assert grouped.with_groups({}).groups == {}

    def test_no_groups_means_no_split(self):
        rep = report(confusion([L("A")], [L("A")]))
        assert rep.group_split is None

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_matches_first_principles_recomputation(self, n, data):
        cells = data.draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        if sum(map(sum, cells)) == 0:
            cells[0][0] = 1
        codes = [f"c{i}" for i in range(n)]
        cm = ConfusionMatrix(tuple(L(c) for c in codes), np.array(cells))
        rep = report(cm)
        expected = reference_report(codes, cells)
        assert rep.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
        assert rep.f1_micro == pytest.approx(expected["f1_micro"], abs=1e-12)
        assert rep.f1_macro == pytest.approx(expected["f1_macro"], abs=1e-12)
        assert rep.f1_weighted == pytest.approx(expected["f1_weighted"], abs=1e-12)
        per_f1 = [rep.per_class[L(c)].f1 for c in codes]
        assert all(0.0 <= f <= 1.0 for f in per_f1)
        assert min(per_f1) - 1e-12 <= rep.f1_macro <= max(per_f1) + 1e-12
        for c in codes:
            got = rep.per_class[L(c)]
            want = expected["per_class"][c]
            assert got.precision == pytest.approx(want["precision"], abs=1e-12)
            assert got.recall == pytest.approx(want["recall"], abs=1e-12)
            assert got.f1 == pytest.approx(want["f1"], abs=1e-12)
            assert got.support == want["support"]


class TestRender:
    def test_text_identity_matrix(self):
        cm = confusion([L("A"), L("B")], [L("A"), L("B")])
        doc = render(cm, "text")
        assert "accuracy     1.000000" in doc
        assert "1.00" in doc

    def test_json_round_trip_exact(self):
        gold = [L(c) for c in "AABCBCABX"]
        pred = [L(c) for c in "ABACBCBBX"]
        cm = confusion(gold, pred).with_groups({L("A"): 1, L("B"): 1, L("C"): 2, L("X"): 3})
        rep = report(cm)
        parsed = json.loads(render(cm, "json"))
        assert parsed["accuracy"] == rep.accuracy
        assert parsed["f1_macro"] == rep.f1_macro
        assert parsed["f1_weighted"] == rep.f1_weighted
        assert parsed["matrix"] == cm.cells.tolist()
        assert parsed["group_split"]["within_group_errors"] == rep.group_split.within_group_errors
        by_label = {row["label"]: row for row in parsed["per_class"]}
        for label, pc in rep.per_class.items():
            assert by_label[label.code]["f1"] == pc.f1
            assert by_label[label.code]["support"] == pc.support

    def test_csv_cell_rows(self, fixtures_dir):
        cm = load_matrix_csv(fixtures_dir / "confusion_ngram7.csv")
        doc = render(cm, "csv")
        lines = doc.strip().split("\n")
        assert lines[0] == "gold,pred,count"
        assert len(lines) - 1 == 144

    def test_unknown_format(self):
        cm = confusion([L("A")], [L("A")])
        with pytest.raises(ValueError, match="format"):
            render(cm, "yaml")


class TestMatrixFixtures:
    def test_load_matrix_and_groups(self, fixtures_dir):
        cm = load_matrix_csv(fixtures_dir / "confusion_ngram7.csv")
        assert len(cm.labels) == 12
        assert cm.cells.sum() == 12000
        groups = load_groups_tsv(fixtures_dir / "groups.tsv")
        assert groups[L("bs")] == 1 and groups[L("fr-FR")] == 5

    def test_matrix_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="count rows"):
            load_matrix_csv(bad)
        bad.write_text("a,b\n1,2\n3,x\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="non-integer"):
            load_matrix_csv(bad)
        bad.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="empty"):
            load_matrix_csv(bad)

    def test_matrix_with_a_repeated_label(self, tmp_path):
        # Rows of a repeated code would share one entry of the per-class report.
        bad = tmp_path / "bad.csv"
        bad.write_text("a,a,b\n5,1,0\n0,4,2\n1,0,6\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"bad\.csv:1: label 'a' listed more than once"):
            load_matrix_csv(bad)

    @pytest.mark.parametrize("content, match", [
        ("a,b\n\n1,x\n0,1\n", r":3: non-integer cell 'x'"),
        ("\na,a\n1,0\n0,1\n", r":2: label 'a' listed more than once"),
        ("a,b\n1,0\n\n\n0,-1\n", r":5: negative cell -1"),
        ('a,b\n"1\n",0\n0,1,2\n', r":4: expected 2 cells, found 3"),
        ("\na,b c\n1,0\n0,1\n", r":2: label code must be non-empty and contain no whitespace"),
    ], ids=["blank-before-row", "blank-before-header", "blanks-between-rows", "quoted-line-break", "bad-label"])
    def test_matrix_errors_name_the_line_in_the_file(self, tmp_path, content, match):
        # Blank lines used to be dropped before numbering, so errors named an earlier line.
        bad = tmp_path / "bad.csv"
        bad.write_text(content, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=match):
            load_matrix_csv(bad)

    def test_groups_errors(self, tmp_path):
        bad = tmp_path / "groups.tsv"
        bad.write_text("bs;1\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError):
            load_groups_tsv(bad)

    def test_groups_skip_blank_lines_and_name_a_bad_label(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("a\t1\n\nb\t2\n", encoding="utf-8")
        assert load_groups_tsv(path) == {L("a"): 1, L("b"): 2}
        path.write_text("a\t1\n\nb c\t2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"groups\.tsv:3: label code must be non-empty and contain no whitespace"):
            load_groups_tsv(path)

    def test_groups_with_a_repeated_label(self, tmp_path):
        bad = tmp_path / "groups.tsv"
        bad.write_text("a\t1\nb\t1\na\t2\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"groups\.tsv:3: label 'a' already has a group"):
            load_groups_tsv(bad)

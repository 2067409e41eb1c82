"""Multiclass evaluation: confusion matrices, the F1 family, group error splits.

Everything here is a pure function over immutable inputs. Confusion matrices
store raw counts, never rates, so derived metrics can always be recomputed
exactly from the stored cells.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Label, read_lines
from .errors import CorpusFormatError

__all__ = [
    "ConfusionMatrix",
    "ClassMetrics",
    "GroupSplit",
    "EvalReport",
    "confusion",
    "report",
    "render",
    "load_matrix_csv",
    "load_groups_tsv",
]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Square gold-by-predicted count matrix over a fixed label order.

    `groups` holds the similarity group id of each of its labels that has one.
    """

    labels: tuple[Label, ...]
    cells: np.ndarray
    groups: Mapping[Label, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("confusion matrix needs a non-empty label set")
        cells = np.asarray(self.cells, dtype=np.int64)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("confusion matrix labels must be distinct")
        if cells.shape != (n, n):
            raise ValueError(f"cells must be {n}x{n}, got {cells.shape}")
        if (cells < 0).any():
            raise ValueError("confusion counts must be non-negative")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "groups", {l: self.groups[l] for l in self.labels if l in self.groups})

    def with_groups(self, groups: Mapping[Label, int]) -> "ConfusionMatrix":
        """Return a copy whose group map is `groups`, kept to the matrix's labels."""
        return ConfusionMatrix(self.labels, self.cells.copy(), groups)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class GroupSplit:
    within_group_errors: int
    cross_group_errors: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    f1_micro: float
    f1_macro: float
    f1_weighted: float
    per_class: dict[Label, ClassMetrics]
    group_split: GroupSplit | None


def confusion(
    gold: Sequence[Label],
    pred: Sequence[Label],
    labels: Sequence[Label] | None = None,
) -> ConfusionMatrix:
    """Count (gold, predicted) pairs over a deterministic label order.

    Labels default to the sorted union of codes seen in `gold` and `pred`;
    pass an explicit order to control row/column layout.
    """
    if len(gold) != len(pred):
        raise ValueError(f"gold and pred lengths differ: {len(gold)} vs {len(pred)}")
    if not gold:
        raise ValueError("cannot build a confusion matrix from zero instances")
    ordered = tuple(labels) if labels is not None else tuple(sorted(set(gold) | set(pred)))
    index = {label: i for i, label in enumerate(ordered)}
    cells = np.zeros((len(ordered), len(ordered)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise ValueError(f"gold label {g.code!r} not in label set")
        if p not in index:
            raise ValueError(f"predicted label {p.code!r} not in label set")
        cells[index[g], index[p]] += 1
    return ConfusionMatrix(ordered, cells)


def report(cm: ConfusionMatrix, groups: Mapping[Label, int] | None = None) -> EvalReport:
    """Derive accuracy, per-class precision/recall/F1, F1 aggregates, group split.

    Empty classes follow the zero convention (precision = recall = F1 = 0).
    Group ids come from `cm.groups`, or from `groups` in its place as
    `cm.with_groups(groups)` keeps it; with none, `group_split` is None.
    """
    if groups is not None:
        cm = cm.with_groups(groups)
    cells = cm.cells
    total = int(cells.sum())
    if total == 0:
        raise ValueError("cannot evaluate an empty confusion matrix")
    diag = np.diag(cells)
    gold_support = cells.sum(axis=1)
    pred_support = cells.sum(axis=0)

    per_class: dict[Label, ClassMetrics] = {}
    for i, label in enumerate(cm.labels):
        tp = int(diag[i])
        precision = tp / int(pred_support[i]) if pred_support[i] else 0.0
        recall = tp / int(gold_support[i]) if gold_support[i] else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, int(gold_support[i]))

    correct = int(diag.sum())
    accuracy = correct / total
    # Pooled, each error is one FP and one FN, so micro-F1 = 2c / (2c + 2e) = accuracy.
    f1_micro = accuracy
    f1_macro = sum(pc.f1 for pc in per_class.values()) / len(per_class)
    f1_weighted = sum(pc.f1 * pc.support for pc in per_class.values()) / total

    group_split = None
    if cm.groups:
        ids = [cm.groups.get(l) for l in cm.labels]
        # An error is within-group when its gold and predicted labels share a group id.
        within_group = np.array([[g is not None and g == h for h in ids] for g in ids])
        np.fill_diagonal(within_group, False)
        within = int(cells[within_group].sum())
        group_split = GroupSplit(within, total - correct - within)

    return EvalReport(accuracy, f1_micro, f1_macro, f1_weighted, per_class, group_split)


def render(cm: ConfusionMatrix, fmt: str = "text") -> str:
    """Render a matrix and its `report` in one of: text (grouped table), json, csv
    (the matrix alone, as `load_matrix_csv` reads it). Every format rejects an empty matrix, as `report` does."""
    rep = report(cm)
    if fmt == "text":
        return _render_text(rep, cm)
    if fmt == "json":
        return _render_json(rep, cm)
    if fmt == "csv":
        return _render_csv(cm)
    raise ValueError(f"unknown report format {fmt!r} (expected text, json, or csv)")


def _display_order(cm: ConfusionMatrix) -> list[int]:
    # Grouped labels first, ordered by group id; matrix order within a group
    # and for ungrouped labels.
    ids = [cm.groups.get(l) for l in cm.labels]
    return sorted(range(len(ids)), key=lambda i: (ids[i] is None, ids[i] or 0, i))


def _render_text(rep: EvalReport, cm: ConfusionMatrix) -> str:
    lines = [
        f"accuracy     {rep.accuracy:.6f}",
        f"f1_micro     {rep.f1_micro:.6f}",
        f"f1_macro     {rep.f1_macro:.6f}",
        f"f1_weighted  {rep.f1_weighted:.6f}",
    ]
    if rep.group_split is not None:
        lines.append(
            f"errors       {rep.group_split.within_group_errors} within-group, "
            f"{rep.group_split.cross_group_errors} cross-group"
        )
    lines.append("")

    order = _display_order(cm)
    codes = [cm.labels[i].code for i in order]
    width = max(max(len(c) for c in codes), len(str(int(cm.cells.max()))), 5)
    code_w = max(len(c) for c in codes) + 2

    header = ["group ", "code".ljust(code_w)] if cm.groups else ["code".ljust(code_w)]
    header += [c.rjust(width) for c in codes] + ["    F1"]
    lines.append(" ".join(header))
    prev_group: object = None
    for i in order:
        label = cm.labels[i]
        group = cm.groups.get(label)
        if cm.groups and prev_group is not None and group != prev_group:
            lines.append("")
        prev_group = group
        row = []
        if cm.groups:
            row.append(str(group if group is not None else "-").ljust(6))
        row.append(label.code.ljust(code_w))
        row += [str(int(cm.cells[i, j])).rjust(width) for j in order]
        row.append(f"  {rep.per_class[label].f1:.2f}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _render_json(rep: EvalReport, cm: ConfusionMatrix) -> str:
    # The report's fields in their order, each keyed by its name; `per_class`
    # (in matrix order, as `report` builds it) becomes a list of rows.
    doc = vars(rep) | {
        "per_class": [{"label": label.code, **vars(pc)} for label, pc in rep.per_class.items()],
        "group_split": None if rep.group_split is None else vars(rep.group_split),
        "labels": [l.code for l in cm.labels],
        "matrix": cm.cells.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(cm: ConfusionMatrix) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(label.code for label in cm.labels)
    writer.writerows(cm.cells.tolist())
    return out.getvalue()


def load_matrix_csv(path: str | Path) -> ConfusionMatrix:
    """Read a stored confusion matrix: header of label codes, then count rows.

    Row order matches the header order; cells are non-negative integers.
    """
    reader = csv.reader(read_lines(path))
    # Each non-blank row with the number of its (last) line in the file.
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise CorpusFormatError(f"{path}: empty matrix file")
    head, header = rows[0]
    try:
        labels = tuple(Label(code.strip()) for code in header)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}:{head}: {exc}") from exc
    repeated = [l.code for l in labels if labels.count(l) > 1]
    if repeated:
        raise CorpusFormatError(f"{path}:{head}: label {repeated[0]!r} listed more than once")
    n = len(labels)
    if len(rows) - 1 != n:
        raise CorpusFormatError(f"{path}: expected {n} count rows, found {len(rows) - 1}")
    cells = np.zeros((n, n), dtype=np.int64)
    for k, (line, row) in enumerate(rows[1:]):
        if len(row) != n:
            raise CorpusFormatError(f"{path}:{line}: expected {n} cells, found {len(row)}")
        for j, cell in enumerate(row):
            try:
                value = int(cell)
            except ValueError as exc:
                raise CorpusFormatError(f"{path}:{line}: non-integer cell {cell!r}") from exc
            if value < 0:
                raise CorpusFormatError(f"{path}:{line}: negative cell {value}")
            cells[k, j] = value
    return ConfusionMatrix(labels, cells)


def load_groups_tsv(path: str | Path) -> dict[Label, int]:
    """Read ``label<TAB>group_id`` lines into a group assignment map."""
    groups: dict[Label, int] = {}
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"{path}:{line_no}: expected label<TAB>group_id, got {line!r}"
            )
        code, gid = parts
        try:
            label, group = Label(code), int(gid)
        except ValueError as exc:
            raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
        if label in groups:
            raise CorpusFormatError(f"{path}:{line_no}: label {code!r} already has a group")
        groups[label] = group
    return groups

"""Rater-agreement and significance statistics for human evaluation tables.

Annotations use a small ordinal label set, by default suitable = 2,
neutral = 1, unsuitable = 0, presented in that (descending) order. The
chi-square survival function is implemented here directly, as the finite
sum that its integer degrees of freedom allow, so p-values carry no
external dependency.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass

import numpy as np

from .corpus import _open_utf8

__all__ = [
    "AnnotationTable",
    "score_summary",
    "fleiss_kappa",
    "friedman_test",
    "chi_square_sf",
    "load_annotations_csv",
    "load_scores_csv",
]

DEFAULT_CATEGORIES = (2, 1, 0)


@dataclass
class AnnotationTable:
    """Item x rater categorical labels.

    labels[i, j] is rater j's label for item i; every value must be one of
    `categories`, whose order is the presentation order used for fractions.
    """

    labels: np.ndarray
    categories: tuple = DEFAULT_CATEGORIES

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 2:
            raise ValueError(
                f"labels must be an items x raters matrix, got shape {self.labels.shape}")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"categories must be distinct, got {self.categories}")
        if self.labels.size:
            seen = set(np.unique(self.labels).tolist())
            bad = seen - set(self.categories)
            if bad:
                raise ValueError(
                    f"labels contain values {sorted(bad)} outside categories "
                    f"{self.categories}")

    @property
    def n_items(self) -> int:
        return self.labels.shape[0]

    @property
    def n_raters(self) -> int:
        return self.labels.shape[1]


def score_summary(table: AnnotationTable):
    """Mean label value and per-category fractions (in table.categories order)."""
    if table.labels.size == 0:
        raise ValueError("cannot summarize an empty annotation table")
    mean = float(table.labels.mean())
    total = table.labels.size
    fractions = tuple(float((table.labels == c).sum()) / total
                      for c in table.categories)
    return mean, fractions


def fleiss_kappa(table: AnnotationTable) -> float:
    """Chance-corrected multi-rater agreement.

    Per item, agreement P_i = [sum_c n_ic (n_ic - 1)] / [k (k - 1)]; kappa is
    (mean P_i - P_e) / (1 - P_e) with P_e the squared category proportions
    summed. Undefined (raises) when every annotation is the same category.
    """
    n, k = table.labels.shape
    if n < 1:
        raise ValueError("need at least one item")
    if k < 2:
        raise ValueError(f"agreement needs at least two raters, got {k}")
    counts = np.stack([(table.labels == c).sum(axis=1) for c in table.categories],
                      axis=1).astype(np.float64)
    p_i = (np.square(counts).sum(axis=1) - k) / (k * (k - 1))
    p_bar = float(p_i.mean())
    p_cat = counts.sum(axis=0) / (n * k)
    p_e = float(np.square(p_cat).sum())
    if p_e == 1.0:
        raise ValueError(
            "all annotations fall in a single category; kappa is undefined")
    return (p_bar - p_e) / (1.0 - p_e)


def friedman_test(scores):
    """Friedman rank test over an N subjects x k treatments score matrix.

    Returns (statistic, dof, p_value, average ranks per treatment). Ranks run
    descending (rank 1 = highest score), ties get average ranks, and the
    statistic carries the standard tie-correction divisor
    1 - sum(t^3 - t) / (N k (k^2 - 1)). When every subject ranks all
    treatments identically tied, the statistic is 0 and p = 1.
    """
    m = np.asarray(scores, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"scores must be a 2-d matrix, got shape {m.shape}")
    n, k = m.shape
    if n < 1 or k < 2:
        raise ValueError(f"need N >= 1 subjects and k >= 2 treatments, got {n} x {k}")
    if not np.isfinite(m).all():
        raise ValueError("scores must be finite")

    ranks = np.empty_like(m)
    tie_sum = 0.0
    for i, row in enumerate(m):
        higher = (row[None, :] > row[:, None]).sum(axis=1)
        equal = (row[None, :] == row[:, None]).sum(axis=1)
        ranks[i] = higher + (equal + 1) / 2.0
        # each of a tie group's t entries has equal = t: t (t^2 - 1) = t^3 - t
        tie_sum += float((equal * equal - 1).sum())

    avg_ranks = tuple(float(r) for r in ranks.mean(axis=0))
    dof = k - 1
    correction = 1.0 - tie_sum / (n * k * (k * k - 1.0))
    centered = float(np.square(np.asarray(avg_ranks) - (k + 1) / 2.0).sum())
    if correction == 0.0:
        # fully tied everywhere; the numerator is necessarily zero too
        return 0.0, dof, 1.0, avg_ranks
    statistic = (12.0 * n / (k * (k + 1.0))) * centered / correction
    return statistic, dof, chi_square_sf(statistic, dof), avg_ranks


# --- chi-square survival function -------------------------------------------


def chi_square_sf(x: float, dof: int) -> float:
    """P(X >= x) for a chi-square variable with `dof` degrees of freedom.

    This is the regularized upper incomplete gamma Q(dof/2, y), y = x/2,
    which for an integer dof is a finite sum (Abramowitz and Stegun 1964,
    section 26.4): sum of exp((j - 1) ln y - y - lgamma(j)) over
    j = dof/2, dof/2 - 1, ... down to 1 for an even dof and to 3/2 for an
    odd one, which adds erfc(sqrt(y)). The positive terms are summed with
    math.fsum. The cost is linear in dof, dof/2 + 1 terms; friedman_test
    ranks its N x k scores in O(N k^2) before it asks for k - 1 dof, so its
    p-value is never the dominant term.
    """
    if dof < 1 or int(dof) != dof:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x}")
    dof = int(dof)
    y = x / 2.0
    if y == 0.0:  # x = 0, or a subnormal x whose half underflows
        return 1.0
    if math.isinf(y):
        return 0.0
    log_y = math.log(y)
    terms = [math.exp((j - 1.0) * log_y - y - math.lgamma(j))
             for j in (dof / 2.0 - i for i in range(dof // 2))]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return min(1.0, math.fsum(terms))


# --- file formats -------------------------------------------------------------


@contextlib.contextmanager
def _csv_rows(path):
    """(line number, fields) of each record of a UTF-8 CSV file, header first.
    Malformed CSV, such as an overlong field, is a ValueError naming the line."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            yield ((reader.line_num, row) for row in reader)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def load_annotations_csv(path, categories: tuple = DEFAULT_CATEGORIES) -> AnnotationTable:
    """Read a CSV with header item,rater,label into an AnnotationTable.

    Items keep first-appearance order; every item must carry the same number
    of labels, and an (item, rater) pair may appear only once.
    """
    per_item: dict[str, list] = {}
    seen_pairs = set()
    with _csv_rows(path) as rows:
        _, header = next(rows, (1, None))
        if header is None or [h.strip().lower() for h in header] != ["item", "rater", "label"]:
            raise ValueError(f"{path}: expected CSV header 'item,rater,label'")
        for lineno, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            item, rater, label_text = (f.strip() for f in row)
            if (item, rater) in seen_pairs:
                raise ValueError(f"{path}:{lineno}: duplicate rating for "
                                 f"item {item!r} by rater {rater!r}")
            seen_pairs.add((item, rater))
            try:
                label = int(label_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label {label_text!r} is not "
                                 f"an integer") from None
            if label not in categories:
                raise ValueError(f"{path}:{lineno}: label {label} is not one of {categories}")
            per_item.setdefault(item, []).append(label)
    if not per_item:
        raise ValueError(f"{path}: no annotations found")
    k_counts = {len(v) for v in per_item.values()}
    if len(k_counts) != 1:
        raise ValueError(
            f"{path}: items have unequal numbers of ratings ({sorted(k_counts)})")
    labels = np.array(list(per_item.values()), dtype=np.int64)
    return AnnotationTable(labels=labels, categories=categories)


def load_scores_csv(path):
    """Read a Friedman score matrix: header row of treatment names, one CSV
    row of scores per subject. Returns (names, N x k float matrix)."""
    with _csv_rows(path) as rows:
        _, header = next(rows, (1, None))
        if not header or len(header) < 2:
            raise ValueError(f"{path}: expected a header row with at least "
                             f"two treatment names")
        names = [h.strip() for h in header]
        for name in names:
            # a tab or line break in a name would split its avg_rank line
            if "\t" in name or name.splitlines() not in ([], [name]):
                raise ValueError(f"{path}:1: treatment name {name!r} holds a tab "
                                 f"or a line break")
        scores = []
        for lineno, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(names):
                raise ValueError(f"{path}:{lineno}: expected {len(names)} "
                                 f"scores, got {len(row)}")
            try:
                scores.append([float(v) for v in row])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric score") from None
    if not scores:
        raise ValueError(f"{path}: no score rows found")
    return names, np.array(scores, dtype=np.float64)

import math

import numpy as np
import pytest
from scipy import stats as sps

from replygen.evalstats import (
    AnnotationTable,
    chi_square_sf,
    fleiss_kappa,
    friedman_test,
    load_annotations_csv,
    load_scores_csv,
    score_summary,
)


# --- annotation tables ------------------------------------------------------


def test_table_validation():
    t = AnnotationTable(np.array([[2, 1], [0, 2]]))
    assert t.n_items == 2 and t.n_raters == 2
    with pytest.raises(ValueError):
        AnnotationTable(np.array([1, 2, 0]))  # not 2-d
    with pytest.raises(ValueError):
        AnnotationTable(np.array([[3, 1]]))  # outside the category set
    with pytest.raises(ValueError):
        AnnotationTable(np.array([[1, 1]]), categories=(1, 1, 0))


def test_score_summary_hand_example():
    t = AnnotationTable(np.array([[2, 2, 1], [0, 1, 2]]))
    mean, fractions = score_summary(t)
    assert mean == pytest.approx(8.0 / 6.0)
    assert fractions == pytest.approx((3 / 6, 2 / 6, 1 / 6))


def test_score_summary_all_top_category():
    t = AnnotationTable(np.full((4, 3), 2))
    mean, fractions = score_summary(t)
    assert mean == 2.0
    assert fractions == (1.0, 0.0, 0.0)


# --- Fleiss' kappa -----------------------------------------------------------


def test_kappa_small_hand_computed_table():
    # item 1: two 2s and a 1; item 2: three 0s -> kappa works out to 5/11
    t = AnnotationTable(np.array([[2, 2, 1], [0, 0, 0]]))
    assert fleiss_kappa(t) == pytest.approx(5.0 / 11.0, abs=1e-15)


def test_kappa_classic_fourteen_rater_table():
    """The well-known 10-item, 14-rater, 5-category agreement example."""
    counts = [
        [0, 0, 0, 0, 14], [0, 2, 6, 4, 2], [0, 0, 3, 5, 6], [0, 3, 9, 2, 0],
        [2, 2, 8, 1, 1], [7, 7, 0, 0, 0], [3, 2, 6, 3, 0], [2, 5, 3, 2, 2],
        [6, 5, 2, 1, 0], [0, 2, 2, 3, 7],
    ]
    labels = [sum(([c + 1] * n for c, n in enumerate(row)), []) for row in counts]
    t = AnnotationTable(np.array(labels), categories=(1, 2, 3, 4, 5))
    assert fleiss_kappa(t) == pytest.approx(0.20993070442195522, abs=1e-12)


def test_kappa_perfect_agreement_is_exactly_one():
    t = AnnotationTable(np.array([[2, 2, 2], [0, 0, 0], [1, 1, 1]]))
    assert fleiss_kappa(t) == 1.0


def test_kappa_single_category_degenerate():
    with pytest.raises(ValueError):
        fleiss_kappa(AnnotationTable(np.full((3, 4), 1)))


def test_kappa_needs_two_raters():
    with pytest.raises(ValueError):
        fleiss_kappa(AnnotationTable(np.array([[2], [1]])))


def test_kappa_invariances():
    labels = np.array([[2, 1, 0, 2], [1, 1, 2, 0], [0, 2, 2, 2]])
    base = fleiss_kappa(AnnotationTable(labels))
    # rater order cannot matter
    shuffled = fleiss_kappa(AnnotationTable(labels[:, [3, 0, 2, 1]]))
    assert shuffled == pytest.approx(base, abs=1e-15)
    # bijective relabeling cannot matter
    relabeled = fleiss_kappa(AnnotationTable(np.take([1, 2, 0], labels),
                                             categories=(0, 1, 2)))
    assert relabeled == pytest.approx(base, abs=1e-15)


# --- Friedman test ------------------------------------------------------------


def test_friedman_worked_two_treatment_example():
    scores = np.array([[2.0, 1.0], [3.0, 0.5], [5.0, 4.0]])
    statistic, dof, p, ranks = friedman_test(scores)
    assert ranks == (1.0, 2.0)
    assert statistic == pytest.approx(3.0, abs=1e-12)
    assert dof == 1
    assert p == pytest.approx(0.08326451666355042, abs=1e-10)


def test_friedman_identical_columns():
    statistic, dof, p, ranks = friedman_test(np.ones((4, 3)))
    assert statistic == 0.0 and p == 1.0 and dof == 2
    assert ranks == (2.0, 2.0, 2.0)


def test_friedman_tie_averaging():
    # row [5, 5, 1]: the two winners share ranks 1 and 2
    _, _, _, ranks = friedman_test(np.array([[5.0, 5.0, 1.0]]))
    assert ranks == (1.5, 1.5, 3.0)


def test_friedman_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, k = int(rng.integers(3, 12)), int(rng.integers(3, 6))
        m = rng.normal(size=(n, k))  # continuous, so ties have measure zero
        statistic, dof, p, _ = friedman_test(m)
        ref = sps.friedmanchisquare(*[m[:, j] for j in range(k)])
        assert statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
        assert dof == k - 1


def test_friedman_tie_correction_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, k = int(rng.integers(3, 12)), int(rng.integers(3, 8))
        m = rng.integers(0, 3, size=(n, k)).astype(np.float64)  # many ties
        m[0] = np.arange(k)  # so no matrix is tied throughout
        statistic, _, p, _ = friedman_test(m)
        ref = sps.friedmanchisquare(*[m[:, j] for j in range(k)])
        assert statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)


def test_friedman_rank_direction_is_descending():
    # one subject, strictly decreasing scores: ranks are 1..k in order
    _, _, _, ranks = friedman_test(np.array([[9.0, 7.0, 4.0, 1.0]]))
    assert ranks == (1.0, 2.0, 3.0, 4.0)


def test_friedman_monotone_transform_invariance():
    m = np.array([[0.3, 1.4, -2.0], [2.2, 0.1, 0.4], [1.0, 3.0, 2.0]])
    s1, _, p1, r1 = friedman_test(m)
    s2, _, p2, r2 = friedman_test(np.exp(m))  # strictly increasing map
    assert s1 == pytest.approx(s2, abs=1e-12)
    assert p1 == pytest.approx(p2, abs=1e-12)
    assert r1 == r2


def test_friedman_column_permutation_permutes_ranks():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 1.0], [1.0, 3.0, 2.0]])
    s1, _, _, r1 = friedman_test(m)
    s2, _, _, r2 = friedman_test(m[:, [2, 0, 1]])
    assert s1 == pytest.approx(s2, abs=1e-12)
    assert (r1[2], r1[0], r1[1]) == r2


def test_friedman_input_validation():
    with pytest.raises(ValueError):
        friedman_test(np.ones((0, 3)))
    with pytest.raises(ValueError):
        friedman_test(np.ones((3, 1)))
    with pytest.raises(ValueError):
        friedman_test(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        friedman_test(np.ones(4))


# --- chi-square survival function ----------------------------------------------


def test_chi_square_sf_dof2_closed_form():
    for x in np.linspace(0.0, 50.0, 101):
        assert abs(chi_square_sf(float(x), 2) - math.exp(-x / 2.0)) < 1e-10


def test_chi_square_sf_against_scipy_grid():
    xs = np.concatenate([np.linspace(0.001, 60.0, 40), np.geomspace(1e-12, 5000.0, 40)])
    for dof in [*range(1, 61), 99, 100, 250, 999, 1000]:
        for x, ref in zip(xs, sps.chi2.sf(xs, dof)):
            assert abs(chi_square_sf(float(x), dof) - ref) < 1e-10, (x, dof)


def test_chi_square_sf_spot_values():
    assert chi_square_sf(0.0, 5) == 1.0
    assert chi_square_sf(2.0, 2) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert abs(chi_square_sf(3.841, 1) - 0.050013683763956804) < 1e-10


def test_chi_square_sf_monotone_decreasing_in_x():
    values = [chi_square_sf(x, 3) for x in np.linspace(0.0, 30.0, 61)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chi_square_sf_domain_errors():
    with pytest.raises(ValueError):
        chi_square_sf(-0.5, 2)
    with pytest.raises(ValueError):
        chi_square_sf(float("nan"), 2)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 2.5)


def test_chi_square_sf_extreme_tail_stays_in_unit_interval():
    p = chi_square_sf(500.0, 1)
    assert 0.0 <= p < 1e-100


def test_chi_square_sf_at_the_ends_of_the_float_range():
    assert chi_square_sf(math.inf, 1) == 0.0
    assert chi_square_sf(math.inf, 4) == 0.0
    assert chi_square_sf(5e-324, 1) == 1.0  # half of it underflows to 0
    assert chi_square_sf(1e-300, 2) == 1.0


# --- file loaders ----------------------------------------------------------------


def test_load_annotations_roundtrip(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text(
        "item,rater,label\n"
        "i1,r1,2\ni1,r2,1\n"
        "i2,r1,0\ni2,r2,0\n",
        encoding="utf-8")
    table = load_annotations_csv(path)
    np.testing.assert_array_equal(table.labels, [[2, 1], [0, 0]])


def test_load_annotations_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("foo,bar\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_annotations_csv(bad_header)

    dup = tmp_path / "b.csv"
    dup.write_text("item,rater,label\ni1,r1,2\ni1,r1,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_annotations_csv(dup)

    ragged = tmp_path / "c.csv"
    ragged.write_text("item,rater,label\ni1,r1,2\ni1,r2,1\ni2,r1,0\n",
                      encoding="utf-8")
    with pytest.raises(ValueError, match="unequal"):
        load_annotations_csv(ragged)

    non_int = tmp_path / "d.csv"
    non_int.write_text("item,rater,label\ni1,r1,good\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_annotations_csv(non_int)


def test_load_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("sysA,sysB,sysC\n1.5,2.0,0.5\n2.5,2.5,1.0\n", encoding="utf-8")
    names, matrix = load_scores_csv(path)
    assert names == ["sysA", "sysB", "sysC"]
    np.testing.assert_array_equal(matrix, [[1.5, 2.0, 0.5], [2.5, 2.5, 1.0]])


def test_load_scores_errors(tmp_path):
    short = tmp_path / "one.csv"
    short.write_text("only\n1.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_scores_csv(short)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        load_scores_csv(ragged)

    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no score rows"):
        load_scores_csv(empty)

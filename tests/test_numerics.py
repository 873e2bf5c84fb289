import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replygen.numerics import (
    Rng,
    clip_global_norm,
    log_softmax,
    softmax_stable,
)


# --- Rng ---------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_rng_different_seeds_differ():
    a = [Rng(1).next_u64() for _ in range(4)]
    b = [Rng(2).next_u64() for _ in range(4)]
    assert a != b


def test_rng_documented_recurrence():
    """The stream must match a literal transcription of the docstring."""
    seed = 7
    z = (seed + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    state = z ^ (z >> 31)
    expected = []
    for _ in range(5):
        state ^= state >> 12
        state = (state ^ (state << 25)) % 2**64
        state ^= state >> 27
        expected.append((state * 0x2545F4914F6CDD1D) % 2**64)
    rng = Rng(7)
    assert [rng.next_u64() for _ in range(5)] == expected


def test_rng_float_range():
    rng = Rng(3)
    draws = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in draws)
    # crude uniformity sanity: the mean of 2000 draws sits near 1/2
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_rng_uniform_bounds():
    rng = Rng(9)
    draws = [rng.uniform(-2.5, 1.5) for _ in range(500)]
    assert all(-2.5 <= x < 1.5 for x in draws)
    assert min(draws) < -2.0 and max(draws) > 1.0


def test_rng_randrange_bounds_and_coverage():
    rng = Rng(5)
    draws = [rng.randrange(7) for _ in range(700)]
    assert set(draws) == set(range(7))


def test_rng_randrange_rejects_bad_n():
    with pytest.raises(ValueError):
        Rng(0).randrange(0)


def test_rng_shuffle_is_permutation():
    rng = Rng(11)
    seq = list(range(40))
    shuffled = list(seq)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == seq
    assert shuffled != seq  # 40! leaves no realistic chance of identity


def test_rng_shuffle_deterministic():
    a, b = list(range(20)), list(range(20))
    Rng(123).shuffle(a)
    Rng(123).shuffle(b)
    assert a == b


# --- elementwise and reductions -----------------------------------------


def test_softmax_rows_sum_to_one():
    z = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
    p = softmax_stable(z, axis=1)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15)
    assert (p > 0).all()


def test_softmax_handles_huge_logits():
    p = softmax_stable(np.array([1e9, 1e9 + 1.0]))
    assert np.isfinite(p).all()
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-15)


def test_softmax_minus_inf_gets_exactly_zero():
    p = softmax_stable(np.array([0.0, -np.inf, 1.0]))
    assert p[1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-15)


def test_softmax_single_finite_entry_is_exactly_one():
    p = softmax_stable(np.array([[-np.inf, 4.2, -np.inf]]), axis=1)
    assert p[0, 1] == 1.0


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax_stable(np.array([]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_softmax_simplex_property(vals):
    p = softmax_stable(np.array(vals))
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) < 1e-12


def test_log_softmax_consistent_with_softmax():
    z = np.array([[0.3, -1.2, 4.0, 2.2]])
    np.testing.assert_allclose(np.exp(log_softmax(z, axis=1)),
                               softmax_stable(z, axis=1), rtol=1e-14)


def test_log_softmax_out_in_place():
    z = np.random.default_rng(0).standard_normal((7, 50)) * 30.0
    expected = log_softmax(z, axis=1)
    got = log_softmax(z, axis=1, out=z)
    assert got is z
    assert got.tobytes() == expected.tobytes()


# --- clipping ---------------------------------------------------


def test_clip_noop_below_threshold():
    g = [np.array([0.3, 0.4])]  # norm 0.5
    out, factor = clip_global_norm(g, 1.0)
    assert factor == 1.0
    assert out[0] is g[0]


def test_clip_rescales_to_max_norm():
    g = [np.array([3.0, 0.0]), np.array([[4.0]])]  # global norm 5
    out, factor = clip_global_norm(g, 1.0)
    assert abs(factor - 0.2) < 1e-15
    total = math.sqrt(sum(float(np.sum(x * x)) for x in out))
    assert abs(total - 1.0) < 1e-12


def test_clip_rejects_nonpositive_max_norm():
    with pytest.raises(ValueError):
        clip_global_norm([np.zeros(2)], 0.0)


@pytest.mark.parametrize("max_norm", [math.nan, math.inf])
def test_clip_rejects_non_finite_max_norm(max_norm):
    with pytest.raises(ValueError, match="max_norm must be positive and finite"):
        clip_global_norm([np.zeros(2)], max_norm)


def test_clip_overflowing_squares_get_the_finite_factor():
    """Two entries of 1e300 overflow the sum of squares, not the norm: the
    factor is max_norm over the norm 1e300 * sqrt(2), not 0."""
    g = [np.zeros(3), np.array([[1e300, 0.0], [0.0, 1e300]])]
    out, factor = clip_global_norm(g, 1.0)
    assert factor == pytest.approx(1.0 / (math.sqrt(2.0) * 1e300), rel=1e-15)
    np.testing.assert_allclose(out[1], np.eye(2) / math.sqrt(2.0), rtol=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clip_names_the_array_that_holds_a_non_finite_value(bad):
    g = [np.ones(2), np.array([1.0, bad]), np.full(2, math.nan)]
    with pytest.raises(ValueError, match="gradient 1 holds a non-finite value"):
        clip_global_norm(g, 1.0)

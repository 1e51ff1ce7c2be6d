import math

import numpy as np
import pytest

from speclab.errors import DomainError, NumericError
from speclab.sampling import (
    derive_seed,
    make_rng,
    sample,
    softmax_rows_with_temperature,
    softmax_with_temperature,
)


def test_softmax_tau_one_known_values():
    # exp(ln 2) = 2 against exp(0) = 1, so probabilities are 2/3 and 1/3.
    p = softmax_with_temperature(np.array([math.log(2.0), 0.0]), 1.0)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_tau_two_halves_logits():
    p = softmax_with_temperature(np.array([math.log(4.0), 0.0]), 2.0)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_tau_zero_is_argmax():
    p = softmax_with_temperature(np.array([0.1, 2.0, -1.0, 2.0 - 1e-9]), 0.0)
    assert p.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_softmax_tau_zero_tie_breaks_to_lowest_id():
    p = softmax_with_temperature(np.array([3.0, 1.0, 3.0, 3.0]), 0.0)
    assert p.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_softmax_huge_logits_do_not_overflow():
    p = softmax_with_temperature(np.array([1e4, 1e4 - 5.0, 0.0]), 1.0)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_negative_tau_rejected():
    with pytest.raises(DomainError):
        softmax_with_temperature(np.array([0.0, 1.0]), -0.5)


def test_softmax_distribution_properties_random_logits():
    rng = make_rng(101)
    for _ in range(200):
        logits = rng.normal(0, 3, size=rng.integers(2, 33))
        tau = float(rng.uniform(0.05, 3.0))
        p = softmax_with_temperature(logits, tau)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        # Temperature never moves the argmax.
        assert np.argmax(p) == np.argmax(logits)


def test_softmax_sharpening_is_monotone_in_tau():
    rng = make_rng(102)
    for _ in range(100):
        logits = rng.normal(0, 2, size=16)
        taus = np.sort(rng.uniform(0.05, 3.0, size=4))
        peaks = [softmax_with_temperature(logits, t).max() for t in taus]
        for lo, hi in zip(peaks[1:], peaks[:-1]):
            assert lo <= hi + 1e-12


def test_softmax_tau_one_matches_plain_softmax_exactly():
    rng = make_rng(103)
    logits = rng.normal(0, 5, size=24)
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    got = softmax_with_temperature(logits, 1.0)
    assert np.array_equal(got, expected)


def test_softmax_shift_invariance():
    rng = make_rng(104)
    for _ in range(50):
        logits = rng.normal(0, 2, size=12)
        shift = float(rng.normal(0, 10))
        tau = float(rng.uniform(0.1, 2.5))
        a = softmax_with_temperature(logits, tau)
        b = softmax_with_temperature(logits + shift, tau)
        assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rows_matches_single_row_calls():
    rng = make_rng(105)
    logits = rng.normal(0, 2, size=(6, 10))
    for tau in (0.0, 0.3, 1.0, 2.0):
        rows = softmax_rows_with_temperature(logits, tau)
        for i in range(6):
            assert np.allclose(rows[i], softmax_with_temperature(logits[i], tau), atol=1e-15)


def test_sample_one_hot_always_returns_that_token():
    rng = make_rng(7)
    dist = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(sample(dist, rng) == 2 for _ in range(50))


def test_sample_never_returns_zero_probability_token():
    rng = make_rng(8)
    dist = np.array([0.5, 0.0, 0.5, 0.0])
    draws = {sample(dist, rng) for _ in range(2000)}
    assert draws == {0, 2}


def test_sample_frequencies_match_distribution():
    rng = make_rng(9)
    dist = np.array([0.25, 0.25, 0.25, 0.25])
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample(dist, rng)] += 1
    freq = counts / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(freq - 0.25) < 3 * sigma)


def test_sample_is_deterministic_given_seed():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    a = [sample(d, make_rng(33)) for _ in range(1)]
    draws1 = []
    rng = make_rng(33)
    for _ in range(20):
        draws1.append(sample(d, rng))
    rng = make_rng(33)
    draws2 = [sample(d, rng) for _ in range(20)]
    assert draws1 == draws2
    assert a[0] == draws1[0]


def test_sample_rejects_nan_distribution_from_tiny_tau():
    # A positive tau this small overflows logits / tau, so every entry is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        dist = softmax_with_temperature(np.array([0.5, 1.0, 2.0]), 1e-310)
    assert np.all(np.isnan(dist))
    with pytest.raises(NumericError, match="nan"):
        sample(dist, make_rng(0))


@pytest.mark.parametrize("dist", [
    [0.2, np.inf, 0.3], [0.5, 0.4], [0.5, 0.6], [0.0, 0.0], [-0.5, 1.0, 0.6],
])
def test_sample_rejects_non_finite_or_unnormalized(dist):
    with pytest.raises(NumericError, match="total"):
        sample(np.array(dist), make_rng(0))


def test_sample_rejects_empty_distribution():
    with pytest.raises(NumericError, match="empty"):
        sample(np.array([]), make_rng(0))


def test_sample_accepts_rounding_error_in_the_total():
    assert sample(np.array([0.3, 0.7 + 5e-10]), make_rng(0)) in (0, 1)


def test_sample_consumes_exactly_one_uniform():
    d = np.array([0.3, 0.7])
    rng_a = make_rng(55)
    sample(d, rng_a)
    rng_b = make_rng(55)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    seeds = {derive_seed(42, i, j) for i in range(11) for j in range(6)}
    assert len(seeds) == 66

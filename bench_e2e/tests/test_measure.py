import random

import pytest

from bench_e2e.measure import ZipfSampler, derive_seed, median, percentile


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    assert percentile(values, 0.5) == 25.0
    assert percentile([5.0], 0.95) == 5.0
    # rank 0.95 * 3 = 2.85 -> between 30 and 40
    assert percentile(values, 0.95) == pytest.approx(38.5)
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_zipf_probabilities_follow_the_exponent():
    zipf = ZipfSampler(48, 1.0)
    assert sum(zipf.probability(rank) for rank in range(48)) == pytest.approx(1.0)
    assert zipf.probability(0) / zipf.probability(1) == pytest.approx(2.0)
    assert zipf.probability(0) / zipf.probability(9) == pytest.approx(10.0)


def test_zipf_sampling_matches_its_probabilities():
    zipf = ZipfSampler(8, 1.0)
    rng = random.Random(5)
    draws = [zipf.sample(rng) for _ in range(40000)]
    assert set(draws) == set(range(8))
    for rank in range(8):
        assert draws.count(rank) / len(draws) == pytest.approx(zipf.probability(rank), abs=0.01)


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(11, "timed/O") == derive_seed(11, "timed/O")
    assert derive_seed(11, "timed/O") != derive_seed(12, "timed/O")
    assert derive_seed(11, "timed/O") != derive_seed(11, "timed/SDLL")

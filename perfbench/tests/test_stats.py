import pytest

from perfbench.stats import TooFewSamples, percentile, percentile_or_none


def test_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.90) == 90
    assert percentile(reversed(samples), 0.50) == 50


def test_refuses_a_percentile_with_fewer_than_ten_samples_beyond_it():
    assert percentile(range(20), 0.50) == 9  # ten beyond
    with pytest.raises(TooFewSamples):
        percentile(range(19), 0.50)
    with pytest.raises(TooFewSamples):
        percentile(range(99), 0.90)
    assert percentile(range(1000), 0.99) == 989
    with pytest.raises(TooFewSamples):
        percentile(range(999), 0.99)
    assert percentile_or_none(range(5), 0.50) is None


def test_rejects_quantiles_outside_the_open_interval():
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            percentile(range(100), q)

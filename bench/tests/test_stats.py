"""The benchmark's own arithmetic: tail rule and failure ratios."""

import pytest

from stats import fail_rate, tail_or_max, tail_percentile


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    p, value = tail_percentile(samples)
    # p90 sits at rank 90 with exactly ten samples beyond; p91 leaves nine
    assert (p, value) == (90, 90.0)


def test_tail_uses_finer_percentiles_on_large_runs():
    samples = [float(i) for i in range(1, 10001)]
    assert tail_percentile(samples) == (99.9, 9990.0)


def test_tail_ignores_input_order():
    samples = [float(i) for i in range(200, 0, -1)]
    assert tail_percentile(samples) == (95, 190.0)


def test_tail_omitted_when_too_few_samples():
    assert tail_percentile([1.0, 2.0, 3.0]) is None
    assert tail_percentile([]) is None
    # 99 samples: ten beyond leaves at most p89.9, which is no tail
    assert tail_percentile([float(i) for i in range(99)]) is None
    assert tail_percentile([float(i) for i in range(100)]) == (90, 89.0)


def test_tail_percentile_moves_smoothly_with_the_sample_count():
    p, value = tail_percentile([float(i) for i in range(1, 451)])
    assert p == pytest.approx(100 * 440 / 450) and value == 440.0


def test_tail_falls_back_to_labelled_maximum():
    assert tail_or_max([3.0, 1.0, 2.0]) == ("max", 3.0)
    assert tail_or_max([float(i) for i in range(1, 101)]) == ("p90", 90.0)


def test_fail_rate_counts_oom_as_failure():
    kinds = [None, None, None, "oom"]
    assert fail_rate(kinds) == 0.25
    assert 1.0 - fail_rate(kinds) == 0.75


def test_fail_rate_counts_every_named_kind():
    assert fail_rate([None, "oom", "exit=3", "check", "error"]) == 0.8
    assert fail_rate([None] * 7) == 0.0
    with pytest.raises(ValueError):
        fail_rate([])


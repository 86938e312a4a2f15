import pytest

from magicbench.stats import ratio, summarize, supports, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (9, None), (10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_p99_needs_a_thousand_samples():
    assert not supports(999, 99.0)
    assert supports(1000, 99.0)


def test_summary_reports_count_and_marks_unsupported_p99():
    values = [float(i) for i in range(1, 501)]
    summary = summarize(values)
    assert summary["count"] == 500
    assert summary["p50"] == pytest.approx(250.5)
    assert summary["p99_supported"] is False
    assert summary["tail_percentile"] == 95.0
    assert summary["tail"] == pytest.approx(475.05)


def test_ratio_carries_its_base():
    assert ratio(3, 12) == {"value": 0.25, "numerator": 3, "base": 12}
    assert ratio(0, 0)["value"] == 0.0

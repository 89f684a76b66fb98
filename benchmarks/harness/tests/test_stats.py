"""The quantile / IQR helpers, span self time and the compare verdict."""

import pytest

from stats import (
    quantile,
    quartiles,
    self_time_by_name,
    self_times,
    spread,
    summarize,
    verdict,
)


def test_quantile_interpolates_between_order_statistics():
    values = [40.0, 10.0, 30.0, 20.0, 50.0]
    assert quantile(values, 0.0) == 10.0
    assert quantile(values, 0.5) == 30.0
    assert quantile(values, 1.0) == 50.0
    assert quantile(values, 0.25) == 20.0
    assert quantile(values, 0.9) == pytest.approx(46.0)
    assert quantile([7.0], 0.99) == 7.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


def test_quartiles_match_the_drivers_definition():
    # statistics.quantiles(range(1, 12), n=4) == [3, 6, 9]
    assert quartiles([float(v) for v in range(1, 12)]) == (3.0, 6.0, 9.0)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_summary_and_iqr_share():
    summary = summarize([float(v) for v in range(1, 12)])
    assert summary == {"median": 6.0, "q1": 3.0, "q3": 9.0,
                       "min": 1.0, "max": 11.0, "n": 11}
    assert spread(summary) == pytest.approx(1.0)
    assert spread(summarize([0.0, 0.0, 0.0])) == 0.0


def _span(ident, name, start, end, parent=None):
    return {"id": ident, "name": name, "start": start, "end": end,
            "parent": parent, "sample": "t"}


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span(0, "sample", 0.0, 10.0),
        _span(1, "read", 1.0, 4.0, parent=0),
        _span(2, "read", 3.0, 6.0, parent=0),      # overlaps span 1
        _span(3, "decode", 1.5, 2.5, parent=1),
        _span(4, "late", 9.0, 12.0, parent=0),     # clipped to the parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)  # [1,6] and [9,10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    totals = self_time_by_name(spans)
    assert totals["read"] == pytest.approx(5.0)
    assert totals["sample"] == pytest.approx(4.0)


def _run(median, low, high, q1=None, q3=None):
    return {"median": median, "q1": q1 if q1 is not None else median,
            "q3": q3 if q3 is not None else median,
            "min": low, "max": high, "n": 10}


def test_verdict_uses_the_bound():
    steady = _run(100.0, 99.0, 101.0, 99.5, 100.5)
    assert verdict(steady, _run(103.0, 102.0, 104.0), "lower", 0.07) \
        == "unchanged"
    assert verdict(steady, _run(110.0, 109.0, 111.0), "lower", 0.07) == "worse"
    assert verdict(steady, _run(110.0, 109.0, 111.0), "higher", 0.07) \
        == "better"


def test_verdict_is_unresolved_when_the_spread_exceeds_the_bound():
    noisy = _run(100.0, 80.0, 120.0, 90.0, 110.0)        # IQR 20 %
    assert verdict(noisy, _run(109.0, 85.0, 125.0), "lower", 0.07) \
        == "unresolved"
    # ... unless every sample of one run beats every sample of the other.
    assert verdict(noisy, _run(60.0, 50.0, 70.0), "lower", 0.07) == "better"
    assert verdict(noisy, _run(150.0, 130.0, 170.0), "lower", 0.07) == "worse"


def test_verdict_on_exact_counts():
    count = _run(4.001, 4.001, 4.001)
    assert verdict(count, _run(4.001, 4.001, 4.001), "lower", 0.0) \
        == "unchanged"
    assert verdict(count, _run(4.002, 4.002, 4.002), "lower", 0.0) == "worse"
    assert verdict(count, _run(3.0, 3.0, 3.0), "lower", 0.0) == "better"

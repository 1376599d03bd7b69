import pytest

from stats import (
    REF_NOMINAL_S,
    claim_gain,
    normalise,
    percentile,
    quartiles,
    relative_spread,
    scaled_setup_seconds,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, None),
        (39, None),
        (40, 75.0),
        (99, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond_and_forty_in_all(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(40, 2000, 7):
        p = tail_percentile(n)
        assert n * (1 - p / 100) >= 10 - 1e-9


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_setup_is_scaled_by_the_runs_median_reference_op():
    # a machine twice as slow doubles set-up and reference op alike
    fast = scaled_setup_seconds([1.0, 1.2, 5.0], [0.05, 0.1, 0.1, 0.3])
    slow = scaled_setup_seconds([2.0, 2.4, 10.0], [0.1, 0.2, 0.2, 0.6])
    assert fast == pytest.approx(12.0 * REF_NOMINAL_S)
    assert slow == pytest.approx(fast)
    with pytest.raises(ValueError):
        scaled_setup_seconds([1.0], [0.0])


def test_normalise_divides_each_op_by_its_own_reference():
    assert normalise([0.2, 0.4, 0.9], [0.1, 0.2, 0.3]) == pytest.approx([2.0, 2.0, 3.0])


def test_normalise_cancels_a_slower_machine():
    fast = normalise([0.2, 0.3], [0.1, 0.15])
    slow = normalise([0.4, 0.6], [0.2, 0.3])
    assert fast == pytest.approx(slow)


def test_normalise_rejects_mismatched_or_empty_references():
    with pytest.raises(ValueError):
        normalise([0.1, 0.2], [0.1])
    with pytest.raises(ValueError):
        normalise([0.1], [0.0])


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = quartiles(values)
    assert med == pytest.approx(5.5)
    assert relative_spread(values) == pytest.approx((q3 - q1) / med)
    assert relative_spread([2.0] * 5) == 0.0
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [p * 0.8 for p in parent]
    assert claim_gain(parent, faster, "lower")["claimed"]

    # wins every pair but by less than the parent's own spread
    slightly = [p - 0.001 for p in parent]
    verdict = claim_gain(parent, slightly, "lower")
    assert verdict["wins"] == 10 and not verdict["claimed"]

    # a large gap but only 8 of 10 pairs won
    mixed = faster[:8] + [2.0, 2.0]
    assert claim_gain(parent, mixed, "lower")["wins"] == 8
    assert not claim_gain(parent, mixed, "lower")["claimed"]


def test_claim_respects_direction_and_ties():
    parent = [1.0] * 10
    assert claim_gain(parent, [1.0] * 10, "lower")["wins"] == 0
    assert claim_gain(parent, [2.0] * 10, "higher")["claimed"]
    assert not claim_gain(parent, [2.0] * 10, "lower")["claimed"]

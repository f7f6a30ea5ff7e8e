"""The verdicts of tests/bench_pairs.py on canned readings."""

import pytest

from bench_pairs import quartiles, verdict

# lower-bound peak_rss_mb over ten alternating pairs: the parent reads
# about 65.7 MB, the blocked star samplers about 42.1 MB
PARENT_RSS = [65.76, 65.70, 65.73, 65.69, 65.75, 65.71, 65.74, 65.70, 65.72, 65.73]
CHANGE_RSS = [42.05, 42.13, 42.08, 42.20, 42.11, 42.07, 42.15, 42.09, 42.12, 42.10]


def test_quartiles():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_clear_gain():
    v = verdict(PARENT_RSS, CHANGE_RSS, "lower", 0.15)
    assert (v.wins, v.losses, v.pairs) == (10, 0, 10)
    assert v.gain and not v.worse
    assert v.parent[1] == pytest.approx(65.725) and v.change[1] == pytest.approx(42.105)


def test_the_same_readings_gain_nothing_where_higher_is_better():
    v = verdict(PARENT_RSS, CHANGE_RSS, "higher", 0.15)
    assert (v.wins, v.losses) == (0, 10)
    assert not v.gain and v.worse


def test_ties_count_for_neither_side():
    v = verdict([34048] * 10, [34048] * 10, "lower", 0.15)
    assert (v.wins, v.losses) == (0, 0)
    assert not v.gain and not v.worse


def test_eight_wins_of_ten_are_no_gain():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    v = verdict(parent, change, "lower", 0.25)
    assert (v.wins, v.losses) == (8, 2) and not v.gain
    v = verdict(parent, [0.5] * 9 + [1.5], "lower", 0.25)
    assert v.wins == 9 and v.gain


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # the change wins every pair, but by less than the parent's
    # interquartile range (0.2 s)
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [p - 0.1 for p in parent]
    v = verdict(parent, change, "lower", 0.25)
    assert v.wins == 10 and not v.gain and not v.worse
    # by more than it
    v = verdict(parent, [p - 0.3 for p in parent], "lower", 0.25)
    assert v.gain


def test_worse_means_past_the_bound():
    parent = [0.200] * 10
    assert not verdict(parent, [0.249] * 10, "lower", 0.25).worse
    assert verdict(parent, [0.251] * 10, "lower", 0.25).worse
    assert verdict(parent, [0.149] * 10, "higher", 0.25).worse


def test_unpaired_readings_are_refused():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.1)

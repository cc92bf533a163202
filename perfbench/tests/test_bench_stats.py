"""The op_s_tail percentile rule: the highest percentile with at least ten
samples beyond it."""

import pytest

from run import percentile, tail_percentile


@pytest.mark.parametrize("n, p", [(100, 90), (1000, 99), (57, 82), (40, 75),
                                  (20, 50), (11, 50), (5, 50)])
def test_tail_percentile(n, p):
    assert tail_percentile(n) == p


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_tail_leaves_ten_samples_beyond_and_is_highest(n):
    values = list(range(n))
    p = tail_percentile(n)
    beyond = sum(v > percentile(values, p) for v in values)
    assert beyond >= 10
    if p < 99:
        assert sum(v > percentile(values, p + 1) for v in values) < 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(values, 81) == 5.0
    assert percentile(values, 0) == 1.0

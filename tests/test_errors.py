import math

import numpy as np
import pytest

from monopole_lab.errors import gate


def test_gate_passes_values_within_the_closed_bounds():
    assert gate([0.1, 0.3, 0.2], high=0.5) == (True, 0.3)
    assert gate([0.1, 0.3, 0.2], high=0.25) == (False, 0.3)
    assert gate([1.0, 2.0], low=1.0, high=2.0) == (True, 2.0)
    assert gate(np.array([[0.5, 1.5]]), low=1.0) == (False, 1.5)
    assert gate(0.25, high=0.5) == (True, 0.25)


def test_gate_bounds_each_value_by_its_own_bounds():
    low, high = [1.0, -math.inf], [math.inf, 2.25]
    assert gate([1.5, 2.0], low, high) == (True, 2.0)
    assert gate([0.5, 2.0], low, high) == (False, 2.0)
    assert gate([1.5, 3.0], low, high) == (False, 3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_gate_fails_a_non_finite_value_in_any_row_whatever_the_bounds(bad, row):
    # Python's max(a, nan) is a, so a NaN past the first row used to pass
    values = [0.1, 0.3, 0.2]
    values[row] = bad
    passed, worst = gate(values)
    assert not passed
    # the largest value keeps a NaN
    assert math.isnan(worst) == math.isnan(bad)

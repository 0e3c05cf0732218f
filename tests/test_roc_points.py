"""ROC checks judge a point by its smaller root magnitude, not its real gauge."""
import pytest

import biqz.catalog as cat
from biqz import Biquaternion, OutsideROCError, transform
from biqz.algebra import root_magnitudes

# roots 100 and 0.5: real gauge sqrt(50) = 7.07, yet x**-n grows like 2**n
POINT = Biquaternion(50.25, 49.75j)


def test_point_has_small_root_but_large_gauge():
    big, small = root_magnitudes(POINT)
    assert abs(big - 100) < 1e-9 and abs(small - 0.5) < 1e-12
    assert POINT.real_norm() > 7


def test_closed_form_refuses_point_with_small_root():
    with pytest.raises(OutsideROCError):
        cat.const_one().eval(POINT)


def test_transform_refuses_point_with_small_root():
    with pytest.raises(OutsideROCError):
        transform(cat.const_one().sequence, POINT)


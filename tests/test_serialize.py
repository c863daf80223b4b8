import math

from hypothesis import example, given
from hypothesis import strategies as st

from ruwitness.serialize import fmt12, round12


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
@example(-2.2250738585072e-308)
@example(1e15 + 0.5)
@example(123456789012345678.0)
@example(-1.7976931348623157e308)
def test_round12_equals_the_parsed_fmt12(x):
    assert repr(round12(x)) == repr(float(fmt12(x)))

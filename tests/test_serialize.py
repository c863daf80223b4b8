import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ruwitness.serialize import dumps, fmt12, round12


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


# Strings that look like the separators dumps splices or replaces.
ADVERSARIAL = ("a{", "},\n  {", "},\n      {", "}, {", '"', "\n", "\\", "é", " ", "\x00", "")
TEXT = st.sampled_from(ADVERSARIAL) | st.text()
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
# Values of types that the stdlib prints by subclass or rejects outright.
ODD_SCALARS = (
    st.floats().map(np.float64)
    | st.booleans().map(np.bool_)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
)
RECORDS = st.lists(st.dictionaries(TEXT, SCALARS, min_size=1), min_size=1)


def _containers(children):
    return (
        st.lists(children)
        | st.dictionaries(TEXT, children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.integers(), children)
        | st.dictionaries(st.integers() | TEXT, children)  # mixed keys: sort_keys raises
        | RECORDS
    )


TREES = st.recursive(SCALARS | ODD_SCALARS, _containers, max_leaves=40)


def assert_matches_stdlib(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            dumps(obj)
        assert info.type is type(exc)
    else:
        assert dumps(obj) == want


@given(TREES)
@example({})
@example([])
@example(())
@example([{}])
@example([{}, {"a": 1}])
@example([{"a": 1}, {}])
@example({"": {"": [[], {}]}})
@example({1: "a", 2.5: None, None: [1]})
@example({1: "a", "b": 2})
@example({"a": [np.float64(0.1), True, np.bool_(False)]})
@example([[{"a{": "},\n      {", '"': "\n"}, {"é": math.nan}], (1, 2)])
@example([math.nan, [], math.inf, -math.inf, -0.0, 10**20, "é"])
def test_dumps_equals_stdlib_on_json_trees(obj):
    assert_matches_stdlib(obj)


@given(st.dictionaries(TEXT, RECORDS | SCALARS))
def test_dumps_equals_stdlib_on_lists_of_records(obj):
    assert_matches_stdlib({"rows": obj, "nested": [obj]})


def test_dumps_matches_stdlib_on_a_reference_cycle():
    cycle = []
    cycle.append({"self": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(cycle, indent=2, sort_keys=True)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)

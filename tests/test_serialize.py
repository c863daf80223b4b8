import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ruwitness.cover import GATE_DECOMPOSITIONS, minimal_settings
from ruwitness.protocol import EstimateResult, ShotPlan, result_json_obj
from ruwitness.robustness import sweep
from ruwitness.serialize import _column_texts, _fmt12_column, _records, _round12_column, _significands, dumps, fmt12, round12
from ruwitness.thresholds import threshold, threshold_json_obj


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


# 0.1234567890125 is a decimal tie at 12 digits; its float lies just off it.
TIE = float("0.1234567890125")
NEAR_TIES = (TIE, math.nextafter(TIE, 0.0), math.nextafter(TIE, 1.0))
KERNEL_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-11, 1.0, 1e22, *NEAR_TIES))
    | st.floats(min_value=0.0, max_value=2.2250738585072014e-308)  # subnormals
    | st.floats(min_value=1.0, max_value=1e40)
    | st.floats(min_value=9e-12, max_value=1.1e-11)
    | st.builds(lambda a, n: (2 * a + 1) / 2**n, st.integers(0, 2**40), st.integers(1, 80))  # dyadics
)


@given(st.lists(st.builds(math.copysign, KERNEL_FLOATS, st.sampled_from((1.0, -1.0))), max_size=40))
@example([*NEAR_TIES, -TIE, 0.0, -0.0, 5e-324, 1e-11, math.nextafter(1e-11, 0.0), 0.9999999999995, 1.0])
@example([(2 * a + 1) / 2**n for n in (13, 40, 41, 44) for a in (0, 1, 2, 1000)])
@example([10.0**-k * f for k in range(12) for f in (1 - 4e-13, 1 - 6e-13, 1 + 4e-13)])  # round up a decade
@example([math.nextafter(10.0**-k, d) for k in range(12) for d in (0.0, 1.0)])
def test_column_kernel_equals_the_scalar_route(values):
    assert _fmt12_column(values) == list(map(fmt12, values))
    assert list(map(repr, _round12_column(values))) == list(map(repr, map(round12, values)))


def test_kernel_sends_near_ties_to_the_scalar_route():
    ok = _significands(np.array([*NEAR_TIES, 0.3, 0.0, 1.0]))[3]
    assert ok.tolist() == [False, False, False, True, False, True]
    values = np.array([row.value for row in sweep("CZ", "amplitude_damping", 101)])
    assert _significands(values)[3].mean() > 0.99  # the fast path serves nearly all sweep values


# Strings that look like JSON separators, format templates or escapes.
ADVERSARIAL = ("a{", "},\n  {", "},\n      {", "}, {", '"', "\n", "\\", "é", " ", "\x00", "",
               "%", "%s", "{}", "{0}", "日本")
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


# The CLI's own small objects: threshold, simulate, witness --decomposition-out and --settings-out.
ROOTS = threshold("cz", "dephasing", "equal")  # two roots
SETTINGS = list(minimal_settings(GATE_DECOMPOSITIONS["CZ"]))


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
@example(threshold_json_obj("cz", "dephasing", "equal", []))
@example(threshold_json_obj("cz", "dephasing", "equal", ROOTS[:1]))
@example(threshold_json_obj("cz", "dephasing", "equal", ROOTS))
@example(result_json_obj(EstimateResult(-0.0441, 0.00731, ()), ShotPlan(5000, 11), SETTINGS))
@example(GATE_DECOMPOSITIONS["CNOT"].to_json_obj())
@example(SETTINGS)
@example(ROOTS)
@example(["XZ", "é", "", '"\n'])
@example([0, -1, 10**20, -(2**64)])
@example([True, False, True])
@example([None, None])
@example([0.5, -0.0, 0.0, 1e-300])
@example([0.0, -0.0, math.nan])
@example([-0.0, -0.0])
@example([1, True, 0, False])
@example([0.1])
@example(["one"])
@example({"a": [[1.5, -2.5], [3]], "b": [{"c": ["x", "y"]}]})
def test_dumps_equals_stdlib_on_json_trees(obj):
    assert_matches_stdlib(obj)


@given(st.dictionaries(TEXT, RECORDS | SCALARS))
def test_dumps_equals_stdlib_on_lists_of_records(obj):
    assert_matches_stdlib({"rows": obj, "nested": [obj]})


# One strategy per column type of the columnar record path: exact Python
# scalars, finite floats only.
COLUMNS = (
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16, 0.1]),
    st.integers() | st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**63)),
    st.booleans(),
    st.none(),
    TEXT,
)


@st.composite
def same_key_records(draw):
    """A nonempty list of records that share one key set, with one scalar type per column."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=5, unique=True))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    return draw(st.lists(st.fixed_dictionaries(dict(zip(keys, columns))), min_size=1, max_size=8))


@given(same_key_records())
@example([{"q1": 0.0, "q2": -0.0, "value": 5e-324, "detected": True},
          {"q1": 1e16, "q2": 1.0, "value": -0.5, "detected": False}])
@example([{"%": "%s", "{": "{}", '"': "\\", "\n": "é"}])
@example([{"n": 2**63}, {"n": -(2**64) - 1}, {"n": 0}])
@example([{"a": None}, {"a": None}])
def test_same_key_records_print_column_by_column(rows):
    assert _records(rows, "\n  ") is not None  # the strategy reaches the columnar path
    assert_matches_stdlib(rows)
    assert_matches_stdlib({"rows": rows, "nested": [[rows]]})


@pytest.mark.parametrize("rows", [
    [{"x": -0.0, "n": 1}, {"x": 0.0, "n": 2}, {"x": -0.0, "n": 3}, {"x": 0.5, "n": 4}],  # both zeros
    [{"v": (0.1, -0.25, 1e-300, 0.1 + 0.2)[i % 4], "w": float(i % 3), "n": i} for i in range(400)],  # repeats
], ids=["signed_zeros", "heavy_repeats"])
def test_float_columns_print_each_value_as_the_stdlib_does(rows):
    assert _records(rows, "\n  ") is not None
    assert_matches_stdlib(rows)
    assert_matches_stdlib({"rows": rows})


@pytest.mark.parametrize("rows", [
    [{"a": True}, {"a": 1}],  # bool and int mixed in one column
    [{"a": 0.5}, {"a": 1}],  # float and int mixed in one column
    [{"a": 0.5}, {"a": math.nan}],
    [{"a": math.inf}, {"a": 0.5}],
    [{"a": -math.inf}],
    [{"a": np.float64(0.5)}, {"a": np.float64(0.25)}],
    [{"a": 1}, {"b": 1}],  # same length, different keys
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 1}],
    [{}],
    [{}, {}],
    [{"a": [1]}, {"a": [2]}],
    [{"a": 1}, [1]],
    [np.array([1.0, 2.0])],  # the stdlib raises TypeError, not the array's ValueError
    [{1: "a"}, {1: "b"}],
], ids=repr)
def test_other_record_lists_take_the_generic_route(rows):
    assert _records(rows, "\n  ") is None
    assert_matches_stdlib(rows)
    assert_matches_stdlib({"rows": rows})


def test_an_oversized_int_column_raises_the_stdlib_error():
    assert_matches_stdlib([{"n": 10**5000}])


def test_dumps_matches_stdlib_on_a_reference_cycle():
    cycle = []
    cycle.append({"self": cycle})
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(cycle, indent=2, sort_keys=True)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)


@given(st.sampled_from(COLUMNS).flatmap(lambda column: st.lists(column, min_size=1, max_size=12)))
@example([0.0, -0.0, 5e-324])
def test_lists_of_one_scalar_type_print_item_by_item(items):
    assert _column_texts(items) is not None  # the strategy reaches the item path
    assert_matches_stdlib(items)
    assert_matches_stdlib({"nested": [items, {"deeper": items}]})

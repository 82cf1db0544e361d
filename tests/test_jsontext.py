"""The JSON writer gives exactly the bytes of ``json.dumps(obj, indent=2)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcpbox.jsontext import dumps

SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1)

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
ints = st.integers(min_value=-10 ** 60, max_value=10 ** 60)
strings = st.text() | st.sampled_from(
    ('"', "\\", 'a "quoted" word', "é∑😀", "\n\t\x00\x1f ", "],\n  [", ""))
scalars = st.none() | st.booleans() | ints | floats | strings
keys = strings | ints | floats | st.booleans() | st.none()

# Vectors and matrices as certificates hold them, also ragged, empty or of
# mixed types, and rows that are tuples.
numbers = floats | ints
vectors = st.lists(numbers, max_size=8)
matrices = st.lists(st.lists(numbers, min_size=1, max_size=5), max_size=5)
ragged = st.lists(st.lists(scalars, max_size=4) | scalars, max_size=6)
tuple_rows = st.lists(st.tuples(numbers, numbers), max_size=4)
arrays = vectors | matrices | ragged | tuple_rows

certificates = st.fixed_dictionaries(
    {"I": st.lists(st.integers(1, 9), max_size=4), "realization": matrices,
     "x": vectors},
    optional={"t": floats, "rho": floats, "strict_row": st.none() | ints})
reports = st.fixed_dictionaries({
    "property": strings, "holds": st.booleans(), "notes": st.lists(strings),
    "elapsed": floats, "certificate": st.none() | certificates})

values = st.recursive(
    scalars | arrays | certificates | reports,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], [1.0]], [{}], {"a": []}, [[1.0, 2.0], []], [[[1.0]]],
    [np.float64(1.5), [np.float64(-0.0)]], {1: 2, 2.5: 3, True: 4, None: 5},
])
def test_edge_shapes_and_subclasses(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [object(), [np.int64(1)], {"a": {1, 2}},
                                 {(1, 2): 3}])
def test_unserializable_input_raises_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        dumps(obj)

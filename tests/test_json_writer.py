"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

``cli._dump_json`` writes lists of numbers, rows of numbers and flat dicts
(non-empty, every value a scalar other than a string) with json's C encoder
and indents them by string replacement; everything else recurses in Python. Its text must equal the standard library's pure-Python indented
encoder byte for byte, and it must raise ``TypeError`` on the same inputs.
"""

import json
from enum import IntEnum

import numpy as np
import pytest

from biconcert.cli import _dump_json, main

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


class Code(IntEnum):  # an int subclass: json writes int.__repr__ of it
    OK = 0
    FAILED = 2


# Characters that would break a writer splitting or replacing JSON text.
AWKWARD = st.text(alphabet=st.sampled_from(list(',[]{}":\\/\n\t\x00\x1f\x7f é☃\U0001f600')))
TEXT = st.one_of(st.text(), AWKWARD)
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),  # past 2**64
    st.floats(),  # nan, inf, -inf and -0.0 included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-5, 1e16, 5e-324]),
    st.floats().map(np.float64),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=3),  # mixed key types: sorting can fail
    )


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=40)
# The shapes the C encoder takes: flat scalar lists and lists of scalar rows,
# some rows empty or holding strings, so that the text check must send them back.
ROWS = st.lists(st.one_of(st.lists(NUMBERS, max_size=4), st.lists(SCALARS, max_size=4).map(tuple)), max_size=6)


# Lists of dicts, most of them flat, the shape of check's per-node records.
FLAT_DICTS = st.lists(st.dictionaries(KEYS, st.one_of(st.none(), st.booleans(), NUMBERS), max_size=4), max_size=5)


def assert_same_as_json(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            _dump_json(obj)
        return
    assert _dump_json(obj) == want


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_matches_json_dumps_on_recursive_values(obj):
    assert_same_as_json(obj)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ROWS, st.lists(SCALARS, max_size=8), st.dictionaries(TEXT, ROWS, max_size=3), FLAT_DICTS,
                 st.dictionaries(TEXT, FLAT_DICTS, max_size=3)))
def test_matches_json_dumps_on_rows_and_flat_lists(obj):
    assert_same_as_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        [[]],
        [[], [1]],
        [[1], []],
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        [2**64, -(2**64) - 1, 10**30],
        [float("nan"), float("inf"), float("-inf"), -0.0],
        [[0, 1, -0.0], [float("nan"), 2, float("inf")]],
        (1, (2.5, 3), [4]),
        [["a,b", 1], ["[", "]"], ["{", "}", '"']],
        [[1, [2]], [3]],
        [[1, {}], [2]],
        {"é": "☃", "\n": "\\", '"': ",[]{}"},
        {1: "int", 2.5: "float"},
        {True: 1, None: 2},
        [np.float64(0.1), np.float64("nan")],
        [[np.float64(0.1), 1]],
        {"x": np.float64(-0.0)},
        np.float64(2.5),
        "top-level string",
        None,
        Code.FAILED,
        {"code": Code.OK, "codes": [Code.FAILED, 1]},
        # lists of flat dicts, as check's nodes, and dicts that must recurse
        [{"b": float("nan"), "a": float("inf"), "c": float("-inf")}, {"n": None, "t": True, "f": False, "i": 2**70}],
        {"nodes": [{"node": 0, "lambda3": 0.5}, {"node": 1, "lambda3": None}], "epsilon": 1e-4},
        [{"a": 1, "rows": [1, 2]}, {"b": 2}],
        [{}],
        [{"a": 1}, {}],
        [{1: 1, 2.5: 2, True: 3, None: 4}, {"k": -0.0}],
        [{"a\n},\n    {": 1, '"}': 2}],
        [{"x": np.float64(0.5)}],
        [{"s": "text"}],
    ],
)
def test_matches_json_dumps_on_edge_cases(obj):
    assert_same_as_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(3),
        [np.int64(3)],
        [[0, np.int64(1), 1.0]],
        {"n": np.int64(3)},
        np.bool_(True),
        [np.bool_(False)],
        [[np.bool_(True)]],
        {"flag": np.bool_(True)},
        {1: "a", "b": 2},
        {(1, 2): 3},
        [object()],
        [{"flag": np.bool_(True)}],
        [{1: 1, "b": 2}],  # flat: the C encoder sorts the keys
    ],
)
def test_raises_type_error_where_json_dumps_does(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _dump_json(obj)


def test_cli_documents_are_the_bytes_json_dumps_writes(tmp_path):
    graph, report, suite = tmp_path / "g.json", tmp_path / "r.json", tmp_path / "v.json"
    assert main(["gen", "--n", "200", "--seed", "1", "--radius", "0.14", "--output", str(graph)]) == 0
    assert main(["check", "--input", str(graph), "--oracle", "--output", str(report)]) in (0, 2)
    assert main(["verify", "--seed", "1", "--graphs", "5", "--trials", "5", "--output", str(suite)]) in (0, 2)
    for path in (graph, report, suite):
        text = path.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

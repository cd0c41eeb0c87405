"""Property test of the CLI's input handling: any small JSON object over the
input keys exits 0, 1 or 2 from every input-reading subcommand, never with
a traceback.

Integers stay in -2..8 and lists stay short, so every matroid read has at
most 8 elements and every input is cheap: ``blocks`` takes at most two
blocks of at most 4 elements, or one block from the junk values.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from matroidbetti.cli import main  # noqa: E402

SMALL = st.integers(-2, 8)
JUNK = st.recursive(
    st.one_of(SMALL, st.booleans(), st.none(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3,
)
PAIR = st.lists(SMALL, min_size=2, max_size=2)
VERTEX_PAIR = st.lists(st.integers(1, 4), min_size=2, max_size=2)
# Values of about the right shape for each key.
SHAPED = {
    "vertices": SMALL,
    "edges": st.lists(PAIR, max_size=8),
    "uniform": PAIR,
    "blocks": st.lists(st.lists(st.integers(-2, 4), min_size=2, max_size=2), max_size=2),
    "bases": st.lists(st.lists(SMALL, max_size=4), max_size=4),
    "n": SMALL,
}
INPUTS = st.one_of(
    # any mix of keys, each holding a shaped value or junk
    st.fixed_dictionaries({}, optional={k: v | JUNK for k, v in SHAPED.items()}),
    # one input kind, shaped
    st.fixed_dictionaries({k: SHAPED[k] for k in ("vertices", "edges")}),
    st.fixed_dictionaries({"vertices": st.just(4), "edges": st.lists(VERTEX_PAIR, max_size=8)}),
    st.fixed_dictionaries({"uniform": SHAPED["uniform"]}),
    st.fixed_dictionaries({"blocks": SHAPED["blocks"]}),
    st.fixed_dictionaries({k: SHAPED[k] for k in ("n", "bases")}),
)
COMMANDS = (
    ["betti"],
    ["betti", "--crosscheck"],
    ["betti", "--fine"],
    ["weights", "--crosscheck"],
    ["blocks"],
    ["cactus"],
    ["dual-d1"],
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(INPUTS)
def test_any_small_input_exits_cleanly(data):
    source = json.dumps(data)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--input", source])
        assert code in (0, 1, 2), (command, source, err.getvalue())
        assert (code == 0) == (err.getvalue() == ""), (command, source)

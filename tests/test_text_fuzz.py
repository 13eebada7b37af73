"""Property tests over the text entry points, on text near their formats.

Most tests start from a valid text, split it into lines of tokens and
make up to four edits: a token replaced, dropped or added, a line
dropped or repeated, or a blank, comment or junk line put in.  The odd
tokens are numbers out of range, ``nan``/``inf``/``-0``, huge integers,
exponents, separators and non-ASCII text.  Whatever the text, each
call returns or raises its documented error.

Exponents stay within ``e±400``.  ``parse_spec`` reads a ratio with
``Fraction``, which expands the exponent into an exact integer, so a
ratio such as ``1e-999999999`` does not return in any useful time;
that is an open defect, not a documented error.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import (
    EdpInstance,
    GraphFormatError,
    GraphValidationError,
    SearchConfig,
    commodities_to_text,
    generate_commodities,
    graph_to_text,
    load_commodities,
    load_graph,
    parse_spec,
    solution_to_dump,
    solve_ls,
    solve_msga,
    verify_dump,
)

import oracles

ODD_TOKENS = [
    "-1", "-0", "+1", "0", "1", "2", "3", "7", "99", "nan", "-nan", "inf",
    "-inf", "Infinity", "1e400", "1e-400", "2E3", "0.5", "1.", ".5", "0.10",
    "1/3", "1/0", "1_0", "0x1", "9" * 30, "1" + "0" * 5000, "٣", "１",
    "é", "∞", "#", "=", ",", ":", "x", "mesh:2x2", "ls", "msga",
]

EDITS = ("replace", "drop", "add", "drop line", "repeat line", "insert line")


@st.composite
def near(draw, text, joiner=" "):
    """``text`` split into lines of whitespace-separated tokens, given
    up to four edits, and joined back with ``joiner`` between tokens
    and a drawn line end after each line."""
    lines = [line.split() for line in text.splitlines()]
    token = st.one_of(st.sampled_from(ODD_TOKENS),
                      st.integers(-10 ** 40, 10 ** 40).map(str),
                      st.text(max_size=3))
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(EDITS))
        i = draw(st.integers(0, len(lines)))
        if edit == "insert line" or i == len(lines):
            lines.insert(i, draw(st.just(["#", "note"]) | st.lists(token, max_size=2)))
            continue
        if edit == "drop line":
            del lines[i]
        elif edit == "repeat line":
            lines.insert(i, list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines[i])))
            if edit == "add":
                lines[i].insert(j, draw(token))
            elif j < len(lines[i]):
                if edit == "drop":
                    del lines[i][j]
                else:
                    lines[i][j] = draw(token)
    end = draw(st.sampled_from(["\n", "\r\n", "\u2028"]))
    return end.join(joiner.join(tokens) for tokens in lines) + end


def _instance(seed):
    rng = random.Random(seed)
    g = oracles.random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 6))
    k = rng.randint(1, g.node_count)
    return EdpInstance(g, tuple(generate_commodities(g, k, seed)))


@lru_cache(maxsize=None)  # seeds 0..39, two solvers
def _dump(seed, solver):
    inst = _instance(seed)
    solution, _ = solver(inst, SearchConfig(seed=seed, iter_cap=3))
    return solution_to_dump(solution, inst)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 39), data=st.data())
def test_graph_text_loads_or_raises_a_graph_error(seed, data):
    g = _instance(seed).graph
    text = data.draw(near(graph_to_text(g)))
    try:
        loaded = load_graph(text)
    except (GraphFormatError, GraphValidationError):
        return
    again = load_graph(graph_to_text(loaded))
    assert (again.edges, again.weights) == (loaded.edges, loaded.weights)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 39), data=st.data())
def test_commodity_text_loads_or_raises_a_format_error(seed, data):
    inst = _instance(seed)
    text = data.draw(near(commodities_to_text(inst.commodities)))
    try:
        commodities = load_commodities(text, inst.graph)
    except GraphFormatError:
        return
    assert all(0 <= node < inst.graph.node_count
               for c in commodities for node in (c.source, c.target))


SPEC = """graph = mesh:3x3
graph = random:6,8,1
ratios = 0.10 , 0.25
instances = 2
time_limit = 1.5
iter_cap = 4
seed = 1
solvers = ls , msga
jobs = 1
"""


SPEC_KEYS = ["graph", "ratios", "instances", "time_limit", "iter_cap", "seed",
             "solvers", "jobs", "bogus", ""]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spec_text_parses_or_raises_a_value_error(data):
    text = data.draw(near(SPEC, joiner=data.draw(st.sampled_from(["", " "]))))
    try:
        parse_spec(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SPEC_KEYS),
                          st.lists(st.sampled_from(ODD_TOKENS), max_size=3)),
                max_size=8))
def test_spec_lines_of_odd_values_parse_or_raise_a_value_error(lines):
    text = "".join(f"{key}={','.join(values)}\n" for key, values in lines)
    try:
        parse_spec(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 39), solver=st.sampled_from([solve_ls, solve_msga]),
       data=st.data())
def test_a_dump_near_a_valid_one_always_gets_a_list_of_problems(seed, solver, data):
    text = data.draw(near(_dump(seed, solver)))
    problems = verify_dump(text, _instance(seed))
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       solver=st.sampled_from([solve_ls, solve_msga]))
def test_every_solver_dump_verifies(seed, solver):
    inst = _instance(seed)
    solution, _ = solver(inst, SearchConfig(seed=seed, iter_cap=3))
    assert verify_dump(solution_to_dump(solution, inst), inst) == []

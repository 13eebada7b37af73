"""Property tests over the text entry points, on text near their formats.

Most tests start from a valid text, split it into lines of tokens and
make up to four edits: a token replaced, dropped or added, a line
dropped or repeated, or a blank, comment or junk line put in.  The odd
tokens are numbers out of range, ``nan``/``inf``/``-0``, huge integers,
exponents, separators and non-ASCII text.  Whatever the text, each
call returns or raises its documented error.

The last property runs ``cli.main`` on such files with valid flags:
every run exits 0, 1 or 3, prints no traceback and leaves its input
files as they were.
"""

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from treeroute import cli
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
    "-inf", "Infinity", "1e400", "1e-400", "1e-999999999", "2E3", "0.5",
    "1.", ".5", "0.10", "1/3", "1/0", "1_0", "0x1", "9" * 30,
    "1" + "0" * 5000, "٣", "１", "é", "∞", "#", "=", ",", ":", "x",
    "mesh:2x2", "ls", "msga",
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


# a small valid spec and lines to add to it; every value keeps a run
# cheap, so the property never starts a long benchmark, and jobs stays
# at 1 so it starts no worker processes
CLI_SPEC = "time_limit=0.01\ngraph=mesh:3x3\nratios=0.5\ninstances=1\niter_cap=2\n"

CLI_SPEC_LINES = [
    "graph=mesh:3x3", "graph=mesh:2x2", "graph=mesh:1x3", "graph=mesh:0x0",
    "graph=random:5,6,1", "graph=random:1,0,0", "graph=random:4,9,2",
    "graph=random:3,1,0", "graph=GRAPH", "graph=missing.txt", "graph=",
    "ratios=0.5", "ratios=0.25,0.5", "ratios=1", "ratios=0", "ratios=2",
    "ratios=1/0", "ratios=1e-999999999", "ratios=nan", "ratios=,",
    "instances=1", "instances=2", "instances=0", "instances=-1",
    "iter_cap=0", "iter_cap=2", "iter_cap=-1", "iter_cap=x",
    "time_limit=0.01", "time_limit=0", "time_limit=nan", "time_limit=inf",
    "seed=0", "seed=-3", "seed=x",
    "solvers=ls", "solvers=msga", "solvers=ls,ls", "solvers=greedy",
    "jobs=1", "jobs=0", "jobs=x", "bogus=1", "no equals sign", "# note",
]

CLI_COMMANDS = ("solve", "verify", "generate", "bench")


def _cli_argv(command, d, graph, commodities, dump, spec, solver):
    if command == "solve":
        return ["solve", "--graph", graph, "--commodities", commodities,
                "--solver", solver, "--iter-cap", "2", "--out", d / "out.txt"]
    if command == "verify":
        return ["verify", "--graph", graph, "--commodities", commodities,
                "--dump", dump]
    if command == "generate":
        return ["generate", "commodities", "--graph", graph, "--count", "3",
                "--out", d / "out.txt"]
    return ["bench", "--spec", spec, "--out", d / "o.csv"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 39), command=st.sampled_from(CLI_COMMANDS),
       solver=st.sampled_from(["ls", "msga"]), data=st.data())
def test_the_command_line_exits_0_1_or_3_and_keeps_its_inputs(seed, command,
                                                              solver, data):
    inst = _instance(seed)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        files = {
            "g.txt": data.draw(near(graph_to_text(inst.graph))),
            "c.txt": data.draw(near(commodities_to_text(inst.commodities))),
            "d.txt": data.draw(near(_dump(seed, solve_ls if solver == "ls"
                                          else solve_msga))),
        }
        graph, commodities, dump = (d / name for name in files)
        lines = data.draw(st.lists(st.sampled_from(CLI_SPEC_LINES), max_size=3))
        files["bench.spec"] = CLI_SPEC + "".join(
            line.replace("GRAPH", str(graph)) + "\n" for line in lines)
        for name, text in files.items():
            (d / name).write_text(text, encoding="utf-8")
        inputs = {p: p.read_bytes() for p in d.iterdir()}
        argv = _cli_argv(command, d, graph, commodities, dump,
                         d / "bench.spec", solver)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_VERIFY_FAILED)
        assert "Traceback" not in err.getvalue()
        assert {p: p.read_bytes() for p in inputs} == inputs

import pytest

from treeroute import cli, parse_spec, run_benchmark


def _main(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def instance(tmp_path):
    graph = tmp_path / "g.txt"
    comm = tmp_path / "c.txt"
    assert _main("generate", "mesh", "--width", 4, "--height", 4,
                 "--out", graph) == cli.EXIT_OK
    assert _main("generate", "commodities", "--graph", graph, "--count", 5,
                 "--seed", 1, "--out", comm) == cli.EXIT_OK
    return graph, comm


def test_generate_solve_verify_round_trip(instance, tmp_path, capsys):
    graph, comm = instance
    dump = tmp_path / "d.txt"
    assert _main("solve", "--graph", graph, "--commodities", comm,
                 "--iter-cap", 10, "--out", dump) == cli.EXIT_OK
    assert _main("verify", "--graph", graph, "--commodities", comm,
                 "--dump", dump) == cli.EXIT_OK
    assert capsys.readouterr().out.strip().endswith("verify: ok")


def test_tampered_dump_fails_verification(instance, tmp_path, capsys):
    graph, comm = instance
    dump = tmp_path / "d.txt"
    assert _main("solve", "--graph", graph, "--commodities", comm,
                 "--solver", "msga", "--iter-cap", 3, "--out", dump) == cli.EXIT_OK
    text = dump.read_text()
    dump.write_text(text.replace("objective=", "objective=9"))
    assert _main("verify", "--graph", graph, "--commodities", comm,
                 "--dump", dump) == cli.EXIT_VERIFY_FAILED
    assert "verify: summary says" in capsys.readouterr().err


def _file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


def _spec(directory, text):
    return _file(directory, "bench.spec", text)


# argv builders taking (graph file, commodity file, scratch directory)
BAD_INPUT = {
    "missing file": lambda g, c, d: (
        "solve", "--graph", d / "missing.txt", "--commodities", c),
    "impossible graph header": lambda g, c, d: (
        "solve", "--graph", _file(d, "huge.txt", "1000000000 0\n"),
        "--commodities", c),
    "overflowing graph weight": lambda g, c, d: (
        "solve", "--graph", _file(d, "big.txt", "2 1\n0 1 1e999999999\n"),
        "--commodities", _file(d, "c1.txt", "1\n0 1\n")),
    "underflowing graph weight": lambda g, c, d: (
        "solve", "--graph", _file(d, "tiny.txt", "2 1\n0 1 1e-999999999\n"),
        "--commodities", _file(d, "c1.txt", "1\n0 1\n")),
    "nan time limit": lambda g, c, d: (
        "solve", "--graph", g, "--commodities", c, "--time-limit", "nan"),
    "ratio 1/0": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=1/0\n"),
        "--out", d / "o.csv"),
    "duplicate spec graph": lambda g, c, d: (
        "bench", "--spec",
        _spec(d, "graph=mesh:3x3\ngraph=mesh:3x3\nratios=0.5\ninstances=1\n"
                 "iter_cap=1\n"),
        "--out", d / "o.csv"),
    "non-integer spec instances": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=0.5\ninstances=x\n"),
        "--out", d / "o.csv"),
    "commented spec instances": lambda g, c, d: (
        "bench", "--spec",
        _spec(d, "# one cell\n\ngraph=mesh:3x3\n  \n  # ratio\nratios=0.5\n"
                 "instances=x\n"),
        "--out", d / "o.csv"),
    "empty spec ratios": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=,\n"),
        "--out", d / "o.csv"),
    "blank spec ratios": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=\n"),
        "--out", d / "o.csv"),
    "non-numeric spec ratio": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=abc\n"),
        "--out", d / "o.csv"),
    "nan spec time limit": lambda g, c, d: (
        "bench", "--spec",
        _spec(d, "graph=mesh:3x3\nratios=0.5\ninstances=1\ntime_limit=nan\n"),
        "--out", d / "o.csv"),
    "raw-out equals out": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=0.5\ninstances=1\n"
                                    "iter_cap=1\n"),
        "--out", d / "o.csv", "--raw-out", d / "o.csv"),
}

# what the message must name, for the cases that pin it
BAD_INPUT_NAMES = {
    "non-integer spec instances": "spec line 3: instances=x: ",
    "commented spec instances": "spec line 7: instances=x: ",
    "non-numeric spec ratio": "spec line 2: ratios=abc: ",
    "empty spec ratios": "needs at least one commodity ratio",
    "blank spec ratios": "needs at least one commodity ratio",
    "overflowing graph weight": "line 2: bad weight '1e999999999'",
    "underflowing graph weight": "line 2: bad weight '1e-999999999'",
    "raw-out equals out": "would overwrite --out",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_1_with_message(case, instance, tmp_path, capsys):
    argv = BAD_INPUT[case](*instance, tmp_path)
    capsys.readouterr()
    assert _main(*argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert BAD_INPUT_NAMES.get(case, "") in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        _main("frobnicate")
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


BENCH_SPEC = "graph=mesh:3x3\nratios=0.5\ninstances=2\niter_cap=3\nsolvers=ls,msga\n"


@pytest.mark.parametrize("out,raw_out,raw_written", [
    ("agg.csv", "runs.csv", "runs.csv"),
    ("agg.csv", None, "agg.raw.csv"),
    ("agg", None, "agg.raw.csv"),
], ids=["raw-out", "csv-suffix", "no-suffix"])
def test_bench_writes_aggregate_and_raw_csv(out, raw_out, raw_written, tmp_path,
                                            capsys):
    expected = run_benchmark(parse_spec(BENCH_SPEC))
    argv = ["bench", "--spec", _spec(tmp_path, BENCH_SPEC), "--out", tmp_path / out]
    if raw_out is not None:
        argv += ["--raw-out", tmp_path / raw_out]
    capsys.readouterr()
    assert _main(*argv) == cli.EXIT_OK
    assert capsys.readouterr().out == expected.aggregate_csv()
    assert (tmp_path / out).read_text() == expected.aggregate_csv()
    assert (tmp_path / raw_written).read_text() == expected.raw_csv()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["bench.spec", out, raw_written])

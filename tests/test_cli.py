import pytest

from treeroute import cli


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
    "nan time limit": lambda g, c, d: (
        "solve", "--graph", g, "--commodities", c, "--time-limit", "nan"),
    "ratio 1/0": lambda g, c, d: (
        "bench", "--spec", _spec(d, "graph=mesh:3x3\nratios=1/0\n"),
        "--out", d / "o.csv"),
    "nan spec time limit": lambda g, c, d: (
        "bench", "--spec",
        _spec(d, "graph=mesh:3x3\nratios=0.5\ninstances=1\ntime_limit=nan\n"),
        "--out", d / "o.csv"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_1_with_message(case, instance, tmp_path, capsys):
    argv = BAD_INPUT[case](*instance, tmp_path)
    capsys.readouterr()
    assert _main(*argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        _main("frobnicate")
    assert exc.value.code == cli.EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err

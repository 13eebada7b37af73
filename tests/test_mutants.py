import re
from pathlib import Path

from mutants import MUTANTS, _OUTCOME_RE

ROOT = Path(__file__).parents[1]


def test_every_mutant_names_one_text_and_existing_tests():
    # a change that moves or rewrites mutated code, or renames a killing
    # test, must update its entry in tests/mutants.py
    problems = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if not m.killers:
            problems.append(f"{m.name}: no killing test")
        for test_id in m.killers:
            path, *_, name = test_id.split("::")
            name = name.split("[")[0]
            if not re.search(rf"^\s*def {name}\(", (ROOT / path).read_text(), re.M):
                problems.append(f"{m.name}: no test {test_id}")
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert problems == []


def test_outcome_lines_are_read_with_whole_ids():
    # -rA summary lines: an id may hold a space, and a failed or erroring
    # test's line goes on with " - " and its message
    out = (
        "PASSED tests/test_a.py::test_x\n"
        "FAILED tests/test_cli.py::test_bad[ratio 1/0] - AssertionError: "
        "assert 'a - b' in ''\n"
        "ERROR tests/test_b.py::TestC::test_y[two words] - fixture 'f' not found\n"
        "FAILED tests/test_b.py::test_z\n"
        "    PASSED is not at the start of a line\n"
    )
    assert _OUTCOME_RE.findall(out) == [
        ("PASSED", "tests/test_a.py::test_x"),
        ("FAILED", "tests/test_cli.py::test_bad[ratio 1/0]"),
        ("ERROR", "tests/test_b.py::TestC::test_y[two words]"),
        ("FAILED", "tests/test_b.py::test_z"),
    ]

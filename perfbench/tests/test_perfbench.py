"""Tests of the benchmark's own code: metric names, checks, seeds, tracing."""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import treeroute.edp as edp  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.harness import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    run_traced,
    run_untraced,
)
from perfbench.tracer import _PATCHES, Tracer, installed  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    build_instances,
    instances_digest,
    solve_checked,
)

TINY_LS = Workload("tiny-ls", "ls", "mesh:6x6", "0.25", 2, 8, 0.05)
TINY_MSGA = Workload("tiny-msga", "msga", "mesh:6x6", "0.25", 2, 3, 0.05)


def _originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr, *_ in _PATCHES}


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_untraced_run_reports_every_end_to_end_metric():
    result = run_untraced(TINY_LS, seed=1, seconds=0)
    assert result.correct, result.notes
    assert result.failed == 0
    assert result.attempted == 2 * TINY_LS.instances + 1
    assert set(result.metrics) == set(END_TO_END_UNITS)
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.parametrize("workload", [TINY_LS, TINY_MSGA], ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric_and_restores(workload):
    before = _originals()
    result = run_traced(workload, seed=2)
    assert result.correct, result.notes
    assert set(result.metrics) == set(PER_LAYER_UNITS)
    assert _originals() == before
    bfs = result.metrics["graph.shortest_path_avoiding.calls"]
    if workload.solver == "ls":
        assert result.metrics["search.explore_one_move.calls"] > 0
        assert result.metrics["treevar.simulate_path.calls"] > 0
    else:
        assert result.metrics["search.explore_one_move.calls"] == 0
        assert bfs == workload.instances * workload.iter_cap * 9


def test_wrappers_are_installed_in_the_block_and_restored_after_an_error():
    original = edp.shortest_path_avoiding
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            assert edp.shortest_path_avoiding is not original
            raise RuntimeError("boom")
    assert edp.shortest_path_avoiding is original


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))
    parent = tracer.wrap("parent", child)
    parent()
    p, c = tracer.span("parent"), tracer.span("child")
    assert p.calls == c.calls == 1
    assert c.self_s == c.total_s >= 0.02
    assert p.self_s == pytest.approx(p.total_s - c.total_s)


def test_capped_solves_repeat_their_fingerprint():
    (s, inst), _ = build_instances(TINY_LS, 3)
    first = solve_checked(TINY_LS, inst, s, capped=True)
    again = solve_checked(TINY_LS, inst, s, capped=True)
    assert first.ok
    assert first.fingerprint == again.fingerprint


def test_seed_changes_the_instances():
    digest = {seed: instances_digest(build_instances(TINY_LS, seed))
              for seed in (0, 1)}
    assert instances_digest(build_instances(TINY_LS, 0)) == digest[0]
    assert digest[0] != digest[1]


def test_shared_cells_give_ls_and_msga_identical_instances():
    ls, msga = WORKLOADS["ls-mesh25-dense"], WORKLOADS["msga-mesh25-dense"]
    assert (ls.graph, ls.ratio, ls.instances) == (msga.graph, msga.ratio, msga.instances)


def test_a_wrong_objective_counts_as_a_failed_solve(monkeypatch):
    real = workloads.solve_ls

    def off_by_one(inst, cfg):
        solution, trace = real(inst, cfg)
        solution.objective += 1
        return solution, trace

    monkeypatch.setattr(workloads, "solve_ls", off_by_one)
    (s, inst), _ = build_instances(TINY_LS, 0)
    assert not solve_checked(TINY_LS, inst, s, capped=True).ok

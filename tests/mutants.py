"""Named mutants of ``src/``, each with the tests that kill it.

A mutant replaces one exact text of a ``src/`` file with another, and
the tests it names fail on the mutated code: each was seen to fail
when the mutant was applied to a copy of the tree.  Test ids are
pytest node ids from the repository root; an id without a parameter
stands for all of its parameters.  ``test_mutants.py`` checks that
every old text occurs exactly once in its file, so a change that moves
mutated code updates the entry with it.

Run every mutant from the repository root with::

    python -m tests.mutants

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, turns hypothesis shrinking and its example
database off in the copy, and applies one mutant at a time.  For each
it runs only the mutant's tests, in one pytest process with a timeout
of ``TIMEOUT_S`` (a mutant may make a scan loop for ever; a process
that times out counts as killed).  A mutant survives when none of its
tests fails, and an entry is stale when one of its tests passes.  The
exit status is 1 if any mutant survives or any entry is stale.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # from the repository root
    old: str
    new: str
    killers: tuple[str, ...]


TREEVAR = "src/treeroute/treevar.py"
EDP = "src/treeroute/edp.py"
OBJECTIVES = "src/treeroute/objectives.py"
GRAPH = "src/treeroute/graph.py"
BENCH = "src/treeroute/bench.py"
SEARCH = "src/treeroute/search.py"

# the index against a recount from the father lists
R = "tests/test_treevar.py::test_preferred_moves_match_a_recount_from_the_fathers"
# random_tree's draws against random.shuffle on the root of a star of degree d
W = "tests/test_treevar.py::test_random_fathers_redraw_and_order_as_random_shuffle[{}]"
TREES = "tests/test_treevar.py::test_random_trees_draw_as_random_shuffle"
# solve_ls's evaluation skips against the reference solver
E = "tests/test_edp.py::test_evaluation_skips_match_the_reference_solver"
T = "tests/test_edp.py::test_every_evaluation_skip_is_taken"
# the constraint's kept state against a recount from its paths
STATE = "tests/test_objectives.py::test_disjointness_state_matches_a_recount"
# verify_dump on a dump of the two-commodity instance
V = "tests/test_edp.py::test_verify_dump_checks_the_paths[{}]"
# verify_dump's reports on malformed dump lines
VR = "tests/test_edp.py::test_verify_dump_reports[{}]"
# validate on a tree whose father lists were corrupted in place
BAD = "tests/test_treevar.py::test_validate_rejects_corrupted_father_lists[{}]"
# the capped solvers against their reference solvers
LS = "tests/test_edp.py::test_capped_ls_matches_the_reference_solver"
MSGA = "tests/test_edp.py::test_capped_msga_matches_the_reference_solver"
EXTRACT = "tests/test_edp.py::test_extract_disjoint_matches_the_reference"

MUTANTS = (
    Mutant(
        "apply keeps e_in in the non-tree list", TREEVAR,
        "            del nontree[bisect_left(nontree, move.e_in)]\n",
        "",
        (R,)),
    Mutant(
        "apply leaves e_out out of the non-tree list", TREEVAR,
        "            insort(nontree, move.e_out)\n",
        "",
        (R,)),
    Mutant(
        "reinit_random keeps its non-tree list", TREEVAR,
        "            self.graph, self.root, rng)\n        self._bump()\n",
        "            self.graph, self.root, rng)\n        self._bump(self._nontree)\n",
        (R,)),
    Mutant(
        "join taken from a father whose join is unknown", TREEVAR,
        "            if hit >= 0:\n",
        "            if hit >= -1:\n",
        (R,)),
    # the scan then loops for ever on a negative b - a
    Mutant(
        "join positions left unsorted", TREEVAR,
        "            if a > b:\n"
        "                a, b = b, a\n",
        "",
        (R, "tests/test_objectives.py::test_disjointness_predicate_is_sound")),
    Mutant(
        "stretch one edge too long", TREEVAR,
        "preferred.append((e_in, a, b))",
        "preferred.append((e_in, a, b + 1))",
        (R, "tests/test_objectives.py::TestImproves::test_every_predicate_is_exact")),
    Mutant(
        "two bits on the first degree-4 step", TREEVAR,
        "j = getrandbits(3)\n"
        "                while j > 3:",
        "j = getrandbits(2)\n"
        "                while j > 3:",
        (W.format(4), TREES)),
    Mutant(
        "last degree-4 step accepts 2", TREEVAR,
        "                order = order[j]\n"
        "                j = getrandbits(2)\n"
        "                while j > 1:",
        "                order = order[j]\n"
        "                j = getrandbits(2)\n"
        "                while j > 2:",
        (W.format(4), R)),
    Mutant(
        "last degree-3 step accepts 2", TREEVAR,
        "                order = _T3[j]\n"
        "                j = getrandbits(2)\n"
        "                while j > 1:",
        "                order = _T3[j]\n"
        "                j = getrandbits(2)\n"
        "                while j > 2:",
        (W.format(3), R)),
    Mutant(
        "degree-3 and degree-4 tries swapped", TREEVAR,
        "_T3, _T4 = _SHUFFLE_TRIES[3], _SHUFFLE_TRIES[4]",
        "_T4, _T3 = _SHUFFLE_TRIES[3], _SHUFFLE_TRIES[4]",
        (W.format(3), W.format(4), TREES)),
    Mutant(
        "shuffle redraws an accepted j == i", TREEVAR,
        "        while j > i:\n"
        "            j = getrandbits(bits)\n"
        "        order[i], order[j] = order[j], order[i]",
        "        while j >= i:\n"
        "            j = getrandbits(bits)\n"
        "        order[i], order[j] = order[j], order[i]",
        ("tests/test_treevar.py::test_shuffle_draws_as_random_shuffle[0]",
         W.format(6), W.format(9), TREES,
         "tests/test_search.py::test_filtered_scan_draws_and_decides_as_the_reference")),
    # the guard keeps the first evaluation from raising
    Mutant(
        "kept paths compared by index only", EDP,
        "if kept == last_kept:",
        "if last_kept is not None and list(kept) == list(last_kept):",
        (E, T, "tests/test_golden.py::test_capped_ls_digest[mesh:10x10-0.40-1]",
         "tests/test_golden.py::test_capped_ls_digest_at_sparse_benchmark_scale")),
    Mutant(
        "all-routed skip one commodity early", EDP,
        "best.objective == inst.k:",
        "best.objective >= inst.k - 1:",
        (E, T, "tests/test_golden.py::test_capped_ls_digest[mesh:6x6-0.25-0]")),
    Mutant(
        "evaluate_assignment without its length check", EDP,
        "    if len(paths) != len(commodities):\n"
        "        raise ValueError(\n"
        "            f\"{len(paths)} paths for {len(commodities)} commodities\")\n",
        "",
        ("tests/test_edp.py::test_evaluate_assignment_needs_one_path_per_commodity",)),
    # a path whose overlap fell to 0 is then dropped
    Mutant(
        "stale re-push without its guard", OBJECTIVES,
        "            if now:\n"
        "                heapq.heappush(heap, -(now * k + d))\n",
        "            heapq.heappush(heap, -(now * k + d))\n",
        (EXTRACT, LS, E, T)),
    Mutant(
        "verify_dump passes a shared edge", EDP,
        "if eid in used_edges:",
        "if False:",
        (V.format("shared-edge"),)),
    Mutant(
        "verify_dump passes a revisited node", EDP,
        "if len(set(nodes)) != len(nodes):",
        "if False:",
        (V.format("revisited-node"),)),
    Mutant(
        "verify_dump passes a hop between non-adjacent nodes", EDP,
        "if eid is None:",
        "if False:",
        (V.format("missing-edge"),)),
    Mutant(
        "_remove_path without its XOR", OBJECTIVES,
        "        loads[e] = load\n"
        "        holders[e] ^= i\n"
        "        if load == 1:\n",
        "        loads[e] = load\n"
        "        if load == 1:\n",
        (STATE, EXTRACT, LS)),
    Mutant(
        "_update without the removed path's overlap", OBJECTIVES,
        "violation = self._violation - overlap[i]",
        "violation = self._violation",
        (STATE, "tests/test_objectives.py::TestPathEdgeDisjoint::"
                "test_commit_consistency_randomized", LS)),
    Mutant(
        "simulate_path keeps the detached chain unreversed", TREEVAR,
        "        chain_in.reverse()\n",
        "",
        ("tests/test_treevar.py::TestSimulatePath::test_matches_apply_on_random_meshes",)),
    Mutant(
        "validate without the father-list comparison", TREEVAR,
        "        if fathers != (self._father_node, self._father_edge):\n"
        "            raise AssertionError(\"father lists differ from the tree's own edges\")\n",
        "",
        (BAD.format("root-takes-a-childs-father"), BAD.format("wrong-father-node"))),
    Mutant(
        "validate swallows the ValueError", TREEVAR,
        "            raise AssertionError(f\"father edges do not span: {exc}\") from exc\n",
        "            return\n",
        (BAD.format("no-father-edge"), BAD.format("father-edge-past-edge-count"),
         BAD.format("one-edge-fathers-two-nodes"), BAD.format("father-cycle-of-four"))),
    Mutant(
        "from_edges without its spanning check", TREEVAR,
        "        if not all(seen):\n"
        "            raise ValueError(\"tree_edges do not form a spanning tree\")\n",
        "",
        ("tests/test_treevar.py::TestInit::"
         "test_from_edges_rejects_n_minus_1_edges_that_do_not_span",)),
    Mutant(
        "a wrong trie leaf", TREEVAR,
        "        return tuple(order)\n    children = []",
        "        return tuple(order[::-1])\n    children = []",
        ("tests/test_treevar.py::test_shuffle_trie_leaves_are_the_fisher_yates_orders",
         W.format(4), TREES)),
    Mutant(
        "memo hit skips the free check of the path's last edge", GRAPH,
        "        for eid in whole:\n",
        "        for eid in whole[:-1]:\n",
        (MSGA, "tests/test_graph.py::"
               "test_a_whole_graph_path_blocked_by_a_kept_edge_falls_back_to_the_search",
         "tests/test_golden.py::test_capped_msga_digest")),
    Mutant(
        "memo keyed on the unordered pair", GRAPH,
        "        whole = free.memo[s, t]\n",
        "        whole = free.memo[s, t] if s < t else free.memo[t, s][::-1]\n",
        (MSGA, "tests/test_graph.py::test_a_memo_keeps_each_direction_apart",
         "tests/test_graph.py::"
         "test_views_sharing_a_memo_answer_every_search_as_the_reference")),
    Mutant(
        "label check returns None on equal labels", GRAPH,
        "    if component[s] != component[t]:",
        "    if component[s] == component[t]:",
        (MSGA, "tests/test_graph.py::test_a_failed_search_labels_the_source_component",
         "tests/test_graph.py::TestShortestPathAvoiding::test_detour")),
    Mutant(
        "_parse_int catches the wrong exception", GRAPH,
        "    except ValueError:\n        raise GraphFormatError(",
        "    except TypeError:\n        raise GraphFormatError(",
        ("tests/test_graph.py::TestLoadGraph::test_malformed_edge_line_names_line",
         "tests/test_text_fuzz.py::test_graph_text_loads_or_raises_a_graph_error")),
    Mutant(
        "verify_dump's summary catches the wrong exception", EDP,
        "            except (ValueError, KeyError):",
        "            except KeyError:",
        (VR.format("non-integer-summary"), VR.format("summary-without-separator"))),
    Mutant(
        "verify_dump's path head catches the wrong exception", EDP,
        "        except ValueError:\n"
        "            problems.append(f\"line {lineno}: non-integer field\")",
        "        except TypeError:\n"
        "            problems.append(f\"line {lineno}: non-integer field\")",
        (VR.format("non-integer-head"),)),
    Mutant(
        "_ratio does not catch ZeroDivisionError", BENCH,
        "    except ZeroDivisionError:",
        "    except OverflowError:",
        ("tests/test_cli.py::test_bad_input_exits_1_with_message[ratio 1/0]",)),
    Mutant(
        "extraction breaks ties on the lower index", OBJECTIVES,
        "    heap = [-(o * k + i) for i, o in enumerate(overlap) if o]\n"
        "    heapq.heapify(heap)\n"
        "    retained = [True] * k\n"
        "    while heap:\n"
        "        o, d = divmod(-heapq.heappop(heap), k)\n"
        "        now = overlap[d]\n"
        "        if o != now:\n"
        "            if now:\n"
        "                heapq.heappush(heap, -(now * k + d))\n",
        "    heap = [-(o * k + k - 1 - i) for i, o in enumerate(overlap) if o]\n"
        "    heapq.heapify(heap)\n"
        "    retained = [True] * k\n"
        "    while heap:\n"
        "        o, d = divmod(-heapq.heappop(heap), k)\n"
        "        d = k - 1 - d\n"
        "        now = overlap[d]\n"
        "        if o != now:\n"
        "            if now:\n"
        "                heapq.heappush(heap, -(now * k + k - 1 - d))\n",
        ("tests/test_edp.py::test_extract_disjoint_cases", EXTRACT, LS, STATE)),
    Mutant(
        "extraction without a set per path", OBJECTIVES,
        "    sets = [set(p) for p in paths]\n",
        "    sets = [list(p) for p in paths]\n",
        ("tests/test_edp.py::test_extract_disjoint_cases[repeated-edge-alone]",
         EXTRACT)),
    Mutant(
        "_remove_path without the overlap decrement", OBJECTIVES,
        "            overlap[holders[e]] -= 1\n",
        "            pass\n",
        (STATE, EXTRACT, LS)),
    Mutant(
        "_add_path adds to overlap[i] instead of setting it", OBJECTIVES,
        "    overlap[i] = shared\n",
        "    overlap[i] += shared\n",
        (STATE, "tests/test_objectives.py::TestPathEdgeDisjoint::"
                "test_commit_consistency_randomized", LS)),
    Mutant(
        "scan skips the first pair's removal draw", SEARCH,
        "        r = getrandbits(bits)\n        while r >= n:",
        "        r = getrandbits(bits) if (e_in, a, b) != pairs[0] else 0\n"
        "        while r >= n:",
        ("tests/test_search.py::test_filtered_scan_draws_and_decides_as_the_reference",
         LS, "tests/test_golden.py::test_capped_ls_digest_at_sparse_benchmark_scale")),
    # a draw equal to the count then indexes past the preferred moves
    Mutant(
        "perturbation accepts a triple draw equal to the count", SEARCH,
        "                while c >= k:\n",
        "                while c > k:\n",
        (LS, "tests/test_golden.py::test_capped_ls_digest_at_sparse_benchmark_scale")),
    Mutant(
        "kicks start with a restart", SEARCH,
        "            if kicks % 2 == 1:",
        "            if kicks % 2 == 0:",
        (LS, "tests/test_search.py::TestRun::test_every_capped_iteration_records_one_event",
         "tests/test_golden.py::test_capped_path_cost_run_digest")),
)


# per pytest process: each mutant's tests took under 4 s to fail on a
# 2-vCPU Xeon, so only a mutant that loops for ever reaches it
TIMEOUT_S = 60

# appended to the copy's conftest.py: a failing example is reported as
# found, unshrunk, and no example carries over from one mutant to the next
_NO_SHRINK = """
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("mutants")
"""

# a -rA summary line: the outcome, then the test id up to the end of the
# line or up to the " - " that starts a failure message, so an id
# holding a space is read whole
_OUTCOME_RE = re.compile(r"^(PASSED|FAILED|ERROR) (.+?)(?: - .*)?$", re.M)


def _failed_killers(copy: Path, killers: tuple[str, ...]) -> set[str] | None:
    """The killers that fail in ``copy``, or None if pytest timed out."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a same-size mutant shares a pyc's key
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *killers],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    outcomes = _OUTCOME_RE.findall(proc.stdout)
    if proc.returncode not in (0, 1) or not outcomes:
        sys.exit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = {test_id for status, test_id in outcomes if status != "PASSED"}
    return {k for k in killers
            if any(f == k or f.startswith(k + "[") for f in failed)}


def main() -> int:
    root = Path(__file__).parents[1]
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(root / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", copy)
        with open(copy / "tests" / "conftest.py", "a", encoding="utf-8") as fh:
            fh.write(_NO_SHRINK)
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                sys.exit(f"{m.name}: old text does not occur once in {m.path}")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            began = time.perf_counter()
            failed = _failed_killers(copy, m.killers)
            took = time.perf_counter() - began
            target.write_text(original, encoding="utf-8")
            if failed is None:
                print(f"killed    {m.name}: timed out after {took:.0f} s")
                continue
            passed = [k for k in m.killers if k not in failed]
            if not failed:
                bad += 1
                print(f"SURVIVED  {m.name} ({took:.1f} s)")
            elif passed:
                bad += 1
                print(f"STALE     {m.name}: {len(failed)} of {len(m.killers)} "
                      f"tests fail, these pass: {', '.join(passed)}")
            else:
                print(f"killed    {m.name}: {len(failed)} of {len(m.killers)} "
                      f"tests fail ({took:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {bad} survived or stale, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Named mutants of ``src/``, each with the tests that kill it.

A mutant replaces one exact text of a ``src/`` file with another, and
the tests it names fail on the mutated code: each was seen to fail
when the mutant was applied to a copy of the tree.  Test ids are
pytest node ids from the repository root.  ``test_mutants.py`` checks
that every old text occurs exactly once in its file, so a change that
moves mutated code updates the entry with it.  A runner that applies
each mutant and runs its tests is still to come (ROADMAP item 4).
"""

from __future__ import annotations

from dataclasses import dataclass


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

# the index against a recount from the father lists
R = "tests/test_treevar.py::test_preferred_moves_match_a_recount_from_the_fathers"
# random_tree's draws against random.shuffle on the root of a star of degree d
W = "tests/test_treevar.py::test_random_fathers_redraw_and_order_as_random_shuffle[{}]"
TREES = "tests/test_treevar.py::test_random_trees_draw_as_random_shuffle"
# solve_ls's evaluation skips against the reference solver
E = "tests/test_edp.py::test_evaluation_skips_match_the_reference_solver"
T = "tests/test_edp.py::test_every_evaluation_skip_is_taken"

MUTANTS = (
    Mutant(
        "no tree-edge check in the index", TREEVAR,
        "            if father_edge[u] == e_in or father_edge[v] == e_in:\n"
        "                continue\n",
        "",
        (R, "tests/test_treevar.py::TestPreferredSets::"
            "test_preferred_equals_reduction_oracle_random")),
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
        ("tests/test_edp.py::test_extract_disjoint_matches_the_reference",
         "tests/test_edp.py::test_capped_ls_matches_the_reference_solver", E, T)),
)

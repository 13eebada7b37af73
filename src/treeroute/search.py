"""First-improvement local search over tree variables.

The engine minimizes one guiding differentiable (typically a violation
count) over the tree variables it registers, with one move kind: the
*one-move*, a single edge replacement on one tree.  Each iteration scans
the trees in a random order and accepts the first strictly improving
one-move it finds.

Moves are always drawn from the preferred sets, so every accepted move
changes at least one induced path.  A failed scan is exhaustive (every
removal for one inserted edge gives the same new path, so one answer per
inserted edge covers them all), which means the trees sit at a one-move
local minimum; the engine then kicks at once, alternating between a
small random perturbation of the conflicted trees and a
re-initialization of them.  The scan accepts the first move for which
the objective's exact predicate
:meth:`~treeroute.objectives.Differentiable.improves_fn` holds.  Every
shuffle on the hot path (each iteration's tree order and each scan's
pairs) goes through ``treevar._shuffle``, and the scan's and the
perturbation's choices are redraw loops written out inline; together
they make exactly the ``getrandbits`` calls that ``random.shuffle`` and
``random.choice`` make for ``random.Random``.

The client sees the search through one hook, ``evaluate(clock)``: on
the initial trees, at each new best and at each one-move local minimum
(see :func:`run`).  The search never calls ``objective.commit()``: the
next value, delta or predicate query refreshes the caches, and a
violation count depends only on the final edge loads, not on the
refresh order.

:func:`explore_two_move` (two independent replacements on one tree) and
:func:`explore_pair_move` (one replacement on each of two trees,
evaluated jointly) are library neighbourhoods; :func:`run` does not use
them.

Runs are deterministic for a fixed seed.  With ``iter_cap`` set the
wall clock is ignored and trace timestamps are iteration numbers, which
makes two runs of the same configuration byte-identical; otherwise the
run stops after ``time_limit_s`` seconds on a monotonic clock, checked
before every tree's scan and every tree's kick, and timestamps are
seconds.  The budget clock starts at the ``started`` time the caller
hands to :func:`run`, or at the call of :func:`run` when none is given;
``edp.solve_ls`` hands over its own entry time, so building the model
is charged to the budget.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .objectives import Differentiable
from .treevar import BasicMove, ComplexMove, RootedSpanningTree, _shuffle

# Sampled bundles per tree in a two-move search.
TWO_MOVE_SAMPLES = 20
# Sampled move pairs per pair-move search.
PAIR_MOVE_SAMPLES = 30
# Random basic moves per tree in a perturbation.
PERTURBATION_MOVES = 3

# evaluate(clock): the client's look at the current trees
Evaluate = Callable[[float], None]


@dataclass
class SearchConfig:
    time_limit_s: float = 10.0
    seed: int = 0
    iter_cap: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise ValueError("time_limit_s must be positive and finite")
        if self.iter_cap is not None and self.iter_cap < 0:
            raise ValueError("iter_cap must be >= 0")


@dataclass
class SearchTrace:
    """What happened during one run, for reporting and reproducibility.

    ``improvements`` holds (clock, value) pairs for every new best of the
    objective; the last one is the best.  ``events`` also records accepted
    moves and diversification steps.  Timestamps are iteration numbers
    under ``iter_cap`` and seconds otherwise.
    """

    iterations: int = 0
    improvements: list[tuple[float, int]] = field(default_factory=list)
    events: list[tuple[float, str, int]] = field(default_factory=list)

    @property
    def best_value(self) -> int:
        return self.improvements[-1][1] if self.improvements else 0

    @property
    def best_time(self) -> float:
        return self.improvements[-1][0] if self.improvements else 0.0


def explore_one_move(
    tree: RootedSpanningTree,
    objective: Differentiable,
    rng: random.Random,
) -> BasicMove | None:
    """First strictly improving basic move on ``tree``, or None.

    Scans the preferred replacing edges in an order shuffled by ``rng``
    and, per edge, one preferred replacable edge drawn from ``rng``.

    All preferred removals for one inserted edge produce the same new
    induced path (any of them detaches the source-side stretch, and the
    path reconnects through the inserted edge), so their deltas agree for
    every path-derived objective; the scan therefore asks once per
    inserted edge whether they improve, with the exact predicate
    ``objective.improves_fn(tree)`` (taking it validates and refreshes
    the objective, once per scan), and returns the removal it drew at
    the first edge where it holds.  A removal is drawn for every
    inserted edge, so ``rng`` advances exactly as in a scan that
    evaluates every delta, and the returned move is the same.

    The index lists each inserted edge with the join positions
    ``a < b`` of its stretch (see ``preferred_moves``), so the removal is
    drawn as an offset ``r`` among the ``n = b - a`` stretch edges and
    only the returned move reads the path, as ``path[a + r]``.  The
    shuffle is ``treevar._shuffle``, and each removal is written out
    inline as ``random.choice``'s ``getrandbits`` of ``n.bit_length()``
    bits, redrawn while out of range.  For ``random.Random`` these are
    exactly the calls ``random.shuffle`` and ``random.choice`` on the
    stretch make; ``tests/test_search.py`` pins the equality against a
    scan that calls them.
    """
    pairs = list(tree.preferred_moves())
    getrandbits = rng.getrandbits
    _shuffle(pairs, getrandbits)
    improves = objective.improves_fn(tree)
    for e_in, a, b in pairs:
        n = b - a
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        if improves(e_in, a, b):
            return BasicMove(e_in, tree.induced_path()[a + r])
    return None


def _complex_delta(
    tree: RootedSpanningTree, cm: ComplexMove, objective: Differentiable
) -> int:
    """Joint delta of an independent bundle, by apply / evaluate / undo;
    the caches are refreshed after the undo, so ``move_delta_fn``
    closures taken before the query stay valid."""
    before = objective.value()
    token = tree.apply_complex(cm)
    try:
        return objective.value() - before
    finally:
        tree.undo(token)
        objective._refresh()


def explore_two_move(
    tree: RootedSpanningTree,
    objective: Differentiable,
    rng: random.Random,
    samples: int = TWO_MOVE_SAMPLES,
) -> ComplexMove | None:
    """Sampled search for an improving pair of independent basic moves on
    one tree; returns the first strict joint improvement, or None.

    A library neighbourhood: :func:`run` does not use it."""
    preferred = tree.preferred_moves()
    if len(preferred) < 2:
        return None
    path = tree.induced_path()
    for _ in range(samples):
        (e_in_a, a_a, b_a), (e_in_b, a_b, b_b) = rng.sample(preferred, 2)
        cm = ComplexMove((
            BasicMove(e_in_a, path[rng.choice(range(a_a, b_a))]),
            BasicMove(e_in_b, path[rng.choice(range(a_b, b_b))]),
        ))
        if not tree.independent(cm.moves):
            continue
        if _complex_delta(tree, cm, objective) < 0:
            return cm
    return None


def explore_pair_move(
    tree_a: RootedSpanningTree,
    tree_b: RootedSpanningTree,
    objective: Differentiable,
    rng: random.Random,
    samples: int = PAIR_MOVE_SAMPLES,
) -> tuple[BasicMove, BasicMove] | None:
    """Sampled search for a jointly improving pair of basic moves on two
    different trees, evaluated with the joint delta.

    A library neighbourhood: :func:`run` does not use it."""
    if tree_a is tree_b:
        raise ValueError("pair moves need two distinct trees")
    prefs_a = tree_a.preferred_moves()
    prefs_b = tree_b.preferred_moves()
    if not prefs_a or not prefs_b:
        return None
    path_a = tree_a.induced_path()
    path_b = tree_b.induced_path()
    delta = objective.multi_delta_fn((tree_a, tree_b))
    for _ in range(samples):
        e_in_a, a_a, b_a = rng.choice(prefs_a)
        e_in_b, a_b, b_b = rng.choice(prefs_b)
        move_a = BasicMove(e_in_a, path_a[rng.choice(range(a_a, b_a))])
        move_b = BasicMove(e_in_b, path_b[rng.choice(range(a_b, b_b))])
        if delta((move_a, move_b)) < 0:
            return move_a, move_b
    return None


def _perturb(objective: Differentiable, rng: random.Random,
             time_up: Callable[[], bool]) -> None:
    """Apply a few random accepted basic moves per perturbed tree; the
    small diversification kick.  No tree is kicked once ``time_up()``.

    Only trees currently contributing to the guiding value are kicked
    (kicking every tree would amount to a full restart); for objectives
    that cannot name contributors, two random trees stand in.  Among a
    handful of sampled candidates a non-worsening move is preferred, so
    the kick walks plateaus instead of undoing the descent; a random
    move is the fallback when every sample worsens.

    A sample is a preferred triple and a removal offset in its stretch,
    each drawn as ``explore_one_move`` draws a removal: the
    ``getrandbits`` calls of ``random.choice`` of the triple and of
    ``random.choice(path[a:b])``, written out inline.  Every sample is
    still evaluated with the ``move_delta_fn`` taken once per move.
    """
    targets = objective.conflicted_trees()
    if not targets:
        targets = rng.sample(objective.trees, min(2, len(objective.trees)))
    getrandbits = rng.getrandbits
    for tree in targets:
        if time_up():
            break
        for _ in range(PERTURBATION_MOVES):
            choices = tree.preferred_moves()
            k = len(choices)
            if not k:
                break
            k_bits = k.bit_length()
            path = tree.induced_path()
            delta = objective.move_delta_fn(tree)
            picked = None
            for _ in range(12):
                c = getrandbits(k_bits)
                while c >= k:
                    c = getrandbits(k_bits)
                e_in, a, b = choices[c]
                n = b - a
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                move = BasicMove(e_in, path[a + r])
                if delta(move) <= 0:
                    picked = move
                    break
                if picked is None:
                    picked = move
            tree.apply(picked)


def _restart_conflicted(objective: Differentiable, rng: random.Random,
                        time_up: Callable[[], bool]) -> None:
    """Re-initialize every tree contributing to the guiding value; no
    tree is re-initialized once ``time_up()``.

    Trees that cause no violations keep their state (the clean backbone
    is worth protecting); the contested ones get fresh random trees and
    with them fresh shortest induced paths.  Objectives that cannot name
    contributors fall back to one random tree, if they have any.
    """
    targets = objective.conflicted_trees()
    if not targets and objective.trees:
        targets = [rng.choice(objective.trees)]
    for tree in targets:
        if time_up():
            break
        tree.reinit_random(rng)


def run(
    objective: Differentiable,
    cfg: SearchConfig,
    evaluate: Evaluate | None = None,
    started: float | None = None,
) -> SearchTrace:
    """Minimize ``objective`` over the trees it registers; returns the
    trace.

    Under ``iter_cap`` every iteration records exactly one event: the
    accepted one-move, or the kick that follows a failed scan.  In
    budget mode the last iteration may end without either, when the
    time runs out during its scan or its evaluation: a local minimum
    found after the limit is neither evaluated nor kicked, and one whose
    evaluation ends after it is not kicked.

    ``evaluate(clock)`` is called on the initial trees, after every new
    best and at every one-move local minimum, before its kick.  An
    evaluation only reads the paths (it draws no random number and
    mutates no tree), so it changes no search decision; and every accept
    strictly lowers the value, so every descent ends in a failed scan,
    and so in an evaluation, within ``value + 1`` iterations.

    In budget mode the clock counts from ``started``, a
    ``time.monotonic()`` reading taken by the caller (default: the call
    of ``run``): trace times are measured from it, no scan starts once
    ``time_limit_s`` has passed since it, and neither does a kick on a
    further tree nor an evaluation after the initial one, so a budget
    already spent yields only the initial record and evaluation.  Under
    ``iter_cap`` ``started`` is ignored.

    The trees are left in their final (not necessarily best) state;
    callers that need the best solution must record it in ``evaluate``,
    as ``edp.solve_ls`` records its routing.
    """
    trees = objective.trees
    rng = random.Random(cfg.seed)
    start = time.monotonic() if started is None else started
    iteration = 0
    capped = cfg.iter_cap is not None

    def clock() -> float:
        return float(iteration) if capped else time.monotonic() - start

    def time_up() -> bool:
        return not capped and time.monotonic() - start >= cfg.time_limit_s

    def evaluate_in_time() -> None:
        if evaluate is not None and not time_up():
            evaluate(clock())

    trace = SearchTrace()
    trace.improvements.append((clock(), objective.value()))
    if evaluate is not None:
        evaluate(clock())

    getrandbits = rng.getrandbits
    kicks = 0
    while not (iteration >= cfg.iter_cap if capped else time_up()):
        iteration += 1
        order = list(trees)
        _shuffle(order, getrandbits)
        for tree in order:
            if time_up():
                break
            move = explore_one_move(tree, objective, rng)
            if move is not None:
                tree.apply(move)
                value = objective.value()
                trace.events.append((clock(), "accept:one-move", value))
                if value < trace.best_value:
                    trace.improvements.append((clock(), value))
                    evaluate_in_time()
                break
        else:  # the scan was exhaustive: a one-move local minimum
            evaluate_in_time()
            if time_up():
                break
            kicks += 1
            if kicks % 2 == 1:
                _perturb(objective, rng, time_up)
                event = "perturbation"
            else:
                _restart_conflicted(objective, rng, time_up)
                event = "restart"
            trace.events.append((clock(), event, objective.value()))

    trace.iterations = iteration
    return trace

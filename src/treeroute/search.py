"""First-improvement local search over tree variables.

The engine minimizes one guiding differentiable (typically a violation
count) over the tree variables it registers, with one move kind: the
*one-move*, a single edge replacement on one tree.  Each iteration scans
the trees in a random order and accepts the first strictly improving
one-move it finds.

Moves are always drawn from the preferred sets, so every accepted move
changes at least one induced path.  A failed scan is exhaustive (every
removal for one inserted edge gives the same new path, so one delta per
inserted edge covers them all), which means the trees sit at a one-move
local minimum; the engine then kicks at once, alternating between a
small random perturbation of the conflicted trees and a
re-initialization of them.  The scan evaluates a delta only where the
objective's :meth:`~treeroute.objectives.Differentiable.may_improve_fn`
says the inserted edge and the removed path stretch could lower the
value (for edge disjointness: where the stretch holds more shared edges
than the inserted edge would newly share); it still draws a removal for
every inserted edge, so the filter changes neither the rng stream nor
any decision.  The scan's shuffle and removal draws are written out
inline and make exactly the ``getrandbits`` calls that
``random.shuffle`` and ``random.choice`` make for ``random.Random``.

The client sees the search through one hook, ``evaluate(clock)`` (see
:func:`run`).  The search never calls ``objective.commit()``: the next
value, delta or may-improve query refreshes the caches, and a violation
count depends only on the final edge loads, not on the refresh order.

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
from .treevar import BasicMove, ComplexMove, RootedSpanningTree

# Iterations between two periodic evaluations.
EVAL_INTERVAL = 1000
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
    every path-derived objective; the scan therefore evaluates one delta
    per inserted edge and picks a removal among the equivalent ones.

    That delta is evaluated only when ``objective.may_improve_fn(tree)``
    holds for the inserted edge and the removed stretch; elsewhere it
    cannot be negative.  The removal is drawn for every inserted edge
    all the same, so ``rng`` advances exactly as in a scan that
    evaluates every delta, and the returned move is the same.

    Both draws are written out inline, as ``_random_fathers`` in
    ``treevar`` does: the shuffle is CPython's Fisher-Yates and each
    removal is ``random.choice``'s ``getrandbits`` of
    ``len(outs).bit_length()`` bits, redrawn while out of range.  For
    ``random.Random`` these are exactly the calls ``random.shuffle`` and
    ``random.choice`` make; ``tests/test_search.py`` pins the equality
    against a scan that calls them.
    """
    pairs = list(tree.preferred_moves())
    getrandbits = rng.getrandbits
    for i in range(len(pairs) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    delta = objective.move_delta_fn(tree)
    may_improve = objective.may_improve_fn(tree)
    for e_in, outs in pairs:
        n = len(outs)
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        if may_improve(e_in, outs):
            move = BasicMove(e_in, outs[r])
            if delta(move) < 0:
                return move
    return None


def _complex_delta(
    tree: RootedSpanningTree, cm: ComplexMove, objective: Differentiable
) -> int:
    """Joint delta of an independent bundle, by apply / evaluate / undo."""
    before = objective.value()
    token = tree.apply_complex(cm)
    after = objective.value()
    tree.undo(token)
    return after - before


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
    for _ in range(samples):
        (e_in_a, outs_a), (e_in_b, outs_b) = rng.sample(preferred, 2)
        cm = ComplexMove((
            BasicMove(e_in_a, rng.choice(outs_a)),
            BasicMove(e_in_b, rng.choice(outs_b)),
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
    delta = objective.multi_delta_fn((tree_a, tree_b))
    for _ in range(samples):
        e_in_a, outs_a = rng.choice(prefs_a)
        e_in_b, outs_b = rng.choice(prefs_b)
        move_a = BasicMove(e_in_a, rng.choice(outs_a))
        move_b = BasicMove(e_in_b, rng.choice(outs_b))
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
    """
    targets = objective.conflicted_trees()
    if not targets:
        targets = rng.sample(objective.trees, min(2, len(objective.trees)))
    for tree in targets:
        if time_up():
            break
        for _ in range(PERTURBATION_MOVES):
            choices = tree.preferred_moves()
            if not choices:
                break
            delta = objective.move_delta_fn(tree)
            picked = None
            for _ in range(12):
                e_in, outs = rng.choice(choices)
                move = BasicMove(e_in, rng.choice(outs))
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
    time runs out between two trees.

    ``evaluate(clock)`` is called on the initial trees, after every new
    best and every :data:`EVAL_INTERVAL` iterations; kicks are only
    recorded in the trace.

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

    kicks = 0
    while not (iteration >= cfg.iter_cap if capped else time_up()):
        iteration += 1
        order = list(trees)
        rng.shuffle(order)
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
            kicks += 1
            if kicks % 2 == 1:
                _perturb(objective, rng, time_up)
                event = "perturbation"
            else:
                _restart_conflicted(objective, rng, time_up)
                event = "restart"
            trace.events.append((clock(), event, objective.value()))

        if iteration % EVAL_INTERVAL == 0:
            evaluate_in_time()

    trace.iterations = iteration
    return trace

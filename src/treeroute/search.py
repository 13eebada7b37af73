"""First-improvement local search over tree variables.

The engine minimizes one guiding differentiable (typically a violation
count) over a set of tree variables.  Each iteration walks a portfolio
of move kinds and accepts the first strictly improving move it finds:

* ``one-move``   - a single edge replacement on one tree,
* ``two-move``   - a pair of independent edge replacements on one tree,
* ``pair-move``  - one edge replacement on each of two different trees,
  evaluated jointly.

Moves are always drawn from the preferred sets, so every accepted move
changes at least one induced path.  When the whole portfolio fails for
``max_stall_iterations`` consecutive iterations the engine diversifies,
alternating between a small random perturbation of every tree and a
re-initialization of the worst-contributing tree.

Runs are deterministic for a fixed seed.  With ``iter_cap`` set the
wall clock is ignored and trace timestamps are iteration numbers, which
makes two runs of the same configuration byte-identical; otherwise the
run stops after ``time_limit_s`` seconds on a monotonic clock and
timestamps are seconds.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .objectives import Differentiable
from .treevar import BasicMove, ComplexMove, RootedSpanningTree

MOVE_KINDS = ("one-move", "two-move", "pair-move")

# callback(kind, iteration, guiding value, clock) with kind in
# {"initial", "improvement", "interval", "perturbation", "restart"}
Callback = Callable[[str, int, int, float], None]


@dataclass
class Model:
    """A closed model: the tree variables plus the guiding differentiable."""

    trees: list[RootedSpanningTree]
    objective: Differentiable


@dataclass
class SearchConfig:
    time_limit_s: float = 10.0
    seed: int = 0
    max_stall_iterations: int = 5
    move_portfolio: tuple[str, ...] = MOVE_KINDS
    iter_cap: int | None = None
    eval_interval: int = 1000
    two_move_samples: int = 20
    pair_move_pairs: int = 20
    pair_move_samples: int = 30
    perturbation_moves: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise ValueError("time_limit_s must be positive and finite")
        if not self.move_portfolio:
            raise ValueError("move portfolio must not be empty")
        for kind in self.move_portfolio:
            if kind not in MOVE_KINDS:
                raise ValueError(f"unknown move kind {kind!r}; use {MOVE_KINDS}")
        if self.max_stall_iterations < 1:
            raise ValueError("max_stall_iterations must be >= 1")
        if self.iter_cap is not None and self.iter_cap < 0:
            raise ValueError("iter_cap must be >= 0")
        counts = {
            "eval_interval": self.eval_interval,
            "two_move_samples": self.two_move_samples,
            "pair_move_pairs": self.pair_move_pairs,
            "pair_move_samples": self.pair_move_samples,
            "perturbation_moves": self.perturbation_moves,
        }
        for name, count in counts.items():
            if count < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SearchTrace:
    """What happened during one run, for reporting and reproducibility.

    ``improvements`` holds (clock, value) pairs for every new best of the
    guiding objective; values are strictly decreasing.  ``events`` also
    records accepted moves and diversification steps.  ``clock`` says how
    timestamps are measured ('seconds' or 'iterations').
    """

    best_value: int = 0
    best_time: float = 0.0
    iterations: int = 0
    improvements: list[tuple[float, int]] = field(default_factory=list)
    events: list[tuple[float, str, int]] = field(default_factory=list)
    clock: str = "seconds"

    def to_csv(self) -> str:
        """``time_s,value`` rows, or ``iteration,value`` for the
        iteration clock."""
        if self.clock == "iterations":
            lines = ["iteration,value"]
            lines.extend(f"{int(t)},{v}" for t, v in self.improvements)
        else:
            lines = ["time_s,value"]
            lines.extend(f"{t:.3f},{v}" for t, v in self.improvements)
        return "\n".join(lines) + "\n"


def explore_one_move(
    tree: RootedSpanningTree,
    objective: Differentiable,
    rng: random.Random | None = None,
) -> BasicMove | None:
    """First strictly improving basic move on ``tree``, or None.

    Scans preferred replacing edges and, per edge, preferred replacable
    edges; with an rng the scan order is shuffled, otherwise it is the
    natural deterministic order.

    All preferred removals for one inserted edge produce the same new
    induced path (any of them detaches the source-side stretch, and the
    path reconnects through the inserted edge), so their deltas agree for
    every path-derived objective; the scan therefore evaluates one delta
    per inserted edge and picks a removal among the equivalent ones.
    """
    pairs = list(tree.preferred_moves())
    if rng is not None:
        rng.shuffle(pairs)
    delta = objective.move_delta_fn(tree)
    for e_in, outs in pairs:
        e_out = rng.choice(outs) if rng is not None else outs[0]
        move = BasicMove(e_in, e_out)
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
    objective.commit()
    return after - before


def explore_two_move(
    tree: RootedSpanningTree,
    objective: Differentiable,
    rng: random.Random,
    samples: int = 30,
) -> ComplexMove | None:
    """Sampled search for an improving pair of independent basic moves on
    one tree; returns the first strict joint improvement, or None."""
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
    samples: int = 15,
) -> tuple[BasicMove, BasicMove] | None:
    """Sampled search for a jointly improving pair of basic moves on two
    different trees, evaluated with the joint delta."""
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


def _perturb(model: Model, rng: random.Random, moves_per_tree: int) -> None:
    """Apply a few random accepted basic moves per perturbed tree; the
    small diversification kick.

    Only trees currently contributing to the guiding value are kicked
    (kicking every tree would amount to a full restart); for objectives
    that cannot name contributors, two random trees stand in.  Among a
    handful of sampled candidates a non-worsening move is preferred, so
    the kick walks plateaus instead of undoing the descent; a random
    move is the fallback when every sample worsens.
    """
    targets = model.objective.conflicted_trees()
    if not targets:
        targets = rng.sample(model.trees, min(2, len(model.trees)))
    for tree in targets:
        delta = model.objective.move_delta_fn(tree)
        for _ in range(moves_per_tree):
            choices = tree.preferred_moves()
            if not choices:
                break
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
            model.objective.commit()
            delta = model.objective.move_delta_fn(tree)


def _restart_conflicted(model: Model, rng: random.Random) -> None:
    """Re-initialize every tree contributing to the guiding value.

    Trees that cause no violations keep their state (the clean backbone
    is worth protecting); the contested ones get fresh random trees and
    with them fresh shortest induced paths.  Objectives that cannot name
    contributors fall back to one random tree.
    """
    targets = model.objective.conflicted_trees()
    if not targets:
        targets = [rng.choice(model.trees)]
    for tree in targets:
        tree.reinit_random(rng)
        model.objective.commit()


def run(model: Model, cfg: SearchConfig, callback: Callback | None = None) -> SearchTrace:
    """Minimize the model's guiding objective; returns the trace.

    The model's trees are left in their final (not necessarily best)
    state; callers that need the best state must snapshot it from the
    callback.
    """
    rng = random.Random(cfg.seed)
    start = time.monotonic()
    iteration = 0
    capped = cfg.iter_cap is not None

    def clock() -> float:
        return float(iteration) if capped else time.monotonic() - start

    def out_of_budget() -> bool:
        if capped:
            return iteration >= cfg.iter_cap
        return time.monotonic() - start >= cfg.time_limit_s

    trace = SearchTrace(clock="iterations" if capped else "seconds")
    value = model.objective.value()
    best = value
    trace.improvements.append((clock(), value))
    trace.best_value = value
    trace.best_time = clock()
    if callback is not None:
        callback("initial", 0, value, clock())

    stall = 0
    stall_events = 0
    # A failed exhaustive one-move scan of a tree stays failed until some
    # tree changes (versions only grow, so the version sum identifies the
    # joint state); remembering that avoids rescanning on stalls.
    scan_failed_at: dict[int, int] = {}

    def state_stamp() -> int:
        return sum(t.version for t in model.trees)

    while not out_of_budget():
        iteration += 1
        accepted = None

        for kind in cfg.move_portfolio:
            if kind == "one-move":
                order = list(model.trees)
                rng.shuffle(order)
                stamp = state_stamp()
                for tree in order:
                    if scan_failed_at.get(id(tree)) == stamp:
                        continue
                    move = explore_one_move(tree, model.objective, rng)
                    if move is not None:
                        tree.apply(move)
                        model.objective.commit()
                        accepted = kind
                        break
                    scan_failed_at[id(tree)] = stamp
            elif kind == "two-move":
                order = model.objective.conflicted_trees()
                if not order:
                    order = list(model.trees)
                rng.shuffle(order)
                for tree in order:
                    cm = explore_two_move(
                        tree, model.objective, rng, cfg.two_move_samples)
                    if cm is not None:
                        tree.apply_complex(cm)
                        model.objective.commit()
                        accepted = kind
                        break
            elif kind == "pair-move" and len(model.trees) >= 2:
                # Aim at trees that actually share an overloaded edge when
                # the objective can point them out; random pairs otherwise.
                for _ in range(cfg.pair_move_pairs):
                    pair = model.objective.sample_conflict_pair(rng)
                    if pair is None:
                        pair = tuple(rng.sample(model.trees, 2))
                    tree_a, tree_b = pair
                    found = explore_pair_move(
                        tree_a, tree_b, model.objective, rng,
                        cfg.pair_move_samples)
                    if found is not None:
                        tree_a.apply(found[0])
                        model.objective.commit()
                        tree_b.apply(found[1])
                        model.objective.commit()
                        accepted = kind
                        break
            if accepted:
                break

        if accepted:
            stall = 0
            value = model.objective.value()
            trace.events.append((clock(), f"accept:{accepted}", value))
            if value < best:
                best = value
                trace.best_value = value
                trace.best_time = clock()
                trace.improvements.append((clock(), value))
                if callback is not None:
                    callback("improvement", iteration, value, clock())
        else:
            stall += 1
            if stall >= cfg.max_stall_iterations:
                stall = 0
                stall_events += 1
                if stall_events % 2 == 1:
                    _perturb(model, rng, cfg.perturbation_moves)
                    event = "perturbation"
                else:
                    _restart_conflicted(model, rng)
                    event = "restart"
                value = model.objective.value()
                trace.events.append((clock(), event, value))
                if callback is not None:
                    callback(event, iteration, value, clock())

        if callback is not None and cfg.eval_interval > 0 \
                and iteration % cfg.eval_interval == 0:
            callback("interval", iteration, value, clock())

    trace.iterations = iteration
    return trace

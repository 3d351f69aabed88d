"""Running threads against service families.

``run`` steps a regular thread through a service family and reports one of
three outcomes:

* ``COMPLETED``: the thread terminated; the reply is its Boolean and the
  family is the final service family.
* ``PROVEN_DIVERGENT``: the thread can never terminate (deadlock state,
  missing focus, rejected method, or a repeated configuration).  The reply
  is divergent and the family is empty.
* ``BUDGET_EXHAUSTED``: the step budget ran out before either of the above
  could be established.

The distinction between the last two matters: over infinite state spaces
divergence is undecidable, so "proven divergent" and "unknown" must not be
conflated.  Cycle detection is exact whenever the visited configuration
space is finite.

A run resolves the family to slots once: the foci in sorted order, each with
its unit and a current state, and each thread entry's (focus, method) to a
slot and the method operation's function, on first visit.  A step applies
that function to the slot's state and writes the new state back; the final
family is built only when the thread completes.  The configuration stored for
cycle detection is one tuple: the thread state followed by the unit states.
That is as exact as hashing the whole (thread state, family) pair: no focus
is added or removed during a run, a slot's unit never changes, and services
compare by unit identity and state, so two configurations are equal under one
key exactly when they are equal under the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Hashable

from .isa import BasicInstruction
from .services import EMPTY_FAMILY, Reply, ServiceFamily, UnitService
from .threads import Deadlock, LinearSpec, Post, Tau, TermN, TermP

if TYPE_CHECKING:  # pragma: no cover
    from .funit import FunctionalUnit


class Status(Enum):
    COMPLETED = "completed"
    PROVEN_DIVERGENT = "proven-divergent"
    BUDGET_EXHAUSTED = "budget-exhausted"


class BudgetExhausted(RuntimeError):
    """Raised by operations whose result type has no room for "unknown"."""


@dataclass(frozen=True)
class ExecMode:
    """Execution limits: a step budget and/or exact cycle detection.

    The budget counts thread transitions (internal steps included).  At least
    one of the two mechanisms must be enabled, otherwise a run could hang.
    """

    budget: int | None = 1_000_000
    detect_cycles: bool = True

    def __post_init__(self):
        if self.budget is None and not self.detect_cycles:
            raise ValueError("enable a budget, cycle detection, or both")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be a natural")


DEFAULT_MODE = ExecMode()


@dataclass(frozen=True)
class TraceStep:
    """One processed basic action: thread state, action, reply, new state."""

    state: int
    action: BasicInstruction
    reply: Reply
    service_state: Hashable


@dataclass(frozen=True)
class ExecOutcome:
    status: Status
    reply: Reply
    family: ServiceFamily
    steps: int
    trace: tuple[TraceStep, ...] | None = None


# Resolved slot codes for thread entries other than a processable method.
_TAU = -1
_REJECT = -2
_HALT = -3


def run(
    thread: LinearSpec,
    family: ServiceFamily,
    mode: ExecMode = DEFAULT_MODE,
    collect_trace: bool = False,
) -> ExecOutcome:
    """Execute a regular thread against a service family.

    The input family is never mutated.  The run steps over a list of unit
    states, one slot per focus in sorted order, and builds the final family
    only when the thread completes.
    """
    entries = thread.entries
    items = family.items()
    slot_of = {focus: i for i, (focus, _) in enumerate(items)}
    units = [svc.unit if isinstance(svc, UnitService) else None for _, svc in items]
    states = [svc.state if isinstance(svc, UnitService) else None for _, svc in items]
    # per entry: (slot or code, method operation fn, true successor, false successor)
    resolved: list[tuple | None] = [None] * len(entries)

    def resolve(entry) -> tuple:
        if not isinstance(entry, Post):
            return (_HALT, None, 0, 0)
        action = entry.action
        if isinstance(action, Tau):
            return (_TAU, None, entry.true_next, entry.true_next)
        i = slot_of.get(action.focus)
        unit = units[i] if i is not None else None
        op = unit.ops.get(action.method) if unit is not None else None
        if op is None:
            return (_REJECT, None, 0, 0)
        return (i, op.fn, entry.true_next, entry.false_next)

    cur = thread.root
    steps = 0
    limit = mode.budget if mode.budget is not None else math.inf
    trace: list[TraceStep] | None = [] if collect_trace else None
    visited: set[tuple] | None = set() if mode.detect_cycles else None

    def finish(status: Status, reply: Reply) -> ExecOutcome:
        if status is Status.COMPLETED:
            fam = ServiceFamily(
                (focus, UnitService(unit, state) if unit is not None else svc)
                for (focus, svc), unit, state in zip(items, units, states)
            )
        else:
            fam = EMPTY_FAMILY
        return ExecOutcome(
            status, reply, fam, steps, tuple(trace) if trace is not None else None
        )

    while True:
        rec = resolved[cur]
        if rec is None:
            rec = resolved[cur] = resolve(entries[cur])
        slot, fn, true_next, false_next = rec
        if slot == _HALT:
            entry = entries[cur]
            if isinstance(entry, TermP):
                return finish(Status.COMPLETED, Reply.T)
            if isinstance(entry, TermN):
                return finish(Status.COMPLETED, Reply.F)
            assert isinstance(entry, Deadlock)
            return finish(Status.PROVEN_DIVERGENT, Reply.D)
        if visited is not None:
            seen = len(visited)
            visited.add((cur, *states))  # one hash per configuration
            if len(visited) == seen:
                return finish(Status.PROVEN_DIVERGENT, Reply.D)
        if steps >= limit:
            return finish(Status.BUDGET_EXHAUSTED, Reply.D)
        if slot >= 0:
            flag, nxt = fn(states[slot])
            states[slot] = nxt
            if trace is not None:
                trace.append(TraceStep(cur, entries[cur].action, Reply.of(flag), nxt))
            cur = true_next if flag else false_next
        elif slot == _TAU:
            cur = true_next
        else:
            return finish(Status.PROVEN_DIVERGENT, Reply.D)
        steps += 1


@dataclass(frozen=True)
class Reachable:
    """States reachable through a unit's effects, with a completeness flag."""

    states: frozenset
    complete: bool


def reachable_states(unit: "FunctionalUnit", start: Any, bound: int) -> Reachable:
    """Close the start state under the effect parts of the unit's operations.

    At most ``bound`` distinct states are collected; the result is flagged
    complete only if the closure was fully explored within the bound.  Every
    operation a program can derive from the unit maps the start state into
    this set, which is what makes the flagged-complete case a sound
    refutation device.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    states = {start}
    frontier = [start]
    complete = True
    while frontier and complete:
        s = frontier.pop()
        for op in unit.ops.values():
            nxt = op(s)[1]
            if nxt in states:
                continue
            if len(states) >= bound:
                complete = False
                break
            states.add(nxt)
            frontier.append(nxt)
    return Reachable(frozenset(states), complete)

"""Functional units over finite state spaces: closures, comparison, degrees.

Over a k-state space the behaviour of any program against a unit is a table
mapping each state to a (reply, next state) pair or to divergence.  The set
of operations derivable from a unit is the least set of such tables that
contains the two termination behaviours and the everywhere-divergent table
and is closed under one branching step through a generator.  Divergent
tables are kept during the fixpoint (they arise as unreachable branches) and
filtered at the end; only the total tables are method operations.

One engine, ``_close``, computes that fixpoint for every caller.  A step
through generator g reads the table continued with on a true reply only at
the states g's true rows go to, and the one continued with on a false reply
only at the states its false rows go to.  So the engine combines the
distinct projections of members onto those two state sets rather than the
members themselves, and it works in semi-naive rounds: each round projects
only the members found in the round before, and combines a pair of
projections once, in the round in which the later one first appears.  The
member set is the same as that of composing every pair of members until
nothing new arises; at most (2k+1)^k projection pairs exist per generator,
however large the closure.  The engine also records how each member was
first derived, from which ``derivation_witnesses`` builds programs.

Two units are equivalent exactly when their closures have the same total
members, so counting distinct closures counts the unit degrees.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence, Union

from .funit import FunctionalUnit, MethodOperation, TableRow

# One table row per state: (reply, next state), or None for divergence.
Behavior = tuple[Optional[TableRow], ...]

MAX_ENUMERATED_STATES = 4


def const_true(k: int) -> Behavior:
    return tuple((True, s) for s in range(k))


def const_false(k: int) -> Behavior:
    return tuple((False, s) for s in range(k))


def diverged(k: int) -> Behavior:
    return (None,) * k


def is_total(table: Behavior) -> bool:
    return all(row is not None for row in table)


def compose_behavior(generator: Behavior, on_true: Behavior, on_false: Behavior) -> Behavior:
    """Perform the generator once, then continue per reply."""
    out = []
    for row in generator:
        if row is None:
            out.append(None)
            continue
        flag, nxt = row
        out.append(on_true[nxt] if flag else on_false[nxt])
    return tuple(out)


def _as_table(op: Union[MethodOperation, Behavior, Iterable[TableRow]], k: int) -> Behavior:
    if isinstance(op, MethodOperation):
        return op.tabulate(k)
    table = tuple(op)
    if len(table) != k:
        raise ValueError(f"expected a {k}-state table")
    for row in table:
        if row is None:
            raise ValueError("generators must be total")
        flag, nxt = row
        if not isinstance(flag, bool) or not 0 <= nxt < k:
            raise ValueError(f"bad table row {row!r}")
    return table


def enumerate_mo(k: int) -> list[MethodOperation]:
    """All (2k)^k method operations over a k-state space, in table order.

    Replies sort false before true and next states ascend, with the last
    state's entry varying fastest.
    """
    if not 1 <= k <= MAX_ENUMERATED_STATES:
        raise ValueError(f"k must be in 1..{MAX_ENUMERATED_STATES}")
    rows = [(flag, s) for flag in (False, True) for s in range(k)]
    ops = []
    for i, assignment in enumerate(itertools.product(rows, repeat=k)):
        ops.append(MethodOperation.from_table(f"m{i}", assignment))
    return ops


@dataclass(frozen=True)
class ClosedSet:
    """The total operations derivable from some generator set.

    ``generators`` holds the tables the set was closed from; sets compare
    and hash by their members alone.
    """

    members: frozenset[Behavior]
    k: int
    generators: tuple[Behavior, ...] = field(default=(), compare=False)

    @property
    def fingerprint(self) -> tuple[Behavior, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, table: Behavior) -> bool:
        return table in self.members

    def __len__(self) -> int:
        return len(self.members)


def _picker(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function taking a tuple to the tuple of its entries at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda row: (row[i],)
    return lambda row: ()


def _fresh_projections(members: list[Behavior], pick, seen: dict) -> dict:
    """The projections of ``members`` not in ``seen``, each with one member having it."""
    found = dict(zip(map(pick, members), members))
    return {p: m for p, m in found.items() if p not in seen}


# How a closure member was derived: the index of the generator performed
# first and the members continued with on a true and on a false reply, or
# None for the three base tables.
Derivation = Optional[tuple[int, Behavior, Behavior]]


def _close(generators: Iterable[Behavior], k: int) -> dict[Behavior, Derivation]:
    """Every table derivable from total ``generators``, partial ones included.

    Maps each member to how it was first derived, in derivation order, so
    both members a derivation names come before it.

    ``compose_behavior(g, a, b)`` reads ``a`` only at the states g's true
    rows go to (T) and ``b`` only at those its false rows go to (F).  So per
    generator it suffices to combine the distinct projections of members
    onto T with those onto F, keeping one representative member for each.
    Rounds are semi-naive: only the members new in a round are projected,
    and a pair of projections is combined once, in the round in which the
    later of the two first appears.  As every pair of a T and an F
    projection of members is combined, and the composite depends on its two
    members only through them, the member set equals that of composing
    every pair of members until nothing new arises.
    """
    derived: dict[Behavior, Derivation] = dict.fromkeys(
        (const_true(k), const_false(k), diverged(k))
    )
    plans = []
    planned: set[Behavior] = set()
    for gi, g in enumerate(generators):
        if g in planned:
            continue
        planned.add(g)
        on_true = sorted({nxt for flag, nxt in g if flag})
        on_false = sorted({nxt for flag, nxt in g if not flag})
        # row i of a composite is entry rows[i] of (true projection + false projection)
        rows = [
            on_true.index(nxt) if flag else len(on_true) + on_false.index(nxt)
            for flag, nxt in g
        ]
        plans.append((gi, _picker(on_true), _picker(on_false), _picker(rows), {}, {}))

    new = list(derived)
    while new:
        fresh: dict[Behavior, Derivation] = {}
        for gi, pick_true, pick_false, assemble, seen_true, seen_false in plans:
            new_true = _fresh_projections(new, pick_true, seen_true)
            new_false = _fresh_projections(new, pick_false, seen_false)
            seen_false.update(new_false)
            # product() takes its arguments whole at once, so the second
            # pairs the new false projections with the old true ones only
            pairs = itertools.chain(
                itertools.product(new_true.items(), seen_false.items()),
                itertools.product(seen_true.items(), new_false.items()),
            )
            seen_true.update(new_true)
            for (pt, a), (pf, b) in pairs:
                c = assemble(pt + pf)
                if c not in derived and c not in fresh:
                    fresh[c] = (gi, a, b)
        derived.update(fresh)
        new = list(fresh)
    return derived


def derived_closure(ops: Iterable, k: int) -> ClosedSet:
    """The derivable method operations of the unit generated by ``ops``."""
    generators = tuple(_as_table(op, k) for op in ops)
    return ClosedSet(frozenset(t for t in _close(generators, k) if is_total(t)), k, generators)


def derivation_witnesses(unit: FunctionalUnit) -> dict[Behavior, "object"]:
    """A witness program for every derivable operation of a finite unit.

    Builds one regular thread with a state per closure member: a base table
    is a termination or deadlock, any other member performs its generator
    and continues with the states of the two members it was derived from.
    Each total member's program compiles that thread rooted at its state.
    Mainly a testing device: it certifies that closure membership and
    program derivability coincide.
    """
    from .threads import LinearSpec, Post, compile_thread, DEADLOCK, TERM_N, TERM_P
    from .isa import BasicInstruction

    if unit.size is None:
        raise ValueError("witnesses are only computed over finite spaces")
    k = unit.size
    named = sorted(unit.ops)
    derived = _close([unit.ops[name].tabulate(k) for name in named], k)
    state = {table: i for i, table in enumerate(derived)}
    base = {const_true(k): TERM_P, const_false(k): TERM_N, diverged(k): DEADLOCK}
    entries = [
        base[table] if how is None
        else Post(BasicInstruction("f", named[how[0]]), state[how[1]], state[how[2]])
        for table, how in derived.items()
    ]
    return {
        table: compile_thread(LinearSpec(entries, state[table]))
        for table in derived
        if is_total(table)
    }


@dataclass(frozen=True)
class ClosureBudget:
    """Exploration limits for degree counting on larger spaces."""

    max_sets: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        for name in ("max_sets", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class DegreeCount:
    count: int
    exact: bool
    sets: tuple[ClosedSet, ...] = field(repr=False, default=())


def count_degrees(k: int, budget: ClosureBudget = ClosureBudget()) -> DegreeCount:
    """Count the distinct derivable-operation closures over a k-state space.

    Breadth-first over generator additions: starting from the closure of the
    empty unit, each closed set is extended by every operation not already in
    it, by closing its generators plus that operation, and the results are
    deduplicated by members.  Adding one generator at a time reaches every
    closure because closing a closed set plus a generator equals closing the
    underlying generators together.

    Each returned set keeps the tables on the first path that reached it,
    and they are a generating set of minimum size, because the level at
    which a set is first reached equals its minimum generator count.  A set
    first reached at level d has the d tables of its path as generators.
    A set generated by m tables is the closure of m - 1 of them plus the
    last, and by induction that closure is reached by level m - 1, so the
    set is reached by level m.  Sets are popped level by level, so this
    holds for a search cut short by the budget too.
    """
    all_tables = [op.table for op in enumerate_mo(k)]
    start = derived_closure((), k)
    seen: dict[frozenset[Behavior], ClosedSet] = {start.members: start}
    queue: deque[ClosedSet] = deque([start])
    t0 = time.monotonic()

    def out_of_budget() -> bool:
        if budget.max_seconds is not None and time.monotonic() - t0 > budget.max_seconds:
            return True
        return budget.max_sets is not None and len(seen) >= budget.max_sets

    exact = True
    while queue and exact:
        current = queue.popleft()
        for table in all_tables:
            if table in current.members:
                continue
            if out_of_budget():
                exact = False
                break
            extended = derived_closure(current.generators + (table,), k)
            if extended.members not in seen:
                seen[extended.members] = extended
                queue.append(extended)
    return DegreeCount(len(seen), exact, tuple(seen.values()))


def leq_by_closure(left: FunctionalUnit, right: FunctionalUnit) -> bool:
    """True iff every operation of ``left`` is derivable from ``right``.

    Only decided over a shared finite state space; the relation is
    undecidable over the naturals.
    """
    if left.size is None or right.size is None:
        raise ValueError("comparison by closure needs finite state spaces")
    if left.size != right.size:
        raise ValueError("units must share a state space")
    closure = derived_closure(right.ops.values(), right.size)
    return all(op.tabulate(left.size) in closure.members for op in left.ops.values())


def equivalent_by_closure(left: FunctionalUnit, right: FunctionalUnit) -> bool:
    return leq_by_closure(left, right) and leq_by_closure(right, left)


def render_behavior(table: Behavior) -> str:
    """Compact text form: per state, T/F plus next state, or '-' when divergent."""
    parts = []
    for row in table:
        if row is None:
            parts.append("-")
        else:
            flag, nxt = row
            parts.append(f"{'T' if flag else 'F'}{nxt}")
    return ",".join(parts)

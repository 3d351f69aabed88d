"""Functional units and the method operations programs derive from them.

A functional unit is a finite map from method names to method operations,
each a total function from states to (reply, next state).  Running a program
whose basic instructions all address one focus backed by such a unit yields a
partial method operation: defined where the run completes, undefined where it
provably diverges, unknown where only the budget ran out.

``inline_compose`` implements substitution of method implementations into a
program: every positive test on an implemented method is replaced by the
implementation, whose two halts become gotos to the test's true and false
successors; ``isa.assemble`` lays the result out once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Hashable, Iterable, Mapping

from .execution import DEFAULT_MODE, ExecMode, Status, reachable_states, run
from .isa import (
    IDENT_RE,
    Goto,
    HaltN,
    HaltP,
    NegTest,
    Plain,
    PosTest,
    Program,
    assemble,
    decode,
    is_normalized,
    normalize,
)
from .services import Reply, UnitService, singleton
from .threads import LinearSpec, extract

Outcome = tuple[bool, Hashable]
TableRow = tuple[bool, int]


@dataclass(frozen=True, eq=False)
class MethodOperation:
    """A total function from states to (reply, next state).

    Operations compare by identity; behavioural comparison on finite spaces
    goes through ``tabulate``.
    """

    name: str
    fn: Callable[[Any], Outcome]
    table: tuple[TableRow, ...] | None = None

    def __call__(self, state: Any) -> Outcome:
        return self.fn(state)

    @classmethod
    def from_table(cls, name: str, rows: Iterable[TableRow]) -> "MethodOperation":
        table = tuple((bool(b), int(s)) for b, s in rows)
        k = len(table)
        if k == 0:
            raise ValueError("empty table")
        for _, nxt in table:
            if not 0 <= nxt < k:
                raise ValueError(f"table target {nxt} out of range for {k} states")

        def fn(state: int, _table=table) -> Outcome:
            return _table[state]

        return cls(name, fn, table)

    def tabulate(self, size: int) -> tuple[TableRow, ...]:
        """The operation as a table over states 0..size-1."""
        if self.table is not None:
            if len(self.table) != size:
                raise ValueError("table size mismatch")
            return self.table
        rows = []
        for s in range(size):
            flag, nxt = self.fn(s)
            if not 0 <= nxt < size:
                raise ValueError(f"state {s} escapes the {size}-state space")
            rows.append((bool(flag), nxt))
        return tuple(rows)


@dataclass(frozen=True, eq=False)
class FunctionalUnit:
    """A finite set of named method operations over one state space.

    ``size`` is the number of states of a finite space, or None when the
    states are the naturals.
    """

    ops: Mapping[str, MethodOperation]
    size: int | None = None

    def __post_init__(self):
        d = dict(self.ops)
        for name in d:
            if not IDENT_RE.fullmatch(name):
                raise ValueError(f"bad method name {name!r}")
        object.__setattr__(self, "ops", MappingProxyType(d))
        if self.size is not None and self.size < 1:
            raise ValueError("a finite state space needs at least one state")

    @property
    def interface(self) -> frozenset[str]:
        return frozenset(self.ops)

    @classmethod
    def from_callables(
        cls, fns: Mapping[str, Callable[[Any], Outcome]], size: int | None = None
    ) -> "FunctionalUnit":
        return cls({name: MethodOperation(name, fn) for name, fn in fns.items()}, size)

    @classmethod
    def from_tables(
        cls, size: int, tables: Mapping[str, Iterable[TableRow]]
    ) -> "FunctionalUnit":
        ops = {}
        for name, rows in tables.items():
            op = MethodOperation.from_table(name, rows)
            if len(op.table) != size:
                raise ValueError(f"method {name}: expected {size} rows")
            ops[name] = op
        return cls(ops, size)


def restrict(unit: FunctionalUnit, names: Iterable[str]) -> FunctionalUnit:
    """The unit containing exactly the operations named in ``names``."""
    wanted = frozenset(names)
    unknown = wanted - unit.interface
    if unknown:
        raise ValueError(f"unknown method names: {sorted(unknown)}")
    return FunctionalUnit({m: unit.ops[m] for m in sorted(wanted)}, unit.size)


def tabulate_unit(unit: FunctionalUnit, size: int) -> FunctionalUnit:
    """Truncate a unit to the finite space 0..size-1 as explicit tables.

    Fails if any operation maps a state of the window outside it.
    """
    tables = {name: op.tabulate(size) for name, op in unit.ops.items()}
    return FunctionalUnit.from_tables(size, tables)


class _Undefined:
    """Evaluation result for states where the run provably diverges."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class Unknown:
    """Evaluation ran out of budget; nothing is proven either way."""

    budget: int | None


class PartialMethodOperation:
    """The partial method operation a program computes over a unit.

    Calling it at a state returns either an (reply, next state) pair, the
    ``UNDEFINED`` sentinel (proven divergence), or an ``Unknown`` marker
    (budget exhausted).
    """

    def __init__(self, program: Program, unit: FunctionalUnit, focus: str, mode: ExecMode):
        self.program = program
        self.unit = unit
        self.focus = focus
        self.mode = mode
        self.thread: LinearSpec = extract(program)
        self._cache: dict = {}

    def __call__(self, state):
        if state in self._cache:
            return self._cache[state]
        outcome = run(self.thread, singleton(self.focus, UnitService(self.unit, state)), self.mode)
        if outcome.status is Status.COMPLETED:
            final = outcome.family.get(self.focus)
            assert isinstance(final, UnitService)
            result = (outcome.reply is Reply.T, final.state)
        elif outcome.status is Status.PROVEN_DIVERGENT:
            result = UNDEFINED
        else:
            result = Unknown(self.mode.budget)
        self._cache[state] = result
        return result

    def tabulate(self, size: int) -> tuple:
        """Per-state results over 0..size-1 (entries may be UNDEFINED/Unknown)."""
        return tuple(self(s) for s in range(size))


def derived_op(
    x: Program,
    unit: FunctionalUnit,
    focus: str = "f",
    mode: ExecMode = DEFAULT_MODE,
) -> PartialMethodOperation:
    """The partial method operation x computes over the unit at one focus.

    Every basic instruction of x must address the given focus with a method
    of the unit's interface.
    """
    for u in x:
        if isinstance(u, (Plain, PosTest, NegTest)):
            if u.basic.focus != focus:
                raise ValueError(f"foreign focus {u.basic.focus!r} (expected {focus!r})")
            if u.basic.method not in unit.ops:
                raise ValueError(f"unknown method {u.basic.method!r}")
    return PartialMethodOperation(x, unit, focus, mode)


def inline_compose(
    x_m: Program,
    impls: Mapping[str, Program],
    passthrough: frozenset[str] | set[str] = frozenset(),
    max_substitutions: int = 10_000,
) -> Program:
    """Substitute method implementations into a program.

    Both the program and every implementation are first brought to the
    positive-test normal form.  The substitution runs until no test on an
    implemented method remains, so implementations may themselves use
    implemented methods (a cycle among them is reported as an error once the
    substitution cap is hit).  Methods that are neither implemented nor
    listed in ``passthrough`` are rejected.  A jump off either end of an
    implementation deadlocks, as it does when the implementation runs alone.
    """
    prog = x_m if is_normalized(x_m) else normalize(x_m)
    bodies = {
        name: decode(impl if is_normalized(impl) else normalize(impl))
        for name, impl in impls.items()
    }

    methods = {u.basic.method for u in prog if isinstance(u, PosTest)}
    stray = methods - set(bodies) - set(passthrough)
    if stray:
        raise ValueError(f"no implementation for methods: {sorted(stray)}")

    # one-instruction blocks; a site's block gives way to the body's blocks,
    # the first of which takes over the site's label
    blocks: list = decode(prog)
    count = 0
    i = 0
    while i < len(blocks):
        site, (u,) = blocks[i]
        if not (isinstance(u, PosTest) and u.basic.method in bodies):
            i += 1
            continue
        if count >= max_substitutions:
            raise ValueError("substitution did not terminate (cyclic implementations?)")
        count += 1
        true_exit, false_exit = blocks[i + 1][0], blocks[i + 2][0]

        def label(j: int) -> Hashable:
            return site if j == 1 else (count, j)

        body = []
        for j, (v,) in bodies[u.basic.method]:
            if isinstance(v, Goto):
                v = Goto(label(v.label))
            elif isinstance(v, HaltP):
                v = Goto(true_exit)
            elif isinstance(v, HaltN):
                v = Goto(false_exit)
            body.append((label(j), (v,)))
        blocks[i : i + 1] = body
    return assemble(blocks)


def refute_derivability(
    unit: FunctionalUnit,
    start: Any,
    target: tuple[bool, Any],
    bound: int = 10_000,
) -> bool:
    """Soundly refute that any derived operation maps ``start`` to ``target``.

    Every derived operation moves states along the unit's effects, so if the
    (completely explored) reachable set misses the target state, no program
    over the unit's interface can produce it.  Returns False whenever the
    exploration is inconclusive.
    """
    reach = reachable_states(unit, start, bound)
    return reach.complete and target[1] not in reach.states


# ---------------------------------------------------------------------------
# table file format
#
#   states <k>
#   method <name>
#   <s> -> <T|F> <s'>      (k lines, 0-based states)
#   method <name2>
#   ...
# ---------------------------------------------------------------------------


def parse_natural(text: str) -> int:
    """``text`` read as a natural written in the ASCII digits 0-9 alone."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a natural number")
    return int(text)


def parse_unit_table(text: str) -> FunctionalUnit:
    tokens = text.split()
    if len(tokens) < 2 or tokens[0] != "states":
        raise ValueError("table file must start with 'states <k>'")
    try:
        size = parse_natural(tokens[1])
    except ValueError:
        raise ValueError(f"bad state count {tokens[1]!r}") from None
    if size < 1:
        raise ValueError("state count must be positive")
    pos = 2
    tables: dict[str, list[TableRow | None]] = {}
    current: list[TableRow | None] | None = None
    while pos < len(tokens):
        if tokens[pos] == "method":
            if pos + 1 >= len(tokens):
                raise ValueError("method keyword without a name")
            name = tokens[pos + 1]
            if name in tables:
                raise ValueError(f"duplicate method {name!r}")
            current = [None] * size
            tables[name] = current
            pos += 2
            continue
        if current is None:
            raise ValueError(f"unexpected token {tokens[pos]!r}")
        if pos + 3 >= len(tokens) or tokens[pos + 1] != "->":
            raise ValueError(f"bad table row near {tokens[pos]!r}")
        s, flag, nxt = tokens[pos], tokens[pos + 2], tokens[pos + 3]
        try:
            si, ni = parse_natural(s), parse_natural(nxt)
        except ValueError:
            raise ValueError(f"bad table row near {s!r}") from None
        if flag not in ("T", "F"):
            raise ValueError(f"bad reply {flag!r}")
        if not 0 <= si < size or not 0 <= ni < size:
            raise ValueError(f"state out of range in row {s} -> {flag} {nxt}")
        if current[si] is not None:
            raise ValueError(f"duplicate row for state {si}")
        current[si] = (flag == "T", ni)
        pos += 4
    for name, rows in tables.items():
        if any(r is None for r in rows):
            raise ValueError(f"method {name!r} is missing rows")
    return FunctionalUnit.from_tables(size, {n: tuple(r) for n, r in tables.items()})


def render_unit_table(unit: FunctionalUnit) -> str:
    if unit.size is None:
        raise ValueError("only finite units have a table form")
    lines = [f"states {unit.size}"]
    for name in sorted(unit.ops):
        lines.append(f"method {name}")
        for s, (flag, nxt) in enumerate(unit.ops[name].tabulate(unit.size)):
            lines.append(f"{s} -> {'T' if flag else 'F'} {nxt}")
    return "\n".join(lines) + "\n"

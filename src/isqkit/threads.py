"""Regular threads as finite systems of linear recursion equations.

A thread is the behaviour an instruction sequence exhibits under execution:
at every step it either deadlocks, terminates delivering a Boolean, or
performs an action and branches on the reply.  Regular threads have finitely
many states and are represented here by ``LinearSpec``: a table of entries
indexed by state id, plus a root id.

``extract`` maps a program to its thread, resolving each jump chain once (a
cycle consisting solely of jumps is a deadlock).  ``truncate`` cuts a thread
off after a given number of actions, as a linear spec; ``project`` is the
same cut viewed as a finite tree.  ``bisimilar`` decides behavioural equality
of tau-free specs, and ``compile_thread`` maps any tau-free spec back to a
program with bisimilar extraction.

All specs built here, and the block order of ``compile_thread``, share one
numbering: breadth-first from root 0, the true successor before the false.
The private builder ``_build`` is its one home: each caller only says what
one state looks like, keyed by a resolved position (``extract``), a
(state, depth) pair (``truncate``) or a block (``minimize``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    Goto,
    HaltN,
    HaltP,
    Plain,
    PosTest,
    Program,
    assemble,
)


@dataclass(frozen=True)
class Tau:
    """The internal action; always replied to with true."""

    def __str__(self) -> str:
        return "tau"


TAU = Tau()

Action = Union[BasicInstruction, Tau]


@dataclass(frozen=True)
class Deadlock:
    def __str__(self) -> str:
        return "D"


@dataclass(frozen=True)
class TermP:
    """Termination delivering true."""

    def __str__(self) -> str:
        return "S+"


@dataclass(frozen=True)
class TermN:
    """Termination delivering false."""

    def __str__(self) -> str:
        return "S-"


@dataclass(frozen=True)
class Post:
    """Perform the action, continue at true_next or false_next by reply."""

    action: Action
    true_next: int
    false_next: int


Entry = Union[Deadlock, TermP, TermN, Post]

DEADLOCK = Deadlock()
TERM_P = TermP()
TERM_N = TermN()


@dataclass(frozen=True)
class Branch:
    """Internal node of a finite thread tree.

    ``project`` shares subtrees, so the hash is taken once, at construction,
    ``==`` compares each pair of nodes once, and the repr prints each
    distinct subtree once, as the lines of a ``dump`` joined by ``;``.
    """

    action: Action
    true_branch: "FiniteThread"
    false_branch: "FiniteThread"

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.action, self.true_branch, self.false_branch)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Branch):
            return NotImplemented
        compared = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in compared:
                continue
            if type(a) is not type(b) or hash(a) != hash(b):
                return False
            if isinstance(a, Branch):  # leaves of one type are equal
                if a.action != b.action:
                    return False
                compared.add((id(a), id(b)))
                stack += [(a.true_branch, b.true_branch), (a.false_branch, b.false_branch)]
        return True

    def __repr__(self) -> str:
        # keyed by value, so equal trees print equally
        spec = _build(
            self, lambda t: (t.action, t.true_branch, t.false_branch) if isinstance(t, Branch) else t
        )
        return f"Branch({'; '.join(line.lstrip('* ') for line in dump(spec).splitlines())})"


FiniteThread = Union[Deadlock, TermP, TermN, Branch]


@dataclass(frozen=True)
class LinearSpec:
    """A regular thread: entries indexed by state id, with a root state."""

    entries: tuple[Entry, ...]
    root: int = 0

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        n = len(self.entries)
        if n == 0:
            raise ValueError("a linear spec needs at least one state")
        if not 0 <= self.root < n:
            raise ValueError(f"root {self.root} out of range")
        for e in self.entries:
            if isinstance(e, Post):
                for ref in (e.true_next, e.false_next):
                    if not 0 <= ref < n:
                        raise ValueError(f"state reference {ref} out of range")
            elif not isinstance(e, (Deadlock, TermP, TermN)):
                raise TypeError(f"not a thread entry: {e!r}")

    def __len__(self) -> int:
        return len(self.entries)


def contains_tau(s: LinearSpec) -> bool:
    return any(isinstance(e, Post) and isinstance(e.action, Tau) for e in s.entries)


def _require_tau_free(s: LinearSpec, operation: str):
    if contains_tau(s):
        raise ValueError(f"{operation} is only defined for tau-free threads")


def _build(root, node) -> LinearSpec:
    """The spec of every key reachable from ``root``, numbered breadth-first.

    ``node(key)`` is either a termination or deadlock entry or an
    ``(action, true_key, false_key)`` triple.  Keys are numbered from 0 in
    the order they are first reached, the true successor before the false.
    """
    index = {root: 0}
    order = [root]
    entries: list[Entry] = []
    for key in order:
        entry = node(key)
        if type(entry) is tuple:
            action, t, f = entry
            if t not in index:
                index[t] = len(order)
                order.append(t)
            if f not in index:
                index[f] = len(order)
                order.append(f)
            entry = Post(action, index[t], index[f])
        entries.append(entry)
    return LinearSpec(entries, 0)


def extract(x: Program) -> LinearSpec:
    """Thread extraction: one state per reachable non-jump position.

    Jump aliases are resolved away; a control transfer off either end of the
    sequence, a zero-length jump, and any cycle consisting solely of jump
    instructions all become a deadlock state.
    """
    k = len(x)
    target: dict[int, int | None] = {}  # position -> where control settles

    def resolve(i: int) -> int | None:
        path = []
        while i not in target:
            instr = x[i - 1] if 1 <= i <= k else None
            if isinstance(instr, FwdJump):
                nxt = i + instr.offset
            elif isinstance(instr, BwdJump):
                nxt = i - instr.offset
            else:
                target[i] = None if instr is None else i
                break
            target[i] = None  # until the path settles: a jump-only cycle deadlocks
            path.append(i)
            i = nxt
        for p in path:
            target[p] = target[i]
        return target[i]

    def node(pos: int | None):
        if pos is None:
            return DEADLOCK
        instr = x[pos - 1]
        if isinstance(instr, HaltP):
            return TERM_P
        if isinstance(instr, HaltN):
            return TERM_N
        if isinstance(instr, Plain):
            nxt = resolve(pos + 1)
            return instr.basic, nxt, nxt
        if isinstance(instr, PosTest):
            return instr.basic, resolve(pos + 1), resolve(pos + 2)
        return instr.basic, resolve(pos + 2), resolve(pos + 1)  # NegTest

    return _build(resolve(1), node)


def truncate(s: LinearSpec, n: int) -> LinearSpec:
    """The depth-n approximation of s, itself as a linear spec.

    Its states are (state of s, actions left) pairs, numbered by falling
    depth, so successors always come after their parent.
    """
    if n < 0:
        raise ValueError("projection depth must be a natural")

    def node(key: tuple[int, int]):
        state, depth = key
        entry = s.entries[state]
        if depth == 0:
            return DEADLOCK
        if isinstance(entry, Post):
            return entry.action, (entry.true_next, depth - 1), (entry.false_next, depth - 1)
        return entry

    return _build((s.root, n), node)


def project(s: LinearSpec, n: int) -> FiniteThread:
    """Approximation of the thread up to depth n (cut points become deadlock).

    The tree view of ``truncate(s, n)``, folded bottom-up from its last entry.
    """
    cut = truncate(s, n)
    trees: list[FiniteThread] = list(cut.entries)
    for i in range(len(trees) - 1, -1, -1):
        entry = cut.entries[i]
        if isinstance(entry, Post):
            trees[i] = Branch(entry.action, trees[entry.true_next], trees[entry.false_next])
    return trees[cut.root]


def tau_contract(t: FiniteThread) -> FiniteThread:
    """Rewrite every tau branching to follow its true branch on both replies.

    Folds the tree bottom-up with an explicit stack, each shared subtree once.
    """
    done: dict[int, FiniteThread] = {}  # id of a node -> its contraction
    stack = [t]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if not isinstance(node, Branch):
            done[id(node)] = node
            stack.pop()
            continue
        tau = isinstance(node.action, Tau)
        children = (node.true_branch,) if tau else (node.true_branch, node.false_branch)
        pending = [c for c in children if id(c) not in done]
        if pending:
            stack += pending
            continue
        stack.pop()
        tb = done[id(node.true_branch)]
        fb = tb if tau else done[id(node.false_branch)]
        done[id(node)] = Branch(node.action, tb, fb)
    return done[id(t)]


def _label(entry: Entry):
    if isinstance(entry, Post):
        return ("post", entry.action)
    return type(entry).__name__


def bisimilar(a: LinearSpec, b: LinearSpec) -> bool:
    """Decide rooted bisimilarity of two tau-free linear specs."""
    _require_tau_free(a, "bisimilar")
    _require_tau_free(b, "bisimilar")
    na = len(a.entries)
    total = na + len(b.entries)
    parent = list(range(total))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def node(i: int) -> Entry:
        return a.entries[i] if i < na else b.entries[i - na]

    def successors(i: int, entry: Post) -> tuple[int, int]:
        base = 0 if i < na else na
        return entry.true_next + base, entry.false_next + base

    stack = [(a.root, b.root + na)]
    while stack:
        p, q = stack.pop()
        rp, rq = find(p), find(q)
        if rp == rq:
            continue
        ep, eq = node(p), node(q)
        if _label(ep) != _label(eq):
            return False
        parent[rp] = rq
        if isinstance(ep, Post):
            pt, pf = successors(p, ep)
            qt, qf = successors(q, eq)
            stack.append((pt, qt))
            stack.append((pf, qf))
    return True


def minimize(s: LinearSpec) -> LinearSpec:
    """Collapse bisimilar states by partition refinement; root block first."""
    labels = [_label(e) for e in s.entries]
    block: dict = {}
    part = [block.setdefault(lab, len(block)) for lab in labels]
    while True:
        signatures = []
        for i, e in enumerate(s.entries):
            if isinstance(e, Post):
                signatures.append((part[i], part[e.true_next], part[e.false_next]))
            else:
                signatures.append((part[i],))
        block = {}
        new_part = [block.setdefault(sig, len(block)) for sig in signatures]
        if len(block) == len(set(part)):
            part = new_part
            break
        part = new_part

    # the states of a block agree on label and successor blocks, so any one
    # represents it
    rep = {b: i for i, b in enumerate(part)}

    def node(b: int):
        entry = s.entries[rep[b]]
        if isinstance(entry, Post):
            return entry.action, part[entry.true_next], part[entry.false_next]
        return entry

    return _build(part[s.root], node)


_HALTS = {TermP: HaltP(), TermN: HaltN(), Deadlock: FwdJump(0)}


def compile_thread(s: LinearSpec) -> Program:
    """A program whose extraction is bisimilar to s.

    Every branching state becomes a three-instruction block (positive test
    plus jumps to the two target blocks); terminations become halts and
    deadlock becomes ``#0``.
    """
    _require_tau_free(s, "compile_thread")

    def node(state: int):
        entry = s.entries[state]
        if isinstance(entry, Post):
            return entry.action, entry.true_next, entry.false_next
        return entry

    blocks = []
    for i, entry in enumerate(_build(s.root, node).entries):
        if isinstance(entry, Post):
            items = (PosTest(entry.action), Goto(entry.true_next), Goto(entry.false_next))
        else:
            items = (_HALTS[type(entry)],)
        blocks.append((i, items))
    return assemble(blocks)


def dump(s: LinearSpec) -> str:
    """One line per state: ``<id>: D | S+ | S- | <action> ? <t> : <f>``."""
    lines = []
    for i, e in enumerate(s.entries):
        mark = "*" if i == s.root else " "
        if isinstance(e, Post):
            body = f"{e.action} ? {e.true_next} : {e.false_next}"
        else:
            body = str(e)
        lines.append(f"{mark} {i}: {body}")
    return "\n".join(lines)


_DUMP_LINE_RE = re.compile(r"^\s*(\*?)\s*([0-9]+):\s*(.+?)\s*$")
_DUMP_POST_RE = re.compile(r"^(\S+)\s*\?\s*([0-9]+)\s*:\s*([0-9]+)$")


def parse_dump(text: str) -> LinearSpec:
    """Inverse of dump; accepts states in any order, each once."""
    entries: dict[int, Entry] = {}
    root = None
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = _DUMP_LINE_RE.match(raw)
        if not m:
            raise ValueError(f"bad spec line: {raw!r}")
        starred, sid, body = m.group(1), int(m.group(2)), m.group(3)
        if sid in entries:
            raise ValueError(f"state {sid} given twice")
        if starred:
            if root is not None:
                raise ValueError("multiple root markers")
            root = sid
        if body == "D":
            entries[sid] = DEADLOCK
        elif body == "S+":
            entries[sid] = TERM_P
        elif body == "S-":
            entries[sid] = TERM_N
        else:
            pm = _DUMP_POST_RE.match(body)
            if not pm:
                raise ValueError(f"bad entry: {body!r}")
            name = pm.group(1)
            if name == "tau":
                action: Action = TAU
            else:
                focus, _, method = name.partition(".")
                if not _:
                    raise ValueError(f"bad action: {name!r}")
                action = BasicInstruction(focus, method)
            entries[sid] = Post(action, int(pm.group(2)), int(pm.group(3)))
    if not entries:
        raise ValueError("empty spec")
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("state ids must be 0..n-1")
    if root is None:
        raise ValueError("no root marker")
    return LinearSpec(tuple(entries[i] for i in range(len(entries))), root)

"""Regular threads as finite systems of linear recursion equations.

A thread is the behaviour an instruction sequence exhibits under execution:
at every step it either deadlocks, terminates delivering a Boolean, or
performs an action and branches on the reply.  Regular threads have finitely
many states and are represented here by ``LinearSpec``: a table of entries
indexed by state id, plus a root id.

``extract`` maps a program to its thread, resolving jump chains eagerly (a
cycle consisting solely of jumps is a deadlock).  ``truncate`` cuts a thread
off after a given number of actions, as a linear spec; ``project`` is the
same cut viewed as a finite tree.  ``bisimilar`` decides behavioural equality
of tau-free specs, and ``compile_thread`` maps any tau-free spec back to a
program with bisimilar extraction.

All specs built here, and the block order of ``compile_thread``, share one
numbering: breadth-first from root 0, the true successor before the false.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    Goto,
    HaltN,
    HaltP,
    NegTest,
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
    and ``==`` compares each pair of nodes once.
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


def _successors(entry: Entry) -> tuple[int, ...]:
    """The true and false successors of a ``Post``; no successors otherwise."""
    if isinstance(entry, Post):
        return entry.true_next, entry.false_next
    return ()


def _number(root, successors) -> dict:
    """Every key reachable from ``root``, numbered breadth-first from 0.

    ``successors(key)`` gives a key's successors in the order they are
    visited.  The returned dict iterates its keys in numbering order.
    """
    index = {root: 0}
    order = [root]
    for key in order:
        for nxt in successors(key):
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
    return index


def extract(x: Program) -> LinearSpec:
    """Thread extraction: one state per reachable non-jump position.

    Jump aliases are resolved away eagerly; a control transfer off either end
    of the sequence, a zero-length jump, and any cycle consisting solely of
    jump instructions all become a deadlock state.
    """
    k = len(x)
    cache: dict[int, int | None] = {}

    def resolve(i: int) -> int | None:
        seen: list[int] = []
        cur = i
        result: int | None
        while True:
            if cur in cache:
                result = cache[cur]
                break
            if not 1 <= cur <= k:
                result = None
                break
            instr = x[cur - 1]
            if isinstance(instr, FwdJump):
                nxt = cur + instr.offset
            elif isinstance(instr, BwdJump):
                nxt = max(0, cur - instr.offset)
            else:
                result = cur
                break
            if cur in seen:
                result = None  # jumps forever
                break
            seen.append(cur)
            cur = nxt
        for p in seen:
            cache[p] = result
        cache[i] = result
        return result

    entries: list[Entry | None] = []
    index: dict[int | None, int] = {}
    order: list[int | None] = []

    def state_id(target: int | None) -> int:
        if target not in index:
            index[target] = len(order)
            order.append(target)
            entries.append(None)
        return index[target]

    root = state_id(resolve(1))
    sid = 0
    while sid < len(order):
        target = order[sid]
        if target is None:
            entries[sid] = DEADLOCK
        else:
            instr = x[target - 1]
            if isinstance(instr, HaltP):
                entries[sid] = TERM_P
            elif isinstance(instr, HaltN):
                entries[sid] = TERM_N
            elif isinstance(instr, Plain):
                nid = state_id(resolve(target + 1))
                entries[sid] = Post(instr.basic, nid, nid)
            elif isinstance(instr, PosTest):
                entries[sid] = Post(
                    instr.basic, state_id(resolve(target + 1)), state_id(resolve(target + 2))
                )
            elif isinstance(instr, NegTest):
                entries[sid] = Post(
                    instr.basic, state_id(resolve(target + 2)), state_id(resolve(target + 1))
                )
            else:  # jumps never survive resolve
                raise AssertionError("unresolved jump")
        sid += 1
    return LinearSpec(tuple(entries), root)


def truncate(s: LinearSpec, n: int) -> LinearSpec:
    """The depth-n approximation of s, itself as a linear spec.

    Its states are (state of s, actions left) pairs, numbered by falling
    depth, so successors always come after their parent.
    """
    if n < 0:
        raise ValueError("projection depth must be a natural")

    def successors(key: tuple[int, int]):
        state, depth = key
        entry = s.entries[state]
        if depth and isinstance(entry, Post):
            return (entry.true_next, depth - 1), (entry.false_next, depth - 1)
        return ()

    index = _number((s.root, n), successors)
    entries: list[Entry] = []
    for state, depth in index:
        entry = s.entries[state]
        if depth == 0:
            entries.append(DEADLOCK)
        elif isinstance(entry, Post):
            entries.append(
                Post(
                    entry.action,
                    index[entry.true_next, depth - 1],
                    index[entry.false_next, depth - 1],
                )
            )
        else:
            entries.append(entry)
    return LinearSpec(tuple(entries), 0)


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

    # renumber the blocks reachable from the root; the states of a block
    # agree on label and successor blocks, so any one represents it
    rep = {b: i for i, b in enumerate(part)}
    index = _number(
        part[s.root], lambda b: [part[nxt] for nxt in _successors(s.entries[rep[b]])]
    )
    entries: list[Entry] = []
    for b in index:
        entry = s.entries[rep[b]]
        if isinstance(entry, Post):
            entries.append(
                Post(entry.action, index[part[entry.true_next]], index[part[entry.false_next]])
            )
        else:
            entries.append(entry)
    return LinearSpec(tuple(entries), 0)


_HALTS = {TermP: HaltP(), TermN: HaltN(), Deadlock: FwdJump(0)}


def compile_thread(s: LinearSpec) -> Program:
    """A program whose extraction is bisimilar to s.

    Every branching state becomes a three-instruction block (positive test
    plus jumps to the two target blocks); terminations become halts and
    deadlock becomes ``#0``.
    """
    _require_tau_free(s, "compile_thread")

    blocks = []
    for state in _number(s.root, lambda state: _successors(s.entries[state])):
        entry = s.entries[state]
        if isinstance(entry, Post):
            items = (PosTest(entry.action), Goto(entry.true_next), Goto(entry.false_next))
        else:
            items = (_HALTS[type(entry)],)
        blocks.append((state, items))
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


def parse_dump(text: str) -> LinearSpec:
    """Inverse of dump; accepts states in any order."""
    import re

    line_re = re.compile(r"^\s*(\*?)\s*(\d+):\s*(.+?)\s*$")
    post_re = re.compile(r"^(\S+)\s*\?\s*(\d+)\s*:\s*(\d+)$")
    entries: dict[int, Entry] = {}
    root = None
    for raw in text.splitlines():
        if not raw.strip():
            continue
        m = line_re.match(raw)
        if not m:
            raise ValueError(f"bad spec line: {raw!r}")
        starred, sid, body = m.group(1), int(m.group(2)), m.group(3)
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
            pm = post_re.match(body)
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

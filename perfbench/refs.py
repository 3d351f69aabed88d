"""Reference answers computed without the isqkit code paths being timed.

Every function here works on plain data (tuples, strings, integers) and is
written independently of the package, so a defect in a timed layer cannot
also hide in the answer it is checked against.  Each is cheap on the input
sizes the workloads give it.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# threads: specs as tuples of ("post", action, t, f) | ("S+",) | ("S-",) | ("D",)
# ---------------------------------------------------------------------------


def reachable(spec: tuple, root: int) -> list[int]:
    """State ids reachable from the root, in discovery order."""
    seen = {root}
    order = [root]
    for state in order:
        entry = spec[state]
        if entry[0] == "post":
            for nxt in entry[2:]:
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
    return order


def bisim_classes(spec: tuple, root: int) -> int:
    """Number of bisimulation classes among the states reachable from root.

    Greatest fixpoint of the pairwise relation: start with all pairs of equal
    label and drop pairs whose successors are not related, until stable.
    Quadratic in the number of states, so only used on small specs.
    """
    states = reachable(spec, root)

    def label(s):
        e = spec[s]
        return ("post", e[1]) if e[0] == "post" else e[0]

    related = {(p, q) for p in states for q in states if label(p) == label(q)}
    changed = True
    while changed:
        changed = False
        for p, q in list(related):
            ep, eq = spec[p], spec[q]
            if ep[0] == "post" and ((ep[2], eq[2]) not in related or (ep[3], eq[3]) not in related):
                related.discard((p, q))
                changed = True
    classes = 0
    assigned: set[int] = set()
    for p in states:
        if p not in assigned:
            classes += 1
            assigned.update(q for q in states if (p, q) in related)
    return classes


def compiled(spec: tuple, root: int) -> tuple:
    """A program for a spec, one block per reachable state.

    A branching state becomes ``+f.m ; <jump to true block> ; <jump to false
    block>``, terminations become halts and deadlock becomes ``#0``.
    """
    order = reachable(spec, root)
    start = {}
    pos = 1
    for s in order:
        start[s] = pos
        pos += 3 if spec[s][0] == "post" else 1

    def jump(at: int, target: int) -> tuple:
        return ("fwd", target - at) if target > at else ("bwd", at - target)

    out = []
    for s in order:
        e = spec[s]
        if e[0] == "post":
            pos = len(out) + 1
            out.extend([("pos", e[1]), jump(pos + 1, start[e[2]]), jump(pos + 2, start[e[3]])])
        else:
            out.append({"S+": ("!t",), "S-": ("!f",), "D": ("fwd", 0)}[e[0]])
    return tuple(out)


def extracted_states(spec: tuple, root: int) -> int:
    """States of the thread extracted from ``compiled(spec, root)``.

    One per reachable branching or halting state; every ``#0`` resolves to
    the same single deadlock state.
    """
    kinds = [spec[s][0] for s in reachable(spec, root)]
    return sum(k != "D" for k in kinds) + ("D" in kinds)


# ---------------------------------------------------------------------------
# programs: instruction tuples ("plain"|"pos"|"neg", basic) | ("fwd"|"bwd", n) | ("!t",) | ("!f",)
# where basic is a method name of the one focus ``f`` or a full ``focus.method``
# ---------------------------------------------------------------------------


def _basic(name: str) -> str:
    return name if "." in name else f"f.{name}"


def render(instrs) -> str:
    out = []
    for ins in instrs:
        kind = ins[0]
        if kind == "plain":
            out.append(_basic(ins[1]))
        elif kind == "pos":
            out.append(f"+{_basic(ins[1])}")
        elif kind == "neg":
            out.append(f"-{_basic(ins[1])}")
        elif kind == "fwd":
            out.append(f"#{ins[1]}")
        elif kind == "bwd":
            out.append(f"\\{ins[1]}")
        else:
            out.append(kind)
    return " ; ".join(out)


def normalized_length(instrs) -> int:
    """Length of the positive-test normal form: three per basic instruction, one otherwise, plus two halts."""
    return sum(3 if ins[0] in ("plain", "pos", "neg") else 1 for ins in instrs) + 2


def run_on_table(instrs, tables: dict, state: int):
    """Run a single-focus program on a finite table unit from one state.

    Returns ``(reply, final state)`` on a halt, or ``"D"`` when control leaves
    the program, hits a zero jump, or revisits a (position, state) pair.
    """
    n = len(instrs)
    pos = 1
    seen = set()
    while True:
        if not 1 <= pos <= n or (pos, state) in seen:
            return "D"
        seen.add((pos, state))
        ins = instrs[pos - 1]
        kind = ins[0]
        if kind == "!t":
            return (True, state)
        if kind == "!f":
            return (False, state)
        if kind in ("fwd", "bwd"):
            if ins[1] == 0:
                return "D"
            pos += ins[1] if kind == "fwd" else -ins[1]
            continue
        flag, state = tables[ins[1]][state]
        if kind == "plain":
            pos += 1
        elif kind == "pos":
            pos += 1 if flag else 2
        else:
            pos += 2 if flag else 1


def thread_of(instrs) -> tuple[tuple, int]:
    """The thread of a program as a spec over resolved positions, and its root.

    Jumps are followed to the first non-jump position; leaving the program,
    a zero jump or a cycle of jumps resolves to the single deadlock state.
    """
    n = len(instrs)

    def resolve(pos: int):
        seen = set()
        while 1 <= pos <= n and pos not in seen:
            kind, *arg = instrs[pos - 1]
            if kind not in ("fwd", "bwd"):
                return pos
            seen.add(pos)
            pos += arg[0] if kind == "fwd" else -arg[0]
        return None

    ids: dict = {}
    spec: list = []

    def state(target) -> int:
        if target not in ids:
            ids[target] = len(spec)
            spec.append(target)
        return ids[target]

    root = state(resolve(1))
    i = 0
    while i < len(spec):
        target = spec[i]
        if target is None:
            spec[i] = ("D",)
        else:
            kind, *arg = instrs[target - 1]
            if kind in ("!t", "!f"):
                spec[i] = ("S+",) if kind == "!t" else ("S-",)
            else:
                nxt = state(resolve(target + 1))
                skip = state(resolve(target + 2)) if kind != "plain" else None
                t, f = {"plain": (nxt, nxt), "pos": (nxt, skip), "neg": (skip, nxt)}[kind]
                spec[i] = ("post", _basic(arg[0]), t, f)
        i += 1
    return tuple(spec), root


def table_of(instrs, tables: dict, k: int) -> tuple:
    return tuple(run_on_table(instrs, tables, s) for s in range(k))


# ---------------------------------------------------------------------------
# finite closures: tables are tuples of (reply, next) rows, None for divergence
# ---------------------------------------------------------------------------


def closure(gens, k: int) -> frozenset:
    """Total members of the derivable-operation closure of the generators.

    Projection-based: composing through g reads the true continuation only at
    the states g's true rows go to, and the false continuation only at the
    states its false rows go to, so the fixpoint iterates over the distinct
    projections of the members onto those two state sets.
    """
    members = {
        tuple((True, s) for s in range(k)),
        tuple((False, s) for s in range(k)),
        (None,) * k,
    }
    shapes = []
    for g in gens:
        on_true = sorted({nxt for flag, nxt in g if flag})
        on_false = sorted({nxt for flag, nxt in g if not flag})
        shapes.append((g, on_true, on_false))
    while True:
        fresh = set()
        for g, on_true, on_false in shapes:
            left = {tuple(m[s] for s in on_true) for m in members}
            right = {tuple(m[s] for s in on_false) for m in members}
            for a in left:
                at = dict(zip(on_true, a))
                for b in right:
                    bt = dict(zip(on_false, b))
                    c = tuple(at[nxt] if flag else bt[nxt] for flag, nxt in g)
                    if c not in members:
                        fresh.add(c)
        if not fresh:
            return frozenset(m for m in members if None not in m)
        members |= fresh


# ---------------------------------------------------------------------------
# the naturals: closed forms for the universal unit and the register corpus
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13)
UNIV_ORDER = ("exp2", "fact5") + tuple(
    name for i in range(6) for name in (f"succ{i}", f"pred{i}", f"iszero{i}")
)


def univ_op(i: int, x: int) -> tuple[bool, int]:
    """The i-th operation of the 20-method universal unit, from its definition."""
    name = UNIV_ORDER[i]
    if name == "exp2":
        return (True, 1 << x)
    if name == "fact5":
        e = 0
        while x and x % 5 == 0:
            x //= 5
            e += 1
        return (True, e)
    p = PRIMES[int(name[-1])]
    if name.startswith("succ"):
        return (True, p * x)
    if name.startswith("pred"):
        return (True, x // p) if x % p == 0 else (False, x)
    return (x % p != 0, x)


# name -> (register program text, closed form of (reply, output) for input n)
RM_CORPUS = {
    "identity": ("+r0.iszero ; #5 ; r0.decr ; r2.incr ; \\4 ; #1", lambda n: (True, n)),
    "successor": (
        "+r0.iszero ; #4 ; r0.decr ; r2.incr ; \\4 ; r2.incr ; #1",
        lambda n: (True, n + 1),
    ),
    "add3": (
        "+r0.iszero ; #4 ; r0.decr ; r2.incr ; \\4 ; r2.incr ; r2.incr ; r2.incr ; #1",
        lambda n: (True, n + 3),
    ),
    "zerotest": ("+r0.iszero ; #2 ; r1.incr ; #1", lambda n: (n == 0, 0)),
    "monus2": (
        "r0.decr ; r0.decr ; +r0.iszero ; #5 ; r0.decr ; r2.incr ; \\4 ; #1",
        lambda n: (True, max(0, n - 2)),
    ),
    "even": (
        "+r0.iszero ; !t ; r0.decr ; +r0.iszero ; #3 ; r0.decr ; \\6 ; r1.incr ; #1",
        lambda n: (n % 2 == 0, 0),
    ),
}

_LOG2_PRIMES = tuple(math.log2(p) for p in PRIMES)


def rm_max_state_bits(text: str, n: int) -> int:
    """Largest bit length of the prime-power encoding of the registers over a run.

    Interprets the register program directly and tracks the encoded size
    without building the integers; the translated run's states are these
    encodings (times 2**n for the loaded input).
    """
    instrs = [tok.strip() for tok in text.split(";")]
    regs = [n, 0, 0, 0, 0, 0]
    best = 0.0
    pos = 1
    k = len(instrs)
    while 1 <= pos <= k:
        ins = instrs[pos - 1]
        best = max(best, sum(r * lg for r, lg in zip(regs, _LOG2_PRIMES)))
        if ins in ("!t", "!f"):
            break
        if ins[0] in "#\\":
            step = int(ins[1:])
            pos += step if ins[0] == "#" else -step
            continue
        sign = ins[0] if ins[0] in "+-" else ""
        reg, method = ins.lstrip("+-").split(".")
        i = int(reg[1])
        if method == "incr":
            regs[i] += 1
            flag = True
        elif method == "decr":
            flag = regs[i] > 0
            regs[i] -= flag
        else:
            flag = regs[i] == 0
        if sign == "+":
            pos += 1 if flag else 2
        elif sign == "-":
            pos += 2 if flag else 1
        else:
            pos += 1
    return math.floor(best) + 1

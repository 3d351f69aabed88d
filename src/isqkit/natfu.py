"""Concrete functional units over the naturals, and register machine support.

Ships the unbounded counter, the n-step decrement units, a 20-method
universal unit (``univ``) driven by prime-exponent encodings of six-register
machines, and a three-method universal unit (``univ3``) that packs the
twenty operations behind an index-selection scheme.

The universal units hold their states as ``Nat``: the exponents of the six
primes plus a cofactor coprime to them.  A register step multiplies or
divides by one prime, which changes one exponent in O(1) however large the
state, and cycle detection stores six small ints per state rather than the
whole integer.  A ``Nat`` equals, orders and hashes as the int it denotes.
It prints in decimal unless the interpreter's int-to-str limit (4300 digits
by default) forbids it, and then in factored form, such as ``2^20000``.

``rm_run`` is a direct six-register machine interpreter used as an
independent oracle for the ``rmlful`` translation: register i lives in the
exponent of the (i+1)-th prime, so incrementing is multiplication,
decrementing is division, and a zero test is a divisibility test.  It
decodes the program once into per-position (kind, register, true delta,
false delta) tuples and shares no code with ``execution.run``.

Three methods suffice for universality (``univ3_unit``); one cannot, since
repeatedly running any fixed program over a single method operation can
only revisit a bounded orbit of states and so cannot realize an unbounded
increment.  Whether two methods suffice is, to our knowledge, open.  Neither
fact is mechanized here: the first is untestable, the second unanswered.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import total_ordering

from .execution import DEFAULT_MODE, BudgetExhausted, ExecMode
from .funit import FunctionalUnit
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
    decode,
    parse_program,
    repeat_instruction,
)
from .services import Reply

PRIMES = (2, 3, 5, 7, 11, 13)

RML_FOCI = tuple(f"r{i}" for i in range(6))
RML_METHODS = ("incr", "decr", "iszero")

_M = sys.hash_info.modulus
_LOG2 = tuple(math.log2(p) for p in PRIMES)
_LOG2_10 = math.log2(10)
_NO_EXPS = (0,) * len(PRIMES)


@total_ordering
class Nat:
    """The natural 2^e0 * 3^e1 * 5^e2 * 7^e3 * 11^e4 * 13^e5 * r, kept factored.

    ``exps`` holds e0..e5 and ``r`` the cofactor, coprime to the six primes;
    r = 0 stands for zero, whose exponents are all 0.  Multiplying or
    dividing by one of the primes changes one exponent, so the universal
    units' register steps cost O(1) however large the state grows, and the
    integer is built only by ``int()``.

    A ``Nat`` is the natural it denotes: ``==``, ``hash`` and ordering agree
    with the int, so states compare and hash alike whether they are held as
    ``Nat`` or ``int``.  The hash is the int's hash, r * prod(p**e) modulo
    ``sys.hash_info.modulus``, kept up to date with one modular
    multiplication per step.  ``str`` prints decimal where the interpreter's
    int-to-str limit allows it and the factored form, such as ``2^20000``,
    otherwise.  ``Nat.of`` makes one from an int.
    """

    __slots__ = ("exps", "r", "_hash")

    @classmethod
    def of(cls, x) -> "Nat":
        """``x`` itself if it is a ``Nat``, else the int x factored."""
        if type(x) is cls:
            return x
        n = operator.index(x)
        if n < 0:
            raise ValueError(f"{n} is not a natural")
        if not n:
            return ZERO
        h = hash(n)
        exps = []
        for p in PRIMES:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            exps.append(e)
        return _nat(tuple(exps), n, h)

    def __int__(self) -> int:
        n = self.r
        for p, e in zip(PRIMES[1:], self.exps[1:]):
            if e:
                n *= p**e
        return n << self.exps[0]

    __index__ = __int__

    def __bool__(self) -> bool:
        return self.r != 0

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if type(other) is Nat:
            return self.exps == other.exps and self.r == other.r
        if isinstance(other, int):
            return self._hash == hash(other) and int(self) == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if not isinstance(other, (Nat, int)):
            return NotImplemented
        return int(self) < int(other)

    def __str__(self) -> str:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # a lower bound on log2 of the value; past the threshold below, the
        # decimal form surely has more digits than the limit allows
        log2 = sum(e * lg for e, lg in zip(self.exps, _LOG2)) + self.r.bit_length() - 1
        if not limit or log2 < limit * _LOG2_10 + 1:
            try:
                return str(int(self))
            except ValueError:
                pass
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in zip(PRIMES, self.exps) if e]
        if self.r != 1:
            try:
                parts.append(str(self.r))
            except ValueError:  # the cofactor alone is too long for decimal
                parts.append(hex(self.r))
        return "*".join(parts)

    __repr__ = __str__


def _nat(exps: tuple, r: int, h: int) -> Nat:
    """A Nat from fields known to be canonical, with its hash."""
    x = object.__new__(Nat)
    x.exps, x.r, x._hash = exps, r, h
    return x


ZERO = _nat(_NO_EXPS, 0, 0)


def _exp2(n) -> Nat:
    """2**n, without building it."""
    n = int(n)
    if n < 0:
        raise ValueError(f"{n} is not a natural")
    return _nat((n, 0, 0, 0, 0, 0), 1, pow(2, n, _M))


def counter_unit() -> FunctionalUnit:
    """The unbounded counter: set to zero, increment, decrement, zero test."""

    def setzero(x: int):
        return (True, 0)

    def incr(x: int):
        return (True, x + 1)

    def decr(x: int):
        return (True, x - 1) if x > 0 else (False, 0)

    def iszero(x: int):
        return (x == 0, x)

    return FunctionalUnit.from_callables(
        {"setzero": setzero, "incr": incr, "decr": decr, "iszero": iszero}
    )


def decr_n_unit(n: int) -> FunctionalUnit:
    """Two methods: subtract n (failing below n), and the zero test."""
    if n < 0:
        raise ValueError("n must be a natural")

    def decr_n(x: int):
        return (True, x - n) if x >= n else (False, 0)

    def iszero(x: int):
        return (x == 0, x)

    return FunctionalUnit.from_callables({f"decr{n}": decr_n, "iszero": iszero})


def _univ_ops() -> dict:
    def exp2(x):
        return (True, _exp2(x))

    def fact5(x):
        x = Nat.of(x)
        return (True, x.exps[2])

    ops = {"exp2": exp2, "fact5": fact5}
    for i, p in enumerate(PRIMES):

        def succ(x, _i=i, _p=p):
            x = Nat.of(x)
            if not x.r:
                return (True, x)
            e = list(x.exps)
            e[_i] += 1
            return (True, _nat(tuple(e), x.r, x._hash * _p % _M))

        def pred(x, _i=i, _inv=pow(p, -1, _M)):
            x = Nat.of(x)
            if not x.exps[_i]:
                return (not x.r, x)  # p divides zero, and zero // p is zero
            e = list(x.exps)
            e[_i] -= 1
            return (True, _nat(tuple(e), x.r, x._hash * _inv % _M))

        def iszero(x, _i=i):
            x = Nat.of(x)
            return (x.r != 0 and not x.exps[_i], x)

        ops[f"succ{i}"] = succ
        ops[f"pred{i}"] = pred
        ops[f"iszero{i}"] = iszero
    return ops


def univ_unit() -> FunctionalUnit:
    """The 20-method universal unit over prime-exponent encoded registers.

    Its states are ``Nat``s; an int state is factored once, by the first
    operation applied to it.  ``fact5`` returns the exponent of five as an int.
    """
    return FunctionalUnit.from_callables(_univ_ops())


# Canonical ordering of the universal unit's operations, used by the
# three-method unit's index selection.
UNIV_METHOD_ORDER: tuple[str, ...] = ("exp2", "fact5") + tuple(
    name for i in range(6) for name in (f"succ{i}", f"pred{i}", f"iszero{i}")
)


_UNDO_SELECTOR = pow(3, -(len(UNIV_METHOD_ORDER) - 1), _M)


def univ3_unit() -> FunctionalUnit:
    """Three methods sufficing for universality.

    g1 loads an encoding, g2 ticks an operation selector in the exponent of
    three (failing once the selector would leave 0..19 or the state stops
    being of the form 2^a * 3^b), and g3 applies the selected operation of
    the 20-method unit to the exponent of two.
    """
    univ_ops = univ_unit().ops
    selected = [univ_ops[name] for name in UNIV_METHOD_ORDER]
    last = len(selected) - 1

    def g1(x):
        return (True, _exp2(x))

    def g2(x):
        x = Nat.of(x)
        a, i, *others = x.exps
        if x.r != 1 or any(others) or i > last:
            return (False, ZERO)
        if i == last:
            return (True, _nat((a, 0, 0, 0, 0, 0), 1, x._hash * _UNDO_SELECTOR % _M))
        return (True, _nat((a, i + 1, 0, 0, 0, 0), 1, x._hash * 3 % _M))

    def g3(x):
        x = Nat.of(x)
        a, i = x.exps[:2]
        if i > last:
            return (False, ZERO)  # unreachable through g1/g2 discipline
        return selected[i](a)

    return FunctionalUnit.from_callables({"g1": g1, "g2": g2, "g3": g3})


def univ3_program(i: int) -> Program:
    """The program deriving the i-th universal operation from the 3-method unit."""
    if not 0 <= i <= 19:
        raise ValueError("operation index must be in 0..19")
    f = "f"
    instrs = [Plain(BasicInstruction(f, "g1"))]
    instrs.extend(repeat_instruction(Plain(BasicInstruction(f, "g2")), i))
    instrs.append(PosTest(BasicInstruction(f, "g3")))
    instrs.append(HaltP())
    instrs.append(HaltN())
    return Program(tuple(instrs))


def validate_rml(program: Program) -> None:
    """Check that a program only uses the six-register basic instructions."""
    for u in program:
        if isinstance(u, (Plain, PosTest, NegTest)):
            b = u.basic
            if b.focus not in RML_FOCI or b.method not in RML_METHODS:
                raise ValueError(f"foreign basic instruction {b}")


# Kinds of decoded register instructions.
_INCR, _DECR, _ISZERO, _JUMP, _HALT, _DEAD = range(6)
_KIND = {"incr": _INCR, "decr": _DECR, "iszero": _ISZERO}


def _decode_registers(program: Program) -> list[tuple[int, int, int, int]]:
    """Per position: (kind, register, position delta on true, delta on false)."""
    code = []
    for u in program:
        if isinstance(u, (HaltP, HaltN)):
            code.append((_HALT, 0, 0, 0))
        elif isinstance(u, (FwdJump, BwdJump)):
            delta = u.offset if isinstance(u, FwdJump) else -u.offset
            code.append((_JUMP, 0, delta, delta) if delta else (_DEAD, 0, 0, 0))
        else:
            skip_on_true = isinstance(u, NegTest)
            skip_on_false = isinstance(u, PosTest)
            code.append(
                (_KIND[u.basic.method], int(u.basic.focus[1]), 1 + skip_on_true, 1 + skip_on_false)
            )
    return code


def _run_registers(program: Program, value: int, mode: ExecMode, trace: list | None):
    validate_rml(program)
    code = _decode_registers(program)
    regs = [value, 0, 0, 0, 0, 0]
    k = len(code)
    pos = 1
    steps = 0
    limit = mode.budget if mode.budget is not None else math.inf
    visited: set | None = set() if mode.detect_cycles else None
    while True:
        if pos == k + 1:
            return (Reply.T if regs[1] == 0 else Reply.F, regs[2])
        if not 1 <= pos <= k:
            return (Reply.D, 0)
        if visited is not None:
            config = (pos, *regs)
            if config in visited:
                return (Reply.D, 0)
            visited.add(config)
        if steps >= limit:
            raise BudgetExhausted(f"register machine exceeded {mode.budget} steps")
        kind, i, on_true, on_false = code[pos - 1]
        steps += 1
        if kind == _ISZERO:
            delta = on_false if regs[i] else on_true
        elif kind == _JUMP:
            pos += on_true
            continue
        elif kind == _DECR:
            if regs[i]:
                regs[i] -= 1
                delta = on_true
            else:
                delta = on_false
        elif kind == _INCR:
            regs[i] += 1
            delta = on_true
        elif kind == _HALT:
            # halts signal completion; outputs are read from the registers
            return (Reply.T if regs[1] == 0 else Reply.F, regs[2])
        else:
            return (Reply.D, 0)
        if trace is not None:
            trace.append((pos, tuple(regs)))
        pos += delta


def rm_run(program: Program, value: int, mode: ExecMode = DEFAULT_MODE) -> tuple[Reply, int]:
    """Direct register machine semantics: the oracle for the translation.

    Starts with the input in register 0 and everything else zero.  The run
    completes when control passes exactly one position beyond the sequence or
    reaches a halt instruction; the Boolean output is true iff register 1 is
    zero and the natural output is register 2.  Any other control transfer
    out of the sequence diverges.
    """
    return _run_registers(program, value, mode, None)


def rm_trace(program: Program, value: int, mode: ExecMode = DEFAULT_MODE):
    """Register contents after each executed basic instruction."""
    trace: list = []
    _run_registers(program, value, mode, trace)
    return trace


def _psi(basic: BasicInstruction) -> BasicInstruction:
    i = basic.focus[1]
    method = {"incr": f"succ{i}", "decr": f"pred{i}", "iszero": f"iszero{i}"}[basic.method]
    return BasicInstruction("f", method)


_DECODE = parse_program("-f.iszero1 ; #3 ; f.fact5 ; !t ; f.fact5 ; !f")


def rmlful(program: Program) -> Program:
    """Translate a six-register program to one over the universal unit.

    The wrapper first encodes the input into the exponent of two, then maps
    each register instruction to its prime-exponent counterpart, and finally
    decodes register 1 into the Boolean reply and register 2 into the
    resulting state.  Halts and control transfers to register position k+1
    go to the decode block; any other transfer out of the register program
    deadlocks, as it does under ``rm_run``.
    """
    validate_rml(program)
    k = len(program)
    blocks: list = [("encode", (Plain(BasicInstruction("f", "exp2")),))]
    for i, (u,) in decode(program):
        if isinstance(u, (HaltP, HaltN)):
            u = Goto(k + 1)
        elif not isinstance(u, Goto):
            u = type(u)(_psi(u.basic))
        blocks.append((i, (u,)))
    if isinstance(u, (PosTest, NegTest)):
        # the last test's skip leaves the register program
        blocks.append(("skip", (Goto(k + 1), FwdJump(0))))
    blocks.append((k + 1, _DECODE))
    return assemble(blocks)

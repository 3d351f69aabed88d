"""Concrete functional units over the naturals, and register machine support.

Ships the unbounded counter, the n-step decrement units, a 20-method
universal unit (``univ``) driven by prime-exponent encodings of six-register
machines, and a three-method universal unit (``univ3``) that packs the
twenty operations behind an index-selection scheme.

``rm_run`` is a direct six-register machine interpreter used as an
independent oracle for the ``rmlful`` translation: register i lives in the
exponent of the (i+1)-th prime, so incrementing is multiplication,
decrementing is division, and a zero test is a divisibility test.

Three methods suffice for universality (``univ3_unit``); one cannot, since
repeatedly running any fixed program over a single method operation can
only revisit a bounded orbit of states and so cannot realize an unbounded
increment.  Whether two methods suffice is, to our knowledge, open.  Neither
fact is mechanized here: the first is untestable, the second unanswered.
"""

from __future__ import annotations

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


def _exponent(p: int, x: int) -> int:
    """Largest e with p**e dividing x; zero by convention when x is zero."""
    if x <= 0:
        return 0
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


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
    ops: dict = {}

    def exp2(x: int):
        return (True, 2**x)

    def fact5(x: int):
        return (True, _exponent(5, x))

    ops["exp2"] = exp2
    ops["fact5"] = fact5
    for i, p in enumerate(PRIMES):

        def succ(x: int, _p=p):
            return (True, _p * x)

        def pred(x: int, _p=p):
            return (True, x // _p) if x % _p == 0 else (False, x)

        def iszero(x: int, _p=p):
            return (x % _p != 0, x)

        ops[f"succ{i}"] = succ
        ops[f"pred{i}"] = pred
        ops[f"iszero{i}"] = iszero
    return ops


def univ_unit() -> FunctionalUnit:
    """The 20-method universal unit over prime-exponent encoded registers."""
    return FunctionalUnit.from_callables(_univ_ops())


# Canonical ordering of the universal unit's operations, used by the
# three-method unit's index selection.
UNIV_METHOD_ORDER: tuple[str, ...] = ("exp2", "fact5") + tuple(
    name for i in range(6) for name in (f"succ{i}", f"pred{i}", f"iszero{i}")
)


_G2_CAP = 3**19


def univ3_unit() -> FunctionalUnit:
    """Three methods sufficing for universality.

    g1 loads an encoding, g2 ticks an operation selector in the exponent of
    three (failing once the selector would leave 0..19 or the state stops
    being of the form 2^a * 3^b), and g3 applies the selected operation of
    the 20-method unit to the exponent of two.
    """
    univ_ops = univ_unit().ops
    selected = [univ_ops[name] for name in UNIV_METHOD_ORDER]

    def g1(x: int):
        return (True, 2**x)

    def only_2_3(x: int) -> bool:
        if x < 1:
            return False
        for p in (2, 3):
            while x % p == 0:
                x //= p
        return x == 1

    def g2(x: int):
        if x % (_G2_CAP * 3) == 0 or not only_2_3(x):
            return (False, 0)
        if x % _G2_CAP == 0:
            return (True, x // _G2_CAP)
        return (True, 3 * x)

    def g3(x: int):
        i = _exponent(3, x)
        if i >= len(selected):
            return (False, 0)  # unreachable through g1/g2 discipline
        return selected[i](_exponent(2, x))

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


def _register_step(regs: list[int], basic: BasicInstruction) -> Reply:
    i = int(basic.focus[1])
    c = regs[i]
    if basic.method == "incr":
        regs[i] = c + 1
        return Reply.T
    if basic.method == "decr":
        if c > 0:
            regs[i] = c - 1
            return Reply.T
        return Reply.F
    return Reply.T if c == 0 else Reply.F  # iszero


def _run_registers(program: Program, value: int, mode: ExecMode, trace: list | None):
    validate_rml(program)
    regs = [value, 0, 0, 0, 0, 0]
    k = len(program)
    pos = 1
    steps = 0
    visited: set | None = set() if mode.detect_cycles else None
    while True:
        if pos == k + 1:
            return (Reply.T if regs[1] == 0 else Reply.F, regs[2])
        if not 1 <= pos <= k:
            return (Reply.D, 0)
        if visited is not None:
            config = (pos, tuple(regs))
            if config in visited:
                return (Reply.D, 0)
            visited.add(config)
        if mode.budget is not None and steps >= mode.budget:
            raise BudgetExhausted(f"register machine exceeded {mode.budget} steps")
        instr = program[pos - 1]
        steps += 1
        if isinstance(instr, (HaltP, HaltN)):
            # halts signal completion; outputs are read from the registers
            return (Reply.T if regs[1] == 0 else Reply.F, regs[2])
        if isinstance(instr, FwdJump):
            if instr.offset == 0:
                return (Reply.D, 0)
            pos += instr.offset
            continue
        if isinstance(instr, BwdJump):
            if instr.offset == 0:
                return (Reply.D, 0)
            pos -= instr.offset
            if pos < 1:
                return (Reply.D, 0)
            continue
        reply = _register_step(regs, instr.basic)
        if trace is not None:
            trace.append((pos, tuple(regs)))
        if isinstance(instr, Plain):
            pos += 1
        elif isinstance(instr, PosTest):
            pos += 1 if reply is Reply.T else 2
        else:  # NegTest
            pos += 2 if reply is Reply.T else 1


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

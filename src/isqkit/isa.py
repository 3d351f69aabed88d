"""Instruction sequence syntax: parsing, printing, layout, repetition, normalization.

Concrete grammar (any Unicode whitespace may surround an instruction or ``;``)::

    program := instr (';' instr)*
    instr   := basic | '+' basic | '-' basic | '#' nat | '\\' nat | '!t' | '!f'
    basic   := ident '.' ident
    ident   := [a-z][a-z0-9_]*
    nat     := '0' | [1-9][0-9]*

A basic instruction ``f.m`` asks the service named ``f`` to process method
``m``; the Boolean reply steers execution.  ``+f.m`` continues with the next
instruction on a true reply and skips one instruction on a false reply;
``-f.m`` swaps the two roles; plain ``f.m`` always continues with the next
instruction.  ``#l`` and ``\\l`` are relative jumps (``#0``, ``\\0`` and jumps
off either end of the sequence deadlock).  ``!t`` and ``!f`` halt execution,
delivering true respectively false.

Every program isqkit writes is laid out by ``assemble``, which places
labelled blocks in order and turns each ``Goto(label)`` into the jump to the
first position of that block; a goto to a label no block carries, or to its
own position, becomes ``#0``.  No other module computes a jump offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, Iterator, Sequence, Union

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")
# one instruction with the whitespace around it and the ';' after it; groups:
# token, jump kind, offset, test sign, focus, method, separator
_INSTRUCTION_RE = re.compile(
    r"\s*(!t|!f|([#\\])(0|[1-9][0-9]*)|([+-]?)([a-z][a-z0-9_]*)\.([a-z][a-z0-9_]*))\s*(;?)"
)


class ParseError(ValueError):
    """Raised on malformed program text; carries the failing offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class BasicInstruction:
    """A focus.method pair naming one request to a named service."""

    focus: str
    method: str

    def __post_init__(self):
        for part in (self.focus, self.method):
            if not IDENT_RE.fullmatch(part):
                raise ValueError(f"bad identifier {part!r}")

    def __str__(self) -> str:
        return f"{self.focus}.{self.method}"


@dataclass(frozen=True)
class Plain:
    basic: BasicInstruction

    def __str__(self) -> str:
        return str(self.basic)


@dataclass(frozen=True)
class PosTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"+{self.basic}"


@dataclass(frozen=True)
class NegTest:
    basic: BasicInstruction

    def __str__(self) -> str:
        return f"-{self.basic}"


@dataclass(frozen=True)
class FwdJump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("jump offsets are naturals")

    def __str__(self) -> str:
        return f"#{self.offset}"


@dataclass(frozen=True)
class BwdJump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("jump offsets are naturals")

    def __str__(self) -> str:
        return f"\\{self.offset}"


@dataclass(frozen=True)
class HaltP:
    """Halt delivering true (rendered ``!t``)."""

    def __str__(self) -> str:
        return "!t"


@dataclass(frozen=True)
class HaltN:
    """Halt delivering false (rendered ``!f``)."""

    def __str__(self) -> str:
        return "!f"


@dataclass(frozen=True)
class Goto:
    """A jump to the block carrying ``label``, resolved by ``assemble``."""

    label: Hashable


Instruction = Union[Plain, PosTest, NegTest, FwdJump, BwdJump, HaltP, HaltN]

_INSTRUCTION_TYPES = (Plain, PosTest, NegTest, FwdJump, BwdJump, HaltP, HaltN)

_TESTS = {"": Plain, "+": PosTest, "-": NegTest}


@dataclass(frozen=True)
class Program:
    """A nonempty, immutable sequence of primitive instructions."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not self.instructions:
            raise ValueError("a program needs at least one instruction")
        for u in self.instructions:
            if not isinstance(u, _INSTRUCTION_TYPES):
                raise TypeError(f"not an instruction: {u!r}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __str__(self) -> str:
        return render_program(self)


def render_program(x: Program) -> str:
    """Inverse of parse_program, up to whitespace."""
    return " ; ".join(str(u) for u in x)


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError with the failing offset."""
    built: dict[str, Instruction] = {}  # instructions are immutable: one per distinct token
    instrs: list[Instruction] = []
    pos = 0
    while True:
        m = _INSTRUCTION_RE.match(text, pos)
        if m is None:
            raise _parse_error(text, pos)
        token, jump, nat, test, focus, method, separator = m.groups()
        u = built.get(token)
        if u is None:
            if jump:
                u = (FwdJump if jump == "#" else BwdJump)(int(nat))
            elif focus:
                u = _TESTS[test](BasicInstruction(focus, method))
            else:
                u = HaltP() if token == "!t" else HaltN()
            built[token] = u
        instrs.append(u)
        pos = m.end()
        if not separator:
            if pos < len(text):
                raise ParseError("expected ';' or end of input", pos)
            return Program(tuple(instrs))


def _parse_error(text: str, start: int) -> ParseError:
    """Why no instruction starts at start, which is 0 or just after a ';'."""
    pos = start
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos == len(text):
        return ParseError("expected an instruction after ';'" if start else "empty program", pos)
    ch = text[pos]
    if ch == "!":
        return ParseError("expected '!t' or '!f'", pos)
    if ch in "#\\":
        return ParseError("expected a natural number", pos + 1)
    if ch in "+-":
        pos += 1
    elif not (ch.isalpha() and ch.islower()):
        return ParseError(f"unexpected character {ch!r}", pos)
    m = IDENT_RE.match(text, pos)
    if m is None:
        return ParseError("expected an identifier", pos)
    if not text.startswith(".", m.end()):
        return ParseError("expected '.' in basic instruction", m.end())
    return ParseError("expected an identifier", m.end() + 1)


def repeat_instruction(u: Instruction, n: int) -> Program:
    """n-fold repetition of a single instruction.

    The zero-fold repetition is the skip ``#1``, so splicing a repetition
    into a larger sequence always consumes exactly max(n, 1) positions.
    """
    if n < 0:
        raise ValueError("repetition count must be a natural")
    if n == 0:
        return Program((FwdJump(1),))
    return Program((u,) * n)


def decode(x: Program) -> list[tuple[int, tuple]]:
    """x as one-instruction blocks labelled by position, its jumps as gotos.

    ``assemble`` inverts it, except that a jump leaving x comes back as ``#0``.
    """
    blocks: list[tuple[int, tuple]] = []
    for i, u in enumerate(x, start=1):
        if isinstance(u, FwdJump):
            u = Goto(i + u.offset)
        elif isinstance(u, BwdJump):
            u = Goto(i - u.offset)
        blocks.append((i, (u,)))
    return blocks


def assemble(blocks: Sequence[tuple[Hashable, Sequence]]) -> Program:
    """Lay out ``(label, items)`` blocks in order; each goto becomes a jump.

    Items are instructions or gotos, and labels are distinct.  A goto jumps
    to the first position of the block carrying its label; a goto to a label
    no block carries, or to its own position, becomes ``#0``.
    """
    starts = {}
    pos = 1
    for label, items in blocks:
        starts[label] = pos
        pos += len(items)
    jumps: dict[int, Instruction] = {}  # jumps are immutable: one per offset serves all
    out: list[Instruction] = []
    for _, items in blocks:
        for item in items:
            if isinstance(item, Goto):
                here = len(out) + 1
                offset = starts.get(item.label, here) - here
                if offset not in jumps:
                    jumps[offset] = FwdJump(offset) if offset >= 0 else BwdJump(-offset)
                item = jumps[offset]
            out.append(item)
    return Program(tuple(out))


def normalize(x: Program) -> Program:
    """Rewrite x so only positive tests and jumps precede a final ``!t ; !f``.

    Each source instruction becomes a block labelled by its position: a
    plain basic instruction becomes a positive test whose branches converge,
    a negative test becomes a positive test with swapped continuations, and
    halts become gotos to the mandated tail.  Control transfers off either
    end of the source sequence stay deadlocks (``#0``).  The extracted
    behaviour of the result is bisimilar to that of the input.
    """
    blocks: list[tuple[Hashable, tuple]] = []
    for i, (u,) in decode(x):
        if isinstance(u, Plain):
            items = (PosTest(u.basic), Goto(i + 1), Goto(i + 1))
        elif isinstance(u, PosTest):
            items = (u, Goto(i + 1), Goto(i + 2))
        elif isinstance(u, NegTest):
            items = (PosTest(u.basic), Goto(i + 2), Goto(i + 1))
        elif isinstance(u, (HaltP, HaltN)):
            items = (Goto(u),)  # the tail block labelled by the halt
        else:
            items = (u,)
        blocks.append((i, items))
    blocks += [(HaltP(), (HaltP(),)), (HaltN(), (HaltN(),))]
    return assemble(blocks)


def is_normalized(x: Program) -> bool:
    """True when x has the shape produced by normalize."""
    if len(x) < 2:
        return False
    *body, p, q = x.instructions
    if not isinstance(p, HaltP) or not isinstance(q, HaltN):
        return False
    return all(isinstance(u, (PosTest, FwdJump, BwdJump)) for u in body)

import ast
import hashlib
import pathlib
import random
import re

import pytest
from hypothesis import given

import isqkit
from isqkit.isa import (
    IDENT_RE,
    BasicInstruction,
    BwdJump,
    FwdJump,
    Goto,
    HaltN,
    HaltP,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    Program,
    assemble,
    decode,
    is_normalized,
    normalize,
    parse_program,
    render_program,
    repeat_instruction,
)
from isqkit.natfu import rmlful
from isqkit.threads import TermN, TermP, bisimilar, compile_thread, extract

from .strategies import programs, random_program, random_rml_program, random_spec

FM = BasicInstruction("f", "m")


def reference_parse_program(text: str) -> Program:
    """A character-by-character parser of the same grammar, kept as an oracle."""
    nat_re = re.compile(r"0|[1-9][0-9]*")
    instrs = []
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def parse_nat() -> int:
        nonlocal pos
        m = nat_re.match(text, pos)
        if not m:
            raise ParseError("expected a natural number", pos)
        pos = m.end()
        return int(m.group())

    def parse_ident() -> str:
        nonlocal pos
        m = IDENT_RE.match(text, pos)
        if not m:
            raise ParseError("expected an identifier", pos)
        pos = m.end()
        return m.group()

    def parse_basic() -> BasicInstruction:
        nonlocal pos
        focus = parse_ident()
        if pos >= n or text[pos] != ".":
            raise ParseError("expected '.' in basic instruction", pos)
        pos += 1
        return BasicInstruction(focus, parse_ident())

    def parse_instruction():
        nonlocal pos
        if pos >= n:
            raise ParseError("expected an instruction", pos)
        ch = text[pos]
        if ch == "!":
            if text.startswith("!t", pos):
                pos += 2
                return HaltP()
            if text.startswith("!f", pos):
                pos += 2
                return HaltN()
            raise ParseError("expected '!t' or '!f'", pos)
        if ch == "#":
            pos += 1
            return FwdJump(parse_nat())
        if ch == "\\":
            pos += 1
            return BwdJump(parse_nat())
        if ch == "+":
            pos += 1
            return PosTest(parse_basic())
        if ch == "-":
            pos += 1
            return NegTest(parse_basic())
        if ch.isalpha() and ch.islower():
            return Plain(parse_basic())
        raise ParseError(f"unexpected character {ch!r}", pos)

    skip_ws()
    if pos == n:
        raise ParseError("empty program", pos)
    while True:
        instrs.append(parse_instruction())
        skip_ws()
        if pos == n:
            break
        if text[pos] != ";":
            raise ParseError("expected ';' or end of input", pos)
        pos += 1
        skip_ws()
        if pos == n:
            raise ParseError("expected an instruction after ';'", pos)
    return Program(tuple(instrs))


def parse_outcome(parse, text):
    """The program parsed from text, or the message and offset of its ParseError."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.position


# characters the grammar uses, whitespace it skips, and characters it rejects
# (non-ASCII lowercase letters among them)
MUTATION_ALPHABET = "!tf#\\+-.;019amnz_ \t\n\r\x0b\x1c\xa0\u2003\u3000FQ?@éßΩ٣"


def mutated_text(rng: random.Random) -> str:
    """A rendered random program, respaced, then edited a few characters at a time."""
    seps = ["", " ", "  ", "\t", "\n", "\u00a0"]
    parts = [str(u) for u in random_program(rng, max_len=6)]
    text = "".join(
        rng.choice(seps) + part + rng.choice(seps) + (";" if i < len(parts) - 1 else "")
        for i, part in enumerate(parts)
    )
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        i = rng.randint(0, len(text))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1 :]
    return text


class TestParse:
    def test_single_halt(self):
        assert parse_program("!t") == Program((HaltP(),))

    def test_token_mapping(self):
        assert parse_program("+f.m ; !t ; !f") == Program((PosTest(FM), HaltP(), HaltN()))

    def test_zero_jump_is_legal(self):
        assert parse_program("#0") == Program((FwdJump(0),))

    def test_all_instruction_forms(self):
        text = "f.m ; +f.m ; -f.m ; #3 ; \\2 ; !t ; !f"
        assert parse_program(text) == Program(
            (Plain(FM), PosTest(FM), NegTest(FM), FwdJump(3), BwdJump(2), HaltP(), HaltN())
        )

    def test_whitespace_is_free(self):
        assert parse_program("  +f.m;!t ;\n !f ") == parse_program("+f.m ; !t ; !f")

    def test_empty_program_rejected(self):
        with pytest.raises(ParseError, match="empty program"):
            parse_program("   ")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("!t ; ?f.m")
        assert err.value.position == 5

    def test_trailing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_program("!t ;")

    def test_leading_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_program("#01")

    def test_uppercase_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_program("F.m")

    @given(programs)
    def test_roundtrip(self, program):
        assert parse_program(render_program(program)) == program

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("", "empty program", 0),
            (" \t\n\u3000", "empty program", 4),
            ("!x", "expected '!t' or '!f'", 0),
            ("!t ; !", "expected '!t' or '!f'", 5),
            ("#", "expected a natural number", 1),
            ("!t ; \\-1", "expected a natural number", 6),
            ("# 1", "expected a natural number", 1),
            ("+.m", "expected an identifier", 1),
            ("- f.m", "expected an identifier", 1),
            ("f.", "expected an identifier", 2),
            ("f.M", "expected an identifier", 2),
            ("é.m", "expected an identifier", 0),
            ("+ß.m", "expected an identifier", 1),
            ("f", "expected '.' in basic instruction", 1),
            ("f .m", "expected '.' in basic instruction", 1),
            ("+f_1;!t", "expected '.' in basic instruction", 4),
            ("?f.m", "unexpected character '?'", 0),
            ("!t ; F.m", "unexpected character 'F'", 5),
            ("!t ; 1", "unexpected character '1'", 5),
            ("!t ; ;", "unexpected character ';'", 5),
            ("!t !f", "expected ';' or end of input", 3),
            ("#01", "expected ';' or end of input", 2),
            ("f.mé", "expected ';' or end of input", 3),
            ("!t ;", "expected an instruction after ';'", 4),
            ("!t ;\u00a0\n", "expected an instruction after ';'", 6),
        ],
    )
    def test_error_messages_are_pinned(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position

    def test_seeded_mutations_agree_with_the_reference(self):
        rng = random.Random(31337)
        outcomes = {"program": 0, "error": 0}
        for _ in range(25_000):
            text = mutated_text(rng)
            got = parse_outcome(parse_program, text)
            assert got == parse_outcome(reference_parse_program, text), text
            outcomes["program" if isinstance(got, Program) else "error"] += 1
        # both kinds of outcome are well represented
        assert min(outcomes.values()) > 5_000


class TestRepeat:
    def test_zero_is_skip(self):
        assert repeat_instruction(Plain(BasicInstruction("f", "g2")), 0) == Program((FwdJump(1),))

    def test_one_is_identity(self):
        u = Plain(BasicInstruction("f", "g2"))
        assert repeat_instruction(u, 1) == Program((u,))

    def test_unfolds(self):
        u = Plain(BasicInstruction("f", "g2"))
        assert repeat_instruction(u, 3) == Program((u, u, u))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            repeat_instruction(HaltP(), -1)


class TestNormalize:
    def test_plain_becomes_test(self):
        out = normalize(parse_program("f.m ; !t ; !f"))
        assert is_normalized(out)
        assert bisimilar(extract(out), extract(parse_program("f.m ; !t ; !f")))

    def test_single_halt(self):
        out = normalize(parse_program("!t"))
        assert is_normalized(out)
        assert bisimilar(extract(out), extract(parse_program("!t")))

    def test_negative_test_swaps_branches(self):
        out = normalize(parse_program("-f.m ; !t ; !f"))
        assert is_normalized(out)
        spec = extract(out)
        root = spec.entries[spec.root]
        assert isinstance(spec.entries[root.true_next], TermN)
        assert isinstance(spec.entries[root.false_next], TermP)

    def test_out_of_range_jump_stays_deadlock(self):
        out = normalize(parse_program("#9 ; !t"))
        assert is_normalized(out)
        assert bisimilar(extract(out), extract(parse_program("#0")))

    def test_seeded_bulk_bisimilarity(self):
        rng = random.Random(7)
        for _ in range(150):
            program = random_program(rng)
            normalized = normalize(program)
            assert is_normalized(normalized)
            assert bisimilar(extract(normalized), extract(program))

    @given(programs)
    def test_property_bisimilar_and_shaped(self, program):
        normalized = normalize(program)
        assert is_normalized(normalized)
        assert bisimilar(extract(normalized), extract(program))


class TestAssemble:
    def test_goto_lands_on_block_start(self):
        blocks = [
            ("a", (PosTest(FM), Goto("c"))),
            ("b", (Goto("a"),)),
            ("c", (HaltP(), Goto("b"))),
        ]
        assert render_program(assemble(blocks)) == "+f.m ; #2 ; \\2 ; !t ; \\2"

    def test_goto_into_own_block_jumps_back_to_its_start(self):
        assert render_program(assemble([("a", (PosTest(FM), Goto("a")))])) == "+f.m ; \\1"

    def test_unknown_label_and_self_goto_deadlock(self):
        blocks = [("a", (Goto("a"),)), ("b", (PosTest(FM), Goto("nowhere"))), ("c", (HaltN(),))]
        assert render_program(assemble(blocks)) == "#0 ; +f.m ; #0 ; !f"

    @given(programs)
    def test_decode_inverts_assemble_on_jumps_that_stay_inside(self, program):
        k = len(program)

        def kept(i, u):
            if isinstance(u, (FwdJump, BwdJump)):
                target = i + u.offset if isinstance(u, FwdJump) else i - u.offset
                if target == i or not 1 <= target <= k:
                    return FwdJump(0)
            return u

        want = Program(tuple(kept(i, u) for i, u in enumerate(program, start=1)))
        assert assemble(decode(program)) == want

    def test_seeded_layouts_are_pinned(self):
        # normalize, compile_thread and in-range rmlful output; a change of
        # layout shows up here before it shows up anywhere else
        digest = hashlib.sha256()
        rng = random.Random(2024)
        for _ in range(2000):
            digest.update(render_program(normalize(random_program(rng, max_len=12))).encode() + b"\n")
        for _ in range(1000):
            spec = random_spec(rng, max_states=10)
            digest.update(render_program(compile_thread(spec)).encode() + b"\n")
        for _ in range(1000):
            program = random_rml_program(rng, in_range=True)
            digest.update(render_program(rmlful(program)).encode() + b"\n")
        assert digest.hexdigest() == (
            "9635697c1a513b55c09d47a9739cfac91cee598cbeadacd6322f7c9f77ad1943"
        )

    def test_jump_offsets_are_computed_only_in_isa(self):
        # outside isa, programs get their jumps from assemble: a jump may be
        # constructed only with a literal offset
        offenders = []
        for path in sorted(pathlib.Path(isqkit.__file__).parent.glob("*.py")):
            if path.name == "isa.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                args = [*node.args, *(kw.value for kw in node.keywords)]
                if name in ("FwdJump", "BwdJump") and not all(
                    isinstance(a, ast.Constant) for a in args
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

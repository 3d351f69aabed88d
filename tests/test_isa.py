import ast
import hashlib
import pathlib
import random

import pytest
from hypothesis import given

import isqkit
from isqkit.isa import (
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

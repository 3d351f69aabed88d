import math
import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from isqkit import natfu
from isqkit.execution import BudgetExhausted, ExecMode
from isqkit.funit import UNDEFINED, derived_op
from isqkit.isa import (
    BwdJump,
    FwdJump,
    HaltN,
    HaltP,
    Plain,
    PosTest,
    parse_program,
    render_program,
)
from isqkit.natfu import (
    PRIMES,
    Nat,
    UNIV_METHOD_ORDER,
    counter_unit,
    decr_n_unit,
    rm_run,
    rm_trace,
    rmlful,
    univ3_program,
    univ3_unit,
    univ_unit,
    validate_rml,
)
from isqkit.services import Reply
from isqkit.threads import Post, extract

from .strategies import random_rml_program

COUNTER = counter_unit()
UNIV = univ_unit()
UNIV3 = univ3_unit()

# register machine corpus used throughout: name -> (program text, expected fn)
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
    # terminates through halts, exercising their rewrite into the decode block
    "even": (
        "+r0.iszero ; !t ; r0.decr ; +r0.iszero ; #3 ; r0.decr ; \\6 ; r1.incr ; #1",
        lambda n: (n % 2 == 0, 0),
    ),
}


# ---------------------------------------------------------------------------
# oracles: the universal units over plain ints, and the register machine
# interpreter's step loop before its program was decoded
# ---------------------------------------------------------------------------


def _exponent(p: int, x: int) -> int:
    """Largest e with p**e dividing x; zero by convention when x is zero."""
    if x <= 0:
        return 0
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def int_univ_ops() -> dict:
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


_G2_CAP = 3**19


def int_univ3_ops() -> dict:
    selected = [int_univ_ops()[name] for name in UNIV_METHOD_ORDER]

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
            return (False, 0)
        return selected[i](_exponent(2, x))

    return {"g1": g1, "g2": g2, "g3": g3}


def _register_step(regs: list[int], basic) -> Reply:
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


def reference_rm_run(program, value: int, mode: ExecMode, trace: list | None):
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


INT_UNIV = int_univ_ops()
INT_UNIV3 = int_univ3_ops()

# states: small naturals (0 and 1 included), products of the six primes with
# a cofactor, and encodings of two to three hundred bits
_PRIME_POWERS = st.tuples(*[st.integers(0, 40)] * len(PRIMES))
_COFACTORS = st.sampled_from([1, 17, 19 * 23, 29**3, 10**9 + 7])
naturals = st.one_of(
    st.integers(0, 2000),
    st.builds(
        lambda es, r: r * math.prod(p**e for p, e in zip(PRIMES, es)), _PRIME_POWERS, _COFACTORS
    ),
    st.builds(lambda a, r: r << a, st.integers(0, 300), _COFACTORS),
)
# exp2 and g1 stay on inputs whose powers of two are cheap to build as ints
_EXP_INPUT_CAP = 3000


def _check_step(op, oracle, v):
    """Apply one operation to v, check it against the oracle, return the new state."""
    got = op(v)
    want = oracle(int(v))
    assert got == want, (v, got, want)
    assert hash(got[1]) == hash(int(got[1]))
    assert int(got[1]) == want[1]
    return got[1]


class TestCounter:
    def test_setzero(self):
        assert COUNTER.ops["setzero"](41) == (True, 0)

    def test_decr_at_zero(self):
        assert COUNTER.ops["decr"](0) == (False, 0)

    def test_incr(self):
        assert COUNTER.ops["incr"](7) == (True, 8)

    def test_iszero(self):
        assert COUNTER.ops["iszero"](0) == (True, 0)
        assert COUNTER.ops["iszero"](3) == (False, 3)


class TestDecrN:
    def test_above_threshold(self):
        assert decr_n_unit(2).ops["decr2"](5) == (True, 3)

    def test_below_threshold(self):
        assert decr_n_unit(2).ops["decr2"](1) == (False, 0)

    def test_zero_steps(self):
        assert decr_n_unit(0).ops["decr0"](9) == (True, 9)

    def test_interface(self):
        assert decr_n_unit(3).interface == {"decr3", "iszero"}


class TestUniv:
    def test_exp2(self):
        assert UNIV.ops["exp2"](3) == (True, 8)

    def test_fact5(self):
        assert UNIV.ops["fact5"](500) == (True, 3)  # 500 = 5^3 * 4
        assert UNIV.ops["fact5"](7) == (True, 0)

    def test_pred(self):
        assert UNIV.ops["pred2"](10) == (True, 2)  # prime 5 divides 10
        assert UNIV.ops["pred0"](7) == (False, 7)

    def test_iszero(self):
        assert UNIV.ops["iszero1"](8) == (True, 8)  # 3 does not divide 8
        assert UNIV.ops["iszero1"](9) == (False, 9)

    def test_succ(self):
        for i, p in enumerate(PRIMES):
            assert UNIV.ops[f"succ{i}"](6) == (True, 6 * p)

    def test_twenty_methods(self):
        assert len(UNIV.ops) == 20
        assert set(UNIV_METHOD_ORDER) == UNIV.interface

    def test_canonical_order(self):
        assert UNIV_METHOD_ORDER[0] == "exp2"
        assert UNIV_METHOD_ORDER[1] == "fact5"
        assert UNIV_METHOD_ORDER[2:5] == ("succ0", "pred0", "iszero0")
        assert UNIV_METHOD_ORDER[7] == "iszero1"


class TestUniv3:
    def test_loader(self):
        assert UNIV3.ops["g1"](4) == (True, 16)

    def test_selector_tick(self):
        assert UNIV3.ops["g2"](8) == (True, 24)

    def test_selector_wraps(self):
        assert UNIV3.ops["g2"](3**19) == (True, 1)

    def test_selector_rejects_foreign_primes(self):
        assert UNIV3.ops["g2"](5) == (False, 0)

    def test_selector_rejects_overflow(self):
        assert UNIV3.ops["g2"](3**20) == (False, 0)
        assert UNIV3.ops["g2"](0) == (False, 0)

    def test_apply_selected(self):
        # selector 0 applies exp2 to the exponent of two
        assert UNIV3.ops["g3"](2**3) == (True, 8)
        # selector 2 applies succ0, i.e. doubling of the plain natural 4
        assert UNIV3.ops["g3"](2**4 * 3**2) == (True, 8)
        # selector 3 applies pred0
        assert UNIV3.ops["g3"](2**4 * 3**3) == (True, 2)

    def test_selector_discipline(self):
        # from a loaded encoding, up to 19 ticks never hit the failure clause
        for start in (0, 5, 12):
            state = UNIV3.ops["g1"](start)[1]
            for _ in range(19):
                flag, state = UNIV3.ops["g2"](state)
                assert flag is True


class TestNat:
    def test_equals_and_hashes_as_the_int(self):
        for n in (0, 1, 2, 17, 12 * 17, 2**70 * 13, 3**50 * 101):
            v = Nat.of(n)
            assert v == n and n == v and hash(v) == hash(n)
            assert int(v) == n and str(v) == str(n) and repr(v) == str(n)
            assert v != n + 1 and Nat.of(n + 1) != v
            assert {v: "x"}[n] == "x"
        assert Nat.of(12) < 13 and Nat.of(12) <= 12 and 11 < Nat.of(12) and Nat.of(12) > Nat.of(3)
        assert not Nat.of(0) and Nat.of(5)
        assert list(range(10))[Nat.of(3)] == 3
        assert Nat.of(2) != "2"
        # the modulus plus one hashes as 1: equality must not stop at the hash
        m = sys.hash_info.modulus
        assert hash(m + 1) == hash(1) and Nat.of(m + 1) != 1 and Nat.of(m + 1) != Nat.of(1)

    def test_of_factors_out_the_six_primes(self):
        v = Nat.of(2**5 * 3 * 13**2 * 17)
        assert (v.exps, v.r) == ((5, 1, 0, 0, 0, 2), 17)
        assert Nat.of(v) is v
        assert Nat.of(0).exps == (0,) * 6 and Nat.of(0).r == 0

    def test_of_rejects_negatives(self):
        with pytest.raises(ValueError):
            Nat.of(-3)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
    )
    def test_factored_beyond_the_int_to_str_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert str(Nat.of(2**20000)) == "2^20000"
            assert str(Nat.of(2**20000 * 3 * 7**3 * 17)) == "2^20000*3*7^3*17"
            # a cofactor that is itself too long for decimal is printed in hex
            big = 17**4000
            assert str(Nat.of(big)) == hex(big)
            # right at the limit: 4300 digits print in decimal, 4301 do not
            assert str(Nat.of(10**4299)) == str(10**4299)
            assert str(Nat.of(10**4300)) == "2^4300*5^4300"
        finally:
            sys.set_int_max_str_digits(old)

    def test_exp2_keeps_the_exponent(self):
        flag, v = UNIV.ops["exp2"](10**9)
        assert flag and v.exps == (10**9, 0, 0, 0, 0, 0) and v.r == 1
        assert hash(v) == pow(2, 10**9, sys.hash_info.modulus)
        assert UNIV.ops["fact5"](UNIV.ops["succ2"](v)[1]) == (True, 1)


class TestAgainstIntOracle:
    @given(naturals, st.sampled_from(UNIV_METHOD_ORDER))
    def test_univ_operation(self, n, name):
        if name == "exp2" and n > _EXP_INPUT_CAP:
            n %= _EXP_INPUT_CAP
        for v in (n, Nat.of(n)):
            _check_step(UNIV.ops[name], INT_UNIV[name], v)

    @given(naturals, st.lists(st.sampled_from(UNIV_METHOD_ORDER), max_size=30))
    def test_univ_chains(self, n, names):
        v = n
        for name in names:
            if name == "exp2" and v > _EXP_INPUT_CAP:
                continue
            v = _check_step(UNIV.ops[name], INT_UNIV[name], v)

    @given(
        st.one_of(
            naturals,
            # selectors near and past the wrap of g2
            st.builds(
                lambda a, i, r: r * 2**a * 3**i,
                st.integers(0, 200),
                st.integers(17, 21),
                _COFACTORS,
            ),
        ),
        st.lists(st.sampled_from(["g1", "g2", "g2", "g2", "g3"]), max_size=40),
    )
    def test_univ3_chains(self, n, names):
        v = n
        for name in names:
            if name == "g1" and v > _EXP_INPUT_CAP:
                continue
            if name == "g3" and _exponent(3, int(v)) == 0 and _exponent(2, int(v)) > _EXP_INPUT_CAP:
                continue  # selector 0 is exp2 of the exponent of two
            v = _check_step(UNIV3.ops[name], INT_UNIV3[name], v)


class TestUniv3Programs:
    def test_zero_repetitions_shape(self):
        assert render_program(univ3_program(0)) == "f.g1 ; #1 ; +f.g3 ; !t ; !f"

    def test_one_repetition_shape(self):
        assert render_program(univ3_program(1)) == "f.g1 ; f.g2 ; +f.g3 ; !t ; !f"

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            univ3_program(20)

    def test_simulates_selected_operation(self):
        for i in (0, 1, 7, 19):
            op = derived_op(univ3_program(i), UNIV3)
            want = UNIV.ops[UNIV_METHOD_ORDER[i]]
            for s in range(13):
                assert op(s) == want(s)


class TestRegisterMachine:
    def test_successor_loop(self):
        program = parse_program(RM_CORPUS["successor"][0])
        assert rm_run(program, 4) == (Reply.T, 5)

    def test_empty_body(self):
        assert rm_run(parse_program("#1"), 9) == (Reply.T, 0)

    def test_nonzero_bool_register(self):
        assert rm_run(parse_program("r1.incr ; #1"), 3) == (Reply.F, 0)

    def test_divergence(self):
        assert rm_run(parse_program("#0"), 5) == (Reply.D, 0)
        # a register-preserving loop repeats its configuration exactly
        assert rm_run(parse_program("r0.iszero ; \\1"), 4) == (Reply.D, 0)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhausted):
            rm_run(
                parse_program("r0.incr ; \\1"),
                0,
                ExecMode(budget=50, detect_cycles=False),
            )

    def test_corpus_values(self):
        for name, (text, fn) in RM_CORPUS.items():
            program = parse_program(text)
            for n in range(11):
                flag, value = fn(n)
                assert rm_run(program, n) == (Reply.of(flag), value), (name, n)

    def test_validate_rejects_foreign_instructions(self):
        with pytest.raises(ValueError, match="foreign basic instruction"):
            validate_rml(parse_program("f.incr ; !t"))
        with pytest.raises(ValueError):
            validate_rml(parse_program("r7.incr ; !t"))


class TestDecodedRegisterOracle:
    @staticmethod
    def outcome(interpreter, program, n, mode):
        trace: list = []
        try:
            result = interpreter(program, n, mode, trace)
        except BudgetExhausted as exc:
            result = ("budget", str(exc))
        return result, trace

    def test_agrees_with_the_reference_loop(self):
        rng = random.Random(606)
        modes = [
            ExecMode(budget, cycles) for budget in [*range(13), 1000] for cycles in (True, False)
        ]
        programs = [parse_program(text) for text, _ in RM_CORPUS.values()]
        programs += [
            parse_program(t) for t in ("#0", "\\1", "!t", "!f", "r1.incr ; !f", "+r0.decr")
        ]
        programs += [random_rml_program(rng) for _ in range(400)]
        for program in programs:
            for n in range(4):
                for mode in modes:
                    want = self.outcome(reference_rm_run, program, n, mode)
                    assert self.outcome(natfu._run_registers, program, n, mode) == want, (
                        render_program(program),
                        n,
                        mode,
                    )
                    if want[0][0] != "budget":
                        assert rm_run(program, n, mode) == want[0]
                        assert rm_trace(program, n, mode) == want[1]


class TestTranslation:
    def test_jump_only_shape(self):
        assert (
            render_program(rmlful(parse_program("#1")))
            == "f.exp2 ; #1 ; -f.iszero1 ; #3 ; f.fact5 ; !t ; f.fact5 ; !f"
        )

    def test_increment_shape(self):
        assert (
            render_program(rmlful(parse_program("r0.incr ; #1")))
            == "f.exp2 ; f.succ0 ; #1 ; -f.iszero1 ; #3 ; f.fact5 ; !t ; f.fact5 ; !f"
        )

    def test_polarity_preserved(self):
        translated = render_program(rmlful(parse_program("+r3.iszero ; -r4.decr ; #1")))
        assert "+f.iszero3" in translated
        assert "-f.pred4" in translated

    def test_halt_jumps_into_decode(self):
        # a halt at position i becomes a jump landing on the decode test
        translated = rmlful(parse_program("!t ; !f"))
        assert render_program(translated).startswith("f.exp2 ; #2 ; #1 ; -f.iszero1")

    def test_oracle_equivalence_on_corpus(self):
        for name, (text, _) in RM_CORPUS.items():
            program = parse_program(text)
            simulated = derived_op(rmlful(program), UNIV)
            for n in range(11):
                reply, value = rm_run(program, n)
                want = UNDEFINED if reply is Reply.D else (reply is Reply.T, value)
                assert simulated(n) == want, (name, n)
        # random programs whose jumps and test skips may leave the program;
        # a translated run takes at most three more actions than the oracle
        rng = random.Random(31)
        for _ in range(300):
            program = random_rml_program(rng)
            translated = rmlful(program)
            spec = extract(translated)
            # the input is encoded once: no control transfer returns to it
            assert all(
                spec.root not in (e.true_next, e.false_next)
                for e in spec.entries
                if isinstance(e, Post)
            ), program
            simulated = derived_op(translated, UNIV, mode=ExecMode(203))
            for n in range(5):
                try:
                    reply, value = rm_run(program, n, ExecMode(200))
                except BudgetExhausted:
                    continue
                want = UNDEFINED if reply is Reply.D else (reply is Reply.T, value)
                assert simulated(n) == want, (render_program(program), n)

    @pytest.mark.parametrize("text", ["#2", "r0.incr ; #3", "\\1", "+r0.iszero"])
    def test_transfers_out_of_the_program_diverge(self, text):
        # jumps past position k+1 or before position 1, and a last test's
        # skip, leave the register program; rm_run diverges there.  The small
        # budget keeps a translation that loops through the input encoding,
        # whose states form a tower of powers of two, finite.
        program = parse_program(text)
        simulated = derived_op(rmlful(program), UNIV, mode=ExecMode(4))
        for n in (1, 2):
            assert rm_run(program, n) == (Reply.D, 0)
            assert simulated(n) is UNDEFINED

    def test_divergent_program_stays_divergent(self):
        program = parse_program("#0")
        assert derived_op(rmlful(program), UNIV)(4) is UNDEFINED

    def test_prime_encoding_invariant(self):
        from isqkit.execution import run
        from isqkit.services import UnitService, singleton
        from isqkit.threads import extract

        for name, (text, _) in RM_CORPUS.items():
            program = parse_program(text)
            for n in (0, 3, 7):
                oracle_states = rm_trace(program, n)
                out = run(
                    extract(rmlful(program)),
                    singleton("f", UnitService(UNIV, n)),
                    collect_trace=True,
                )
                simulated = [
                    step.service_state
                    for step in out.trace
                    if step.action.method != "exp2"
                ][: len(oracle_states)]
                assert len(simulated) == len(oracle_states), (name, n)
                for (pos, registers), state in zip(oracle_states, simulated):
                    encoded = math.prod(p**c for p, c in zip(PRIMES, registers))
                    assert state == encoded, (name, n, pos)

import math
import random

import pytest

from isqkit.execution import BudgetExhausted, ExecMode
from isqkit.funit import UNDEFINED, derived_op
from isqkit.isa import parse_program, render_program
from isqkit.natfu import (
    PRIMES,
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

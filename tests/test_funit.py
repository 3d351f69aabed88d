import itertools
import random

import pytest

from isqkit.execution import ExecMode
from isqkit.finfu import derived_closure, leq_by_closure
from isqkit.funit import (
    UNDEFINED,
    FunctionalUnit,
    MethodOperation,
    Unknown,
    derived_op,
    inline_compose,
    parse_unit_table,
    refute_derivability,
    render_unit_table,
    restrict,
    tabulate_unit,
)
from isqkit.isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    HaltN,
    HaltP,
    PosTest,
    Program,
    parse_program,
)
from isqkit.natfu import counter_unit, decr_n_unit

from .strategies import random_normal_program, random_unit

COUNTER = counter_unit()


class TestUnitBasics:
    def test_restrict_to_pair(self):
        unit = restrict(COUNTER, {"decr", "iszero"})
        assert unit.interface == {"decr", "iszero"}
        assert unit.ops["decr"] is COUNTER.ops["decr"]

    def test_restrict_to_nothing(self):
        assert restrict(COUNTER, set()).interface == frozenset()

    def test_restrict_identity(self):
        unit = restrict(COUNTER, COUNTER.interface)
        assert unit.interface == COUNTER.interface

    def test_restrict_unknown_name(self):
        with pytest.raises(ValueError):
            restrict(COUNTER, {"nope"})

    def test_duplicate_names_impossible(self):
        ops = {"m": MethodOperation("m", lambda s: (True, s))}
        unit = FunctionalUnit(ops, 2)
        assert list(unit.ops) == ["m"]

    def test_tabulate_window(self):
        small = tabulate_unit(restrict(COUNTER, {"decr", "iszero"}), 3)
        assert small.ops["decr"].table == ((False, 0), (True, 0), (True, 1))
        assert small.ops["iszero"].table == ((True, 0), (False, 1), (False, 2))

    def test_tabulate_rejects_escaping_ops(self):
        with pytest.raises(ValueError):
            tabulate_unit(COUNTER, 3)  # incr escapes any finite window


class TestDerivedOp:
    def test_increment_then_test(self):
        op = derived_op(parse_program("f.incr ; +f.iszero ; !t ; !f"), COUNTER)
        assert op(0) == (False, 1)

    def test_trivial_termination(self):
        op = derived_op(parse_program("!t"), COUNTER)
        for s in (0, 5, 41):
            assert op(s) == (True, s)

    def test_proven_divergence(self):
        op = derived_op(parse_program("+f.iszero ; \\1 ; !t"), COUNTER)
        assert op(0) is UNDEFINED
        assert op(1) == (True, 1)

    def test_budget_exhaustion_is_unknown(self):
        mode = ExecMode(budget=3, detect_cycles=False)
        op = derived_op(parse_program("f.incr ; \\1"), COUNTER, mode=mode)
        assert op(0) == Unknown(3)

    def test_foreign_focus_rejected(self):
        with pytest.raises(ValueError, match="foreign focus"):
            derived_op(parse_program("g.incr ; !t"), COUNTER)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            derived_op(parse_program("f.pop ; !t"), COUNTER)


class TestInlineCompose:
    def test_single_substitution(self):
        composed = inline_compose(
            parse_program("+f.a ; !t ; !f"), {"a": parse_program("+f.b ; !t ; !f")}
        )
        unit = FunctionalUnit.from_tables(2, {"b": [(True, 1), (False, 0)]})
        want = derived_op(parse_program("+f.b ; !t ; !f"), unit)
        got = derived_op(composed, unit)
        assert [got(s) for s in (0, 1)] == [want(s) for s in (0, 1)]

    def test_no_tests_is_unchanged_up_to_normal_form(self):
        program = parse_program("#1 ; !t")
        composed = inline_compose(program, {})
        from isqkit.threads import bisimilar, extract

        assert bisimilar(extract(composed), extract(program))

    def test_missing_implementation_rejected(self):
        with pytest.raises(ValueError, match="no implementation"):
            inline_compose(parse_program("+f.a ; !t ; !f"), {})

    def test_passthrough_allows_mixed_programs(self):
        composed = inline_compose(
            parse_program("+f.a ; +f.b ; !t ; !f"),
            {"a": parse_program("+f.b ; !t ; !f")},
            passthrough={"b"},
        )
        methods = {u.basic.method for u in composed if isinstance(u, PosTest)}
        assert methods == {"b"}

    def test_cyclic_implementations_detected(self):
        with pytest.raises(ValueError, match="did not terminate"):
            inline_compose(
                parse_program("+f.a ; !t ; !f"),
                {"a": parse_program("+f.a ; !t ; !f")},
                max_substitutions=32,
            )

    def test_jump_off_an_implementation_diverges(self):
        # b always replies true, so the implementation always jumps off its
        # own end and diverges; composing it must not land in the host
        unit = FunctionalUnit.from_tables(2, {"b": [(True, 0), (True, 1)]})
        impl = parse_program("+f.b ; #5 ; !t ; !f")
        composed = inline_compose(parse_program("f.a ; !t"), {"a": impl})
        assert [derived_op(impl, unit)(s) for s in (0, 1)] == [UNDEFINED, UNDEFINED]
        assert [derived_op(composed, unit)(s) for s in (0, 1)] == [UNDEFINED, UNDEFINED]

    def test_split_increment(self):
        # an increment realized as two half-steps over a doubled state space
        def half(x):
            return (True, x + 1)

        doubled = FunctionalUnit.from_callables({"half": half})
        composed = inline_compose(
            parse_program("+f.incr ; !t ; !f"),
            {"incr": parse_program("+f.half ; +f.half ; !t ; !f")},
        )
        op = derived_op(composed, doubled)
        for s in range(21):
            assert op(s) == (True, s + 2)

    def test_soundness_on_random_programs(self):
        rng = random.Random(17)
        checked = 0
        while checked < 60:
            base = random_unit(rng, 2, 2, prefix="b")
            impls, tables = {}, {}
            usable = True
            for name in ("a0", "a1"):
                program = random_normal_program(rng, base.interface, max_body=4)
                rows = derived_op(program, base).tabulate(2)
                if not all(isinstance(r, tuple) for r in rows):
                    usable = False
                    break
                impls[name] = program
                tables[name] = rows
            if not usable:
                continue
            derived_unit = FunctionalUnit.from_tables(2, tables)
            x_m = random_normal_program(rng, derived_unit.interface, max_body=6)
            lhs = derived_op(inline_compose(x_m, impls), base)
            rhs = derived_op(x_m, derived_unit)
            assert [lhs(s) for s in range(2)] == [rhs(s) for s in range(2)]
            checked += 1


def brute_force_tables(unit: FunctionalUnit, max_len=6):
    """Total derived operations of every normalized program up to max_len.

    Jump instructions are enumerated by target: positions 1..body+2 plus the
    canonical deadlock ``#0`` cover every behaviour a longer offset could
    produce.
    """
    k = unit.size
    basics = [BasicInstruction("f", m) for m in sorted(unit.interface)]
    found = set()
    for body_len in range(0, max_len - 1):

        def options(p):
            opts = [PosTest(b) for b in basics]
            opts.append(FwdJump(0))
            for q in range(1, body_len + 3):
                if q != p:
                    opts.append(FwdJump(q - p) if q > p else BwdJump(p - q))
            return opts

        for body in itertools.product(*(options(p) for p in range(1, body_len + 1))):
            program = Program(tuple(body) + (HaltP(), HaltN()))
            rows = derived_op(program, unit).tabulate(k)
            if all(isinstance(r, tuple) for r in rows):
                found.add(rows)
    return found


class TestTotalityClosureLink:
    def test_total_derived_ops_are_closure_members(self):
        rng = random.Random(40)
        hits = 0
        for _ in range(40):
            unit = random_unit(rng, 2, 2)
            closure = derived_closure(unit.ops.values(), 2)
            for _ in range(10):
                program = random_normal_program(rng, sorted(unit.interface), max_body=6)
                rows = derived_op(program, unit).tabulate(2)
                if all(isinstance(r, tuple) for r in rows):
                    assert rows in closure.members
                    hits += 1
        assert hits > 100


class TestLeq:
    def test_reflexive(self):
        rng = random.Random(41)
        for _ in range(20):
            unit = random_unit(rng, 2, rng.randint(0, 3))
            assert leq_by_closure(unit, unit)

    def test_empty_unit_below_everything(self):
        rng = random.Random(42)
        empty = FunctionalUnit({}, 2)
        for _ in range(10):
            assert leq_by_closure(empty, random_unit(rng, 2, 2))

    def test_rejects_infinite_spaces(self):
        with pytest.raises(ValueError):
            leq_by_closure(COUNTER, COUNTER)

    def test_truncated_counter_pair_matches_brute_force(self):
        iszero_only = tabulate_unit(restrict(COUNTER, {"iszero"}), 3)
        decr_only = tabulate_unit(restrict(COUNTER, {"decr"}), 3)
        by_closure = leq_by_closure(iszero_only, decr_only)
        iszero_table = iszero_only.ops["iszero"].table
        assert by_closure == (iszero_table in brute_force_tables(decr_only))
        assert by_closure is False
        # and the state-preserving direction is derivable the other way round
        assert leq_by_closure(decr_only, tabulate_unit(restrict(COUNTER, {"decr", "iszero"}), 3))

    def test_restriction_monotone(self):
        rng = random.Random(43)
        for _ in range(20):
            unit = random_unit(rng, 2, 3)
            names = [m for m in unit.interface if rng.random() < 0.5]
            assert leq_by_closure(restrict(unit, names), unit)

    def test_transitive(self):
        rng = random.Random(44)
        for _ in range(25):
            top = random_unit(rng, 2, 2)
            mid_tables = rng.sample(
                sorted(derived_closure(top.ops.values(), 2).members), k=2
            )
            mid = FunctionalUnit.from_tables(2, {f"d{i}": t for i, t in enumerate(mid_tables)})
            low_tables = rng.sample(
                sorted(derived_closure(mid.ops.values(), 2).members), k=1
            )
            low = FunctionalUnit.from_tables(2, {"e0": low_tables[0]})
            assert leq_by_closure(mid, top)
            assert leq_by_closure(low, mid)
            assert leq_by_closure(low, top)


class TestRefutation:
    def test_two_step_decrement_cannot_reach_intermediate(self):
        assert refute_derivability(decr_n_unit(2), 2, (True, 1))

    def test_reachable_target_not_refuted(self):
        assert not refute_derivability(COUNTER, 0, (True, 5), bound=100)

    def test_state_preserving_interface_refuted(self):
        iszero_only = restrict(COUNTER, {"iszero"})
        assert refute_derivability(iszero_only, 3, (True, 0), bound=100)

    def test_inconclusive_is_not_refuted(self):
        # bound too small to close the state space
        assert not refute_derivability(decr_n_unit(2), 2, (True, 1), bound=1)


class TestTableFiles:
    def test_roundtrip(self):
        rng = random.Random(45)
        for _ in range(20):
            unit = random_unit(rng, rng.randint(1, 4), rng.randint(1, 3))
            again = parse_unit_table(render_unit_table(unit))
            assert again.size == unit.size
            assert {m: op.table for m, op in again.ops.items()} == {
                m: op.table for m, op in unit.ops.items()
            }

    def test_parse_example(self):
        text = "states 2\nmethod flip\n0 -> T 1\n1 -> F 0\n"
        unit = parse_unit_table(text)
        assert unit.ops["flip"].table == ((True, 1), (False, 0))

    def test_missing_row_rejected(self):
        with pytest.raises(ValueError, match="missing rows"):
            parse_unit_table("states 2\nmethod m\n0 -> T 1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_unit_table("states 2\nmethod m\n0 -> T 1\n1 -> T 2\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_unit_table("methods 2\n")

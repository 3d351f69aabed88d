import itertools
import random

import pytest

from isqkit.finfu import (
    ClosureBudget,
    _close,
    compose_behavior,
    const_false,
    const_true,
    count_degrees,
    derivation_witnesses,
    derived_closure,
    diverged,
    enumerate_mo,
    equivalent_by_closure,
    leq_by_closure,
    render_behavior,
)
from isqkit.funit import FunctionalUnit, MethodOperation, derived_op

from .strategies import random_table, random_unit

from .test_funit import brute_force_tables


def reference_minimal_generators(closed, max_combos=200_000):
    """A smallest generator subset reproducing the closed set.

    Searches subsets of the members in ascending size and, within a size, in
    sorted order; past ``max_combos`` candidate subsets it falls back to a
    greedy (small but not necessarily minimal) generating set.
    """
    candidates = sorted(closed.members)
    checked = 0
    for size in range(0, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            checked += 1
            if checked > max_combos:
                return _greedy_generators(closed, candidates)
            if derived_closure(combo, closed.k).members == closed.members:
                return combo
    return tuple(candidates)


def _greedy_generators(closed, candidates):
    chosen = []
    have = derived_closure((), closed.k).members
    for table in candidates:
        if table in have:
            continue
        chosen.append(table)
        have = derived_closure(chosen, closed.k).members
        if have == closed.members:
            break
    return tuple(chosen)


class TestEnumerate:
    def test_two_states(self):
        assert len(enumerate_mo(2)) == 16

    def test_one_state(self):
        ops = enumerate_mo(1)
        assert len(ops) == 2
        assert {op.table for op in ops} == {((False, 0),), ((True, 0),)}

    def test_three_states(self):
        assert len(enumerate_mo(3)) == 216

    def test_tables_are_distinct(self):
        tables = [op.table for op in enumerate_mo(2)]
        assert len(set(tables)) == 16

    def test_deterministic_order(self):
        assert [op.table for op in enumerate_mo(2)] == [
            op.table for op in enumerate_mo(2)
        ]

    def test_bound_checked(self):
        with pytest.raises(ValueError):
            enumerate_mo(5)
        with pytest.raises(ValueError):
            enumerate_mo(0)


class TestDerivedClosure:
    def test_empty_unit(self):
        closed = derived_closure((), 2)
        assert closed.members == {const_true(2), const_false(2)}

    def test_generator_coinciding_with_base(self):
        identity_true = MethodOperation.from_table("m", const_true(2))
        closed = derived_closure([identity_true], 2)
        assert len(closed) == 2

    def test_swap_generator_against_brute_force(self):
        swap = MethodOperation.from_table("m", ((True, 1), (True, 0)))
        closed = derived_closure([swap], 2)
        unit = FunctionalUnit({"m": swap}, 2)
        assert closed.members == brute_force_tables(unit)

    def test_idempotent(self):
        rng = random.Random(51)
        for _ in range(30):
            generators = [random_table(rng, 2) for _ in range(rng.randint(0, 3))]
            once = derived_closure(generators, 2)
            again = derived_closure(once.members, 2)
            assert once.members == again.members

    def test_monotone(self):
        rng = random.Random(52)
        for _ in range(30):
            small = [random_table(rng, 2) for _ in range(rng.randint(0, 2))]
            big = small + [random_table(rng, 2)]
            assert derived_closure(small, 2).members <= derived_closure(big, 2).members

    def test_base_members_always_present(self):
        rng = random.Random(53)
        for _ in range(20):
            generators = [random_table(rng, 3) for _ in range(rng.randint(0, 3))]
            closed = derived_closure(generators, 3)
            assert const_true(3) in closed.members
            assert const_false(3) in closed.members
            for g in generators:
                assert g in closed.members

    def test_rejects_partial_generators(self):
        with pytest.raises(ValueError):
            derived_closure([diverged(2)], 2)


def pairwise_close(generators, k):
    """The closure fixpoint by composing every (member, new member) pair."""
    members = {const_true(k), const_false(k), diverged(k)}
    new = set(members)
    while new:
        fresh = set()
        for g in generators:
            for a in members:
                for b in new:
                    for c in (compose_behavior(g, a, b), compose_behavior(g, b, a)):
                        if c not in members:
                            fresh.add(c)
        members |= fresh
        new = fresh
    return members


class TestClosureEngine:
    """The projection-based engine against the pairwise fixpoint, partial tables included."""

    def assert_same_members(self, generators, k):
        assert set(_close(generators, k)) == pairwise_close(generators, k)

    def test_every_single_generator_and_pair_over_two_states(self):
        tables = [op.table for op in enumerate_mo(2)]
        self.assert_same_members([], 2)
        for size in (1, 2):
            for generators in itertools.combinations(tables, size):
                self.assert_same_members(list(generators), 2)

    def test_random_generator_sets_over_three_states(self):
        rng = random.Random(60)
        for _ in range(40):
            self.assert_same_members([random_table(rng, 3) for _ in range(rng.randint(0, 3))], 3)

    def test_single_generators_over_four_states(self):
        rng = random.Random(64)
        for _ in range(5):
            self.assert_same_members([random_table(rng, 4)], 4)

    def test_repeated_generators(self):
        g = ((True, 1), (False, 2), (True, 0))
        self.assert_same_members([g, g, const_true(3), g], 3)

    def test_derivations_name_earlier_members(self):
        rng = random.Random(62)
        generators = [random_table(rng, 3) for _ in range(3)]
        derived = _close(generators, 3)
        earlier = set()
        for table, how in derived.items():
            if how is not None:
                gi, on_true, on_false = how
                assert on_true in earlier and on_false in earlier
                assert compose_behavior(generators[gi], on_true, on_false) == table
            earlier.add(table)


class TestWitnesses:
    def test_every_member_has_a_program(self):
        for k, seed in ((2, 54), (3, 63)):
            rng = random.Random(seed)
            for _ in range(10):
                unit = random_unit(rng, k, rng.randint(1, 2))
                witnesses = derivation_witnesses(unit)
                closed = derived_closure(unit.ops.values(), k)
                assert set(witnesses) == closed.members
                for table, program in witnesses.items():
                    assert derived_op(program, unit).tabulate(k) == table


class TestCountDegrees:
    def test_boolean_state_space(self):
        result = count_degrees(2)
        assert result.count == 12
        assert result.exact

    def test_single_state_space(self):
        # regression constant: computed once by exhaustive closure enumeration
        result = count_degrees(1)
        assert result.count == 1
        assert result.exact

    def test_generator_order_irrelevant(self):
        # a breadth-first exploration over a shuffled generator list reaches
        # exactly the same closures
        reference = {c.fingerprint for c in count_degrees(2).sets}
        rng = random.Random(99)
        for _ in range(3):
            tables = [op.table for op in enumerate_mo(2)]
            rng.shuffle(tables)
            start = derived_closure((), 2)
            seen = {start.fingerprint}
            queue = [start]
            while queue:
                current = queue.pop()
                for table in tables:
                    if table in current.members:
                        continue
                    extended = derived_closure(current.members | {table}, 2)
                    if extended.fingerprint not in seen:
                        seen.add(extended.fingerprint)
                        queue.append(extended)
            assert seen == reference

    @pytest.mark.parametrize("limits", [{"max_sets": -1}, {"max_seconds": -0.5}])
    def test_budget_rejects_negative_limits(self, limits):
        with pytest.raises(ValueError):
            ClosureBudget(**limits)

    def test_budget_flags_truncation(self):
        result = count_degrees(2, ClosureBudget(max_sets=4))
        assert result.count == 4
        assert not result.exact

    @pytest.mark.parametrize("limits", [{"max_sets": 1}, {"max_seconds": 0}])
    def test_finished_search_is_exact_at_its_budget(self, limits):
        # over one state the empty unit already derives every operation, so
        # no closure is left to compute when the budget is reached
        assert count_degrees(1, ClosureBudget(**limits)) == count_degrees(1)
        assert count_degrees(1, ClosureBudget(**limits)).exact

    def test_sets_are_distinct_closures(self):
        result = count_degrees(2)
        assert len({c.fingerprint for c in result.sets}) == result.count
        for closed in result.sets:
            assert derived_closure(closed.members, 2).members == closed.members


class TestLeqByClosure:
    def test_reflexive_and_vacuous(self):
        rng = random.Random(55)
        for _ in range(20):
            unit = random_unit(rng, 2, rng.randint(1, 3))
            assert leq_by_closure(unit, unit)
            assert leq_by_closure(FunctionalUnit({}, 2), unit)

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError):
            leq_by_closure(random_unit(random.Random(0), 2, 1), random_unit(random.Random(0), 3, 1))

    def test_agrees_with_brute_force_for_singletons(self):
        rng = random.Random(56)
        ops = enumerate_mo(2)
        for _ in range(12):
            left = FunctionalUnit({"a": rng.choice(ops)}, 2)
            right = FunctionalUnit({"b": rng.choice(ops)}, 2)
            brute = left.ops["a"].table in brute_force_tables(right)
            assert leq_by_closure(left, right) == brute

    def test_equivalence_symmetry(self):
        rng = random.Random(57)
        for _ in range(10):
            a = random_unit(rng, 2, 1)
            b = random_unit(rng, 2, 1)
            assert equivalent_by_closure(a, b) == equivalent_by_closure(b, a)


class TestGeneratorsAndRendering:
    def test_minimal_generators_reproduce_closure(self):
        result = count_degrees(2)
        for closed in result.sets:
            generators = closed.generators
            assert derived_closure(generators, 2).members == closed.members

    def test_empty_closure_needs_no_generators(self):
        closed = derived_closure((), 2)
        assert closed.generators == ()

    @pytest.mark.parametrize(
        "k, budget", [(2, ClosureBudget()), (3, ClosureBudget(max_sets=300))]
    )
    def test_search_generators_match_the_subset_search(self, k, budget):
        for closed in count_degrees(k, budget).sets:
            assert tuple(sorted(closed.generators)) == reference_minimal_generators(closed)
            assert derived_closure(closed.generators, k).members == closed.members

    def test_generators_do_not_affect_equality(self):
        table = enumerate_mo(2)[3].table
        closed = derived_closure([table], 2)
        same = derived_closure([table, table], 2)
        assert closed == same and hash(closed) == hash(same)
        assert closed.generators != same.generators

    def test_render(self):
        assert render_behavior(((True, 1), (False, 0))) == "T1,F0"
        assert render_behavior((None, (True, 0))) == "-,T0"


class TestComposeBehavior:
    def test_branches_on_reply(self):
        generator = ((True, 1), (False, 0))
        on_true = const_false(2)
        on_false = const_true(2)
        assert compose_behavior(generator, on_true, on_false) == ((False, 1), (True, 0))

    def test_divergence_propagates(self):
        generator = ((True, 0), (True, 1))
        assert compose_behavior(generator, diverged(2), const_true(2)) == (None, None)

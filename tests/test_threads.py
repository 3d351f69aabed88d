import hashlib
import random
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from isqkit.isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    HaltP,
    Program,
    normalize,
    parse_program,
    render_program,
)
from isqkit.threads import (
    DEADLOCK,
    TAU,
    TERM_N,
    TERM_P,
    Branch,
    Deadlock,
    LinearSpec,
    Post,
    TermN,
    TermP,
    bisimilar,
    compile_thread,
    contains_tau,
    dump,
    extract,
    minimize,
    parse_dump,
    project,
    tau_contract,
    truncate,
)

from .strategies import finite_trees, leaf, linear_specs, postcond, random_program, random_spec

FM = BasicInstruction("f", "m")


def ex(text):
    return extract(parse_program(text))


class TestExtract:
    def test_halt(self):
        spec = ex("!t")
        assert spec.entries == (TERM_P,)

    def test_infinite_jump_chain(self):
        spec = ex("#2 ; !t ; \\2")
        assert spec.entries == (DEADLOCK,)

    def test_positive_test(self):
        spec = ex("+f.m ; !t ; !f")
        root = spec.entries[spec.root]
        assert root == Post(FM, root.true_next, root.false_next)
        assert isinstance(spec.entries[root.true_next], TermP)
        assert isinstance(spec.entries[root.false_next], TermN)

    def test_zero_jump_deadlocks(self):
        assert ex("#0").entries == (DEADLOCK,)

    def test_plain_merges_branches(self):
        spec = ex("f.m ; !t")
        root = spec.entries[spec.root]
        assert root.true_next == root.false_next

    def test_negative_test_swaps(self):
        spec = ex("-f.m ; !t ; !f")
        root = spec.entries[spec.root]
        assert isinstance(spec.entries[root.true_next], TermN)
        assert isinstance(spec.entries[root.false_next], TermP)

    def test_backward_jump_loops(self):
        spec = ex("f.m ; \\1")
        root = spec.entries[spec.root]
        assert root.true_next == spec.root

    def test_off_the_end_is_deadlock(self):
        spec = ex("f.m")
        root = spec.entries[spec.root]
        assert isinstance(spec.entries[root.true_next], Deadlock)

    def test_long_jump_chain_resolves_once(self):
        # each position is resolved once, so a 50k-jump chain is linear work
        chain = Program((FwdJump(1),) * 50_000 + (HaltP(),))
        start = time.perf_counter()
        assert extract(chain).entries == (TERM_P,)
        assert time.perf_counter() - start < 5.0

    def test_long_jump_cycle_deadlocks(self):
        cycle = Program((FwdJump(1),) * 49_999 + (BwdJump(49_999),))
        start = time.perf_counter()
        assert extract(cycle).entries == (DEADLOCK,)
        assert time.perf_counter() - start < 5.0

    @given(linear_specs())
    def test_never_contains_tau(self, spec):
        assert not contains_tau(extract(compile_thread(spec)))


class TestProject:
    def test_depth_zero_is_deadlock(self):
        assert project(ex("+f.m ; !t ; !f"), 0) == DEADLOCK

    def test_termination_is_fixed(self):
        assert project(leaf(TERM_P), 5) == TERM_P
        assert project(leaf(TERM_N), 5) == TERM_N
        assert project(leaf(DEADLOCK), 5) == DEADLOCK

    def test_one_unfolding(self):
        assert project(ex("+f.m ; !t ; !f"), 1) == Branch(FM, DEADLOCK, DEADLOCK)

    def test_unfolds_both_branches(self):
        assert project(ex("+f.m ; !t ; !f"), 2) == Branch(FM, TERM_P, TERM_N)

    @given(linear_specs(max_states=3), st.integers(0, 6))
    def test_agrees_with_truncate(self, spec, depth):
        assert project(truncate(spec, depth), 10 + depth) == project(spec, depth)

    def test_deep_cut(self):
        tree = project(ex("f.m ; \\1"), 5000)
        depth = 0
        while isinstance(tree, Branch):
            assert tree.true_branch is tree.false_branch
            tree = tree.true_branch
            depth += 1
        assert depth == 5000
        assert tree == DEADLOCK

    def test_deep_cuts_hash_and_compare(self):
        # project shares subtrees, so a depth-5000 tree has 5001 distinct
        # nodes but 2**5000 paths; hashing and comparing visit each node once
        spec = ex("f.m ; \\1")
        a, b = project(spec, 5000), project(spec, 5000)
        assert a is not b
        assert hash(a) == hash(b)
        assert a == b
        assert a != project(spec, 4999)
        assert tau_contract(project(spec, 400)) == project(spec, 400)


class TestBranchEquality:
    @given(finite_trees, finite_trees)
    def test_structural(self, a, b):
        def rebuild(t):
            if isinstance(t, Branch):
                return Branch(t.action, rebuild(t.true_branch), rebuild(t.false_branch))
            return t

        assert (a == b) == (repr(a) == repr(b))
        copy = rebuild(a)
        assert copy == a
        assert hash(copy) == hash(a)

    def test_leaf_is_not_a_branch(self):
        assert Branch(FM, DEADLOCK, DEADLOCK) != DEADLOCK
        assert DEADLOCK != Branch(FM, DEADLOCK, DEADLOCK)


class TestBranchRepr:
    def test_format(self):
        assert repr(Branch(FM, DEADLOCK, TERM_P)) == "Branch(0: f.m ? 1 : 2; 1: D; 2: S+)"
        shared = Branch(TAU, TERM_N, TERM_N)
        assert repr(Branch(FM, shared, shared)) == "Branch(0: f.m ? 1 : 1; 1: tau ? 2 : 2; 2: S-)"

    def test_shared_trees_print_in_linear_size(self):
        # the tree has exponentially many paths; each distinct subtree prints once
        spec = ex("f.m ; +f.n ; \\2 ; !t")
        for depth in (5, 10, 20, 40, 60):
            assert len(repr(project(spec, depth))) <= 40 * depth + 100

    def test_deep_tree(self):
        text = repr(project(ex("f.m ; \\1"), 5000))
        assert text.startswith("Branch(0: f.m ? 1 : 1; 1: f.m ? 2 : 2;")
        assert text.endswith("4999: f.m ? 5000 : 5000; 5000: D)")


def breadth_first_order(spec):
    """The states reachable from the root, breadth-first, true successor first."""
    order = [spec.root]
    seen = {spec.root}
    for state in order:
        entry = spec.entries[state]
        if isinstance(entry, Post):
            for nxt in (entry.true_next, entry.false_next):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
    return order


def assert_breadth_first(spec):
    assert breadth_first_order(spec) == list(range(len(spec.entries)))


class TestNumbering:
    """Every spec `isqkit.threads` builds is numbered breadth-first from root 0."""

    def check(self, spec):
        for depth in range(5):
            assert_breadth_first(truncate(spec, depth))
        small = minimize(spec)
        assert_breadth_first(small)
        assert_breadth_first(extract(compile_thread(spec)))
        # compile_thread lays its blocks out in the same order, so the
        # minimal spec survives a round trip exactly
        assert extract(compile_thread(small)) == small

    @given(linear_specs())
    def test_linear_specs(self, spec):
        self.check(spec)

    def test_seeded(self):
        rng = random.Random(29)
        for _ in range(300):
            spec = extract(random_program(rng, max_len=12))
            assert_breadth_first(spec)
            self.check(spec)
            self.check(random_spec(rng, max_states=10))

    def test_seeded_outputs_are_pinned(self):
        # extract, truncate, minimize and compile_thread output, byte for byte
        digest = hashlib.sha256()
        rng = random.Random(2027)
        for _ in range(2000):
            program = random_program(rng, max_len=12)
            digest.update(dump(extract(program)).encode() + b"\n")
            digest.update(dump(extract(normalize(program))).encode() + b"\n")
        for _ in range(2000):
            spec = random_spec(rng, max_states=10)
            for depth in range(7):
                digest.update(dump(truncate(spec, depth)).encode() + b"\n")
            digest.update(dump(minimize(spec)).encode() + b"\n")
            digest.update(render_program(compile_thread(spec)).encode() + b"\n")
        assert digest.hexdigest() == (
            "4ac9b6d50561b5ca36397e8cfe30009afd94684bc143853823e02e1e08d7e592"
        )


class TestBisimilar:
    def test_jump_resolution(self):
        assert bisimilar(ex("!t"), ex("#1 ; !t"))

    def test_distinct_terminations(self):
        assert not bisimilar(ex("!t"), ex("!f"))

    def test_loop_versus_unrolled(self):
        assert bisimilar(ex("f.m ; \\1"), ex("f.m ; f.m ; \\1"))

    def test_rejects_tau(self):
        tau_spec = postcond(TAU, leaf(TERM_P), leaf(TERM_P))
        with pytest.raises(ValueError):
            bisimilar(tau_spec, leaf(TERM_P))

    def test_reflexive_seeded(self):
        rng = random.Random(3)
        for _ in range(100):
            spec = random_spec(rng)
            assert bisimilar(spec, spec)

    @given(linear_specs(), linear_specs())
    def test_symmetric(self, a, b):
        assert bisimilar(a, b) == bisimilar(b, a)

    @given(linear_specs())
    def test_transitive_through_minimize(self, a):
        b = minimize(a)
        c = extract(compile_thread(a))
        assert bisimilar(a, b) and bisimilar(b, c) and bisimilar(a, c)

    @given(linear_specs(max_states=3), linear_specs(max_states=3))
    @settings(max_examples=60)
    def test_approximation_surrogate(self, a, b):
        bound = len(a.entries) * len(b.entries) + 1
        agree = all(project(a, n) == project(b, n) for n in range(bound + 1))
        assert bisimilar(a, b) == agree


class TestMinimize:
    def test_collapses_duplicate_states(self):
        spec = LinearSpec((Post(FM, 1, 2), TERM_P, TERM_P), 0)
        small = minimize(spec)
        assert len(small.entries) == 2
        assert bisimilar(small, spec)

    @given(linear_specs())
    def test_preserves_behaviour_and_idempotent(self, spec):
        small = minimize(spec)
        assert bisimilar(small, spec)
        assert len(minimize(small).entries) == len(small.entries)

    @given(linear_specs())
    def test_never_grows(self, spec):
        assert len(minimize(spec).entries) <= len(spec.entries)


class TestCompileThread:
    def test_termination_constants(self):
        assert bisimilar(extract(compile_thread(leaf(TERM_P))), leaf(TERM_P))
        assert str(compile_thread(leaf(TERM_P))) == "!t"
        assert str(compile_thread(leaf(TERM_N))) == "!f"
        assert str(compile_thread(leaf(DEADLOCK))) == "#0"

    def test_rejects_tau(self):
        with pytest.raises(ValueError):
            compile_thread(postcond(TAU, leaf(TERM_P), leaf(TERM_N)))

    def test_roundtrip_seeded(self):
        rng = random.Random(11)
        for _ in range(250):
            spec = random_spec(rng, max_states=8)
            assert bisimilar(extract(compile_thread(spec)), spec)

    @given(linear_specs(max_states=8))
    def test_roundtrip_property(self, spec):
        assert bisimilar(extract(compile_thread(spec)), spec)


class TestTauContract:
    def test_rewrites_tau_branching(self):
        tree = Branch(TAU, TERM_P, TERM_N)
        assert tau_contract(tree) == Branch(TAU, TERM_P, TERM_P)

    def test_basic_actions_untouched(self):
        tree = Branch(FM, TERM_P, TERM_N)
        assert tau_contract(tree) == tree

    def test_recursive_application(self):
        inner = Branch(TAU, TERM_P, TERM_N)
        contracted_inner = Branch(TAU, TERM_P, TERM_P)
        assert tau_contract(Branch(TAU, inner, TERM_N)) == Branch(
            TAU, contracted_inner, contracted_inner
        )

    @given(finite_trees)
    def test_idempotent(self, tree):
        once = tau_contract(tree)
        assert tau_contract(once) == once

    @given(finite_trees)
    def test_agrees_with_the_recursive_rewrite(self, tree):
        def reference(node):
            if not isinstance(node, Branch):
                return node
            tb = reference(node.true_branch)
            if node.action == TAU:
                return Branch(TAU, tb, tb)
            return Branch(node.action, tb, reference(node.false_branch))

        assert tau_contract(tree) == reference(tree)

    def test_deep_trees(self):
        spec = ex("f.m ; \\1")
        assert tau_contract(project(spec, 5000)) == project(spec, 5000)
        chain, contracted = TERM_N, TERM_N
        for _ in range(5000):
            chain = Branch(TAU, chain, TERM_P)
            contracted = Branch(TAU, contracted, contracted)
        assert tau_contract(chain) == contracted


class TestDump:
    def test_format(self):
        spec = ex("+f.m ; !t ; !f")
        lines = dump(spec).splitlines()
        assert lines[0] == "* 0: f.m ? 1 : 2"
        assert lines[1] == "  1: S+"
        assert lines[2] == "  2: S-"

    def test_single_deadlock(self):
        assert dump(ex("#2 ; !t ; \\2")) == "* 0: D"

    @given(linear_specs())
    def test_roundtrip(self, spec):
        assert parse_dump(dump(spec)) == spec

    def test_parse_rejects_missing_root(self):
        with pytest.raises(ValueError):
            parse_dump("  0: S+")

    def test_parse_rejects_a_repeated_state(self):
        with pytest.raises(ValueError, match="state 0 given twice"):
            parse_dump("* 0: S+\n  0: S-")

import random

import pytest

from isqkit.execution import (
    ExecMode,
    ExecOutcome,
    Reachable,
    Status,
    TraceStep,
    reachable_states,
    run,
)
from isqkit.funit import restrict
from isqkit.isa import parse_program
from isqkit.natfu import counter_unit, decr_n_unit
from isqkit.services import (
    EMPTY_FAMILY,
    Reply,
    ServiceFamily,
    UnitService,
    compose,
    encapsulate,
    service_step,
    singleton,
)
from isqkit.threads import DEADLOCK, TAU, TERM_N, TERM_P, LinearSpec, Post, Tau, extract

from .strategies import leaf, postcond, random_family, random_service, random_spec


COUNTER = counter_unit()


def counter_family(state=0, focus="f"):
    return singleton(focus, UnitService(COUNTER, state))


def ex(text):
    return extract(parse_program(text))


def reference_run(thread, family, mode=ExecMode(), collect_trace=False):
    """The step-by-step oracle for ``run``.

    Every step goes through ``service_step`` and ``ServiceFamily.updated``,
    and cycle detection stores whole (thread state, family) configurations.
    """
    entries = thread.entries
    cur = thread.root
    steps = 0
    trace = [] if collect_trace else None
    visited = set() if mode.detect_cycles else None

    def finish(status, reply, fam):
        return ExecOutcome(status, reply, fam, steps, tuple(trace) if trace is not None else None)

    while True:
        entry = entries[cur]
        if entry == TERM_P:
            return finish(Status.COMPLETED, Reply.T, family)
        if entry == TERM_N:
            return finish(Status.COMPLETED, Reply.F, family)
        if entry == DEADLOCK:
            return finish(Status.PROVEN_DIVERGENT, Reply.D, EMPTY_FAMILY)
        if visited is not None:
            config = (cur, family)
            if config in visited:
                return finish(Status.PROVEN_DIVERGENT, Reply.D, EMPTY_FAMILY)
            visited.add(config)
        if mode.budget is not None and steps >= mode.budget:
            return finish(Status.BUDGET_EXHAUSTED, Reply.D, EMPTY_FAMILY)
        action = entry.action
        if isinstance(action, Tau):
            cur = entry.true_next
            steps += 1
            continue
        svc = family.get(action.focus)
        if svc is None:
            return finish(Status.PROVEN_DIVERGENT, Reply.D, EMPTY_FAMILY)
        reply, nxt = service_step(svc, action.method)
        if reply is Reply.D:
            return finish(Status.PROVEN_DIVERGENT, Reply.D, EMPTY_FAMILY)
        family = family.updated(action.focus, nxt)
        if trace is not None:
            trace.append(TraceStep(cur, action, reply, nxt.state))
        cur = entry.true_next if reply is Reply.T else entry.false_next
        steps += 1


def with_taus(rng, spec):
    """The spec with about a third of its posts turned into internal steps."""
    entries = tuple(
        Post(TAU, e.true_next, e.false_next) if isinstance(e, Post) and rng.random() < 0.3 else e
        for e in spec.entries
    )
    return LinearSpec(entries, spec.root)


COUNTER_METHODS = ("incr", "decr", "iszero", "m1")


def differential_cases(rng, count):
    """Seeded (spec, family) pairs over finite units and over counters.

    The specs address foci f and g; families draw from f, g and h, so foci
    go missing, stay unaddressed, or hold the empty service, and methods
    outside a unit's interface are rejected.
    """
    for _ in range(count):
        if rng.random() < 0.7:
            spec, family = random_spec(rng), random_family(rng)
        else:
            spec = random_spec(rng, methods=COUNTER_METHODS)
            family = ServiceFamily(
                {f: UnitService(COUNTER, rng.randrange(4)) for f in ("f", "g", "h") if rng.random() < 0.7}
            )
        yield (with_taus(rng, spec) if rng.random() < 0.5 else spec), family


class TestRun:
    def test_immediate_termination_keeps_family(self):
        family = counter_family(9)
        out = run(ex("!t"), family)
        assert out.status is Status.COMPLETED
        assert out.reply is Reply.T
        assert out.family == family

    def test_missing_focus_diverges(self):
        out = run(ex("+g.m ; !t ; !f"), counter_family(0))
        assert out.status is Status.PROVEN_DIVERGENT
        assert out.reply is Reply.D
        assert out.family == EMPTY_FAMILY

    def test_counter_program(self):
        out = run(ex("f.incr ; f.incr ; +f.iszero ; !t ; !f"), counter_family(0))
        assert out.status is Status.COMPLETED
        assert out.reply is Reply.F
        assert out.family == counter_family(2)

    def test_cycle_detected(self):
        out = run(ex("+f.iszero ; \\1 ; !t"), counter_family(0))
        assert out.status is Status.PROVEN_DIVERGENT
        assert out.family == EMPTY_FAMILY

    def test_rejected_method_diverges(self):
        out = run(ex("f.bogus ; !t"), counter_family(0))
        assert out.status is Status.PROVEN_DIVERGENT

    def test_budget_exhaustion_reported(self):
        mode = ExecMode(budget=5, detect_cycles=False)
        out = run(ex("f.incr ; \\1"), counter_family(0), mode)
        assert out.status is Status.BUDGET_EXHAUSTED
        assert out.reply is Reply.D

    def test_unbounded_loop_without_cycles_is_budgeted(self):
        # states grow forever, so only the budget can stop the run
        out = run(ex("f.incr ; \\1"), counter_family(0), ExecMode(budget=1000))
        assert out.status is Status.BUDGET_EXHAUSTED
        assert out.steps == 1000

    def test_mode_requires_a_limit(self):
        with pytest.raises(ValueError):
            ExecMode(budget=None, detect_cycles=False)

    def test_trace_replay_reproduces_family(self):
        rng = random.Random(5)
        for _ in range(200):
            spec = random_spec(rng)
            family = random_family(rng)
            out = run(spec, family, collect_trace=True)
            if out.status is not Status.COMPLETED:
                continue
            replayed = family
            for step in out.trace:
                svc = replayed.get(step.action.focus)
                reply, nxt = service_step(svc, step.action.method)
                assert reply == step.reply
                replayed = replayed.updated(step.action.focus, nxt)
            assert replayed == out.family

    def test_outcome_coherence(self):
        # completed iff Boolean reply; any divergence leaves the empty family
        rng = random.Random(8)
        for _ in range(300):
            out = run(random_spec(rng), random_family(rng), ExecMode(budget=50))
            assert (out.reply in (Reply.T, Reply.F)) == (out.status is Status.COMPLETED)
            if out.status is not Status.COMPLETED:
                assert out.reply is Reply.D
                assert out.family == EMPTY_FAMILY

    def test_budget_monotone(self):
        rng = random.Random(6)
        for _ in range(200):
            spec = random_spec(rng)
            family = random_family(rng)
            small = run(spec, family, ExecMode(budget=4))
            if small.status is Status.BUDGET_EXHAUSTED:
                continue
            big = run(spec, family, ExecMode(budget=4000))
            assert (small.status, small.reply, small.family) == (
                big.status,
                big.reply,
                big.family,
            )


class TestAgainstReference:
    """``run`` against the step-by-step oracle, field by field."""

    MODES = [ExecMode(budget=b, detect_cycles=cd) for b in range(12) for cd in (True, False)]
    MODES += [ExecMode(budget=1000, detect_cycles=False), ExecMode(budget=1000)]
    # without a budget only finite state spaces are sure to stop
    UNBOUNDED = ExecMode(budget=None)

    def assert_same(self, spec, family, mode):
        got = run(spec, family, mode, collect_trace=True)
        want = reference_run(spec, family, mode, collect_trace=True)
        assert (got.status, got.reply, got.steps) == (want.status, want.reply, want.steps)
        assert got.family == want.family
        assert got.trace == want.trace
        return got

    def test_seeded_specs_and_families(self):
        rng = random.Random(71)
        seen = set()
        for spec, family in differential_cases(rng, 400):
            finite = all(svc.unit.size is not None for _, svc in family.items() if isinstance(svc, UnitService))
            for mode in self.MODES + [self.UNBOUNDED] * finite:
                out = self.assert_same(spec, family, mode)
                seen.add(out.status)
        assert seen == set(Status)

    def test_cases_cover_every_stopping_reason(self):
        rng = random.Random(71)
        reasons = set()
        for spec, family in differential_cases(rng, 400):
            entry = spec.entries[spec.root]
            if isinstance(entry, Post) and isinstance(entry.action, Tau):
                reasons.add("tau")
            elif entry == DEADLOCK:
                reasons.add("deadlock")
            elif isinstance(entry, Post):
                svc = family.get(entry.action.focus)
                if svc is None:
                    reasons.add("missing focus")
                elif not isinstance(svc, UnitService):
                    reasons.add("empty service")
                elif entry.action.method not in svc.unit.ops:
                    reasons.add("rejected method")
            if "h" in family:
                reasons.add("unaddressed focus")
        assert reasons == {
            "tau",
            "deadlock",
            "missing focus",
            "empty service",
            "rejected method",
            "unaddressed focus",
        }

    def test_long_counter_runs(self):
        loop = ex("+f.iszero ; #4 ; f.decr ; g.incr ; \\4 ; !t")
        for n in (0, 1, 7, 300):
            family = ServiceFamily({"f": UnitService(COUNTER, n), "g": UnitService(COUNTER, 2)})
            for mode in (ExecMode(), ExecMode(budget=n, detect_cycles=False), ExecMode(budget=2 * n)):
                self.assert_same(loop, family, mode)

    def test_table_cycle_divergence(self):
        # two coprime table cycles: divergence is proven after foci x 3 x 5 steps
        from isqkit.funit import FunctionalUnit

        def cycle(k):
            return FunctionalUnit.from_tables(k, {"m": [(True, (s + 1) % k) for s in range(k)]})

        spec = ex("f.m ; g.m ; \\2")
        family = ServiceFamily({"f": UnitService(cycle(3), 0), "g": UnitService(cycle(5), 0)})
        out = self.assert_same(spec, family, ExecMode())
        assert out.status is Status.PROVEN_DIVERGENT
        assert out.steps == 2 * 3 * 5


@pytest.fixture
def families_built(monkeypatch):
    """A list that gains one entry per ``ServiceFamily`` constructed."""
    built = []
    original = ServiceFamily.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ServiceFamily, "__init__", counting)
    return built


class TestAllocation:
    def test_one_family_per_run_whatever_the_step_count(self, families_built):
        loop = ex("+f.iszero ; #3 ; f.decr ; \\3 ; !t")
        counts = []
        for n, mode in [
            (10, ExecMode()),
            (5000, ExecMode()),
            (10, ExecMode(budget=100_000, detect_cycles=False)),
            (5000, ExecMode(budget=100_000, detect_cycles=False)),
        ]:
            family = counter_family(n)
            families_built.clear()
            out = run(loop, family, mode)
            assert out.status is Status.COMPLETED
            counts.append(len(families_built))
        assert out.steps > 10_000
        assert counts[0] == counts[1] <= 1
        assert counts[2] == counts[3] <= 1

    def test_no_family_built_on_divergence_or_budget(self, families_built):
        family = counter_family(0)
        families_built.clear()
        assert run(ex("f.incr ; \\1"), family, ExecMode(budget=10_000)).status is Status.BUDGET_EXHAUSTED
        assert run(ex("+f.iszero ; \\1 ; !t"), family).status is Status.PROVEN_DIVERGENT
        assert families_built == []


class TestAxiomInstances:
    """Each execution law instantiated directly against run."""

    def outcome(self, spec, family):
        out = run(spec, family)
        return out.status, out.reply, out.family

    def test_termination_and_deadlock_laws(self):
        rng = random.Random(31)
        for _ in range(300):
            u = random_family(rng)
            assert self.outcome(leaf(TERM_P), u) == (Status.COMPLETED, Reply.T, u)
            assert self.outcome(leaf(TERM_N), u) == (Status.COMPLETED, Reply.F, u)
            assert self.outcome(leaf(DEADLOCK), u) == (
                Status.PROVEN_DIVERGENT,
                Reply.D,
                EMPTY_FAMILY,
            )

    def test_internal_step_law(self):
        rng = random.Random(32)
        for _ in range(300):
            x = random_spec(rng, max_states=3)
            u = random_family(rng)
            assert self.outcome(postcond(TAU, x, x), u) == self.outcome(x, u)

    def test_missing_focus_law(self):
        rng = random.Random(33)
        for _ in range(300):
            x, y = random_spec(rng, 3), random_spec(rng, 3)
            u = random_family(rng)
            action = parse_program("f.m").instructions[0].basic
            hidden = encapsulate({"f"}, u)
            assert self.outcome(postcond(action, x, y), hidden) == (
                Status.PROVEN_DIVERGENT,
                Reply.D,
                EMPTY_FAMILY,
            )

    def test_processing_laws(self):
        from isqkit.isa import BasicInstruction

        rng = random.Random(34)
        for _ in range(300):
            x, y = random_spec(rng, 3), random_spec(rng, 3)
            u = random_family(rng)
            svc = random_service(rng)
            method = rng.choice(["m0", "m1", "nosuch"])
            family = compose(singleton("f", svc), encapsulate({"f"}, u))
            lhs = self.outcome(postcond(BasicInstruction("f", method), x, y), family)
            reply, nxt = service_step(svc, method)
            if reply is Reply.D:
                assert lhs == (Status.PROVEN_DIVERGENT, Reply.D, EMPTY_FAMILY)
            else:
                branch = x if reply is Reply.T else y
                updated = compose(singleton("f", nxt), encapsulate({"f"}, u))
                assert lhs == self.outcome(branch, updated)

    def test_projection_compatibility(self):
        from isqkit.threads import truncate

        rng = random.Random(35)
        checked = 0
        for _ in range(400):
            spec = random_spec(rng, 4)
            family = random_family(rng)
            depth = rng.randint(0, 6)
            cut = run(truncate(spec, depth), family)
            if cut.status is Status.COMPLETED and cut.steps <= depth:
                full = run(spec, family)
                assert (cut.status, cut.reply, cut.family) == (
                    full.status,
                    full.reply,
                    full.family,
                )
                checked += 1
        assert checked > 20


class TestReachableStates:
    def test_two_method_unit_closure(self):
        reach = reachable_states(decr_n_unit(2), 2, 10)
        assert reach == Reachable(frozenset({2, 0}), True)

    def test_state_preserving_method(self):
        reach = reachable_states(restrict(counter_unit(), {"iszero"}), 5, 10)
        assert reach == Reachable(frozenset({5}), True)

    def test_unbounded_growth_is_flagged(self):
        reach = reachable_states(counter_unit(), 0, 10)
        assert reach.states == frozenset(range(10))
        assert not reach.complete

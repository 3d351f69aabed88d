"""Shared random generators: hypothesis strategies plus seeded plain-random
builders (the acceptance suite wants deterministic, fast bulk sampling)."""

import random

import hypothesis.strategies as st

from isqkit.funit import FunctionalUnit
from isqkit.isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    HaltN,
    HaltP,
    NegTest,
    Plain,
    PosTest,
    Program,
)
from isqkit.services import EMPTY_SERVICE, ServiceFamily, UnitService
from isqkit.threads import DEADLOCK, TAU, TERM_N, TERM_P, Branch, LinearSpec, Post

FOCI = ("f", "g")
METHODS = ("m1", "m2")


def leaf(entry) -> LinearSpec:
    return LinearSpec((entry,), 0)


def _offset(e, base):
    if isinstance(e, Post):
        return Post(e.action, e.true_next + base, e.false_next + base)
    return e


def postcond(action, x: LinearSpec, y: LinearSpec) -> LinearSpec:
    """The thread performing ``action`` then continuing as x or y."""
    ox, oy = 1, 1 + len(x.entries)
    entries = [Post(action, ox + x.root, oy + y.root)]
    entries.extend(_offset(e, ox) for e in x.entries)
    entries.extend(_offset(e, oy) for e in y.entries)
    return LinearSpec(tuple(entries), 0)


# ---------------------------------------------------------------------------
# seeded plain-random builders
# ---------------------------------------------------------------------------


def random_basic(rng: random.Random, foci=FOCI, methods=METHODS) -> BasicInstruction:
    return BasicInstruction(rng.choice(foci), rng.choice(methods))


def random_instruction(rng: random.Random, foci=FOCI, methods=METHODS):
    roll = rng.random()
    if roll < 0.2:
        return Plain(random_basic(rng, foci, methods))
    if roll < 0.4:
        return PosTest(random_basic(rng, foci, methods))
    if roll < 0.55:
        return NegTest(random_basic(rng, foci, methods))
    if roll < 0.7:
        return FwdJump(rng.randint(0, 8))
    if roll < 0.85:
        return BwdJump(rng.randint(0, 8))
    return HaltP() if rng.random() < 0.5 else HaltN()


def random_program(rng: random.Random, max_len=10, foci=FOCI, methods=METHODS) -> Program:
    n = rng.randint(1, max_len)
    return Program(tuple(random_instruction(rng, foci, methods) for _ in range(n)))


def random_normal_program(rng: random.Random, methods, max_body=6, focus="f") -> Program:
    """A program already in positive-test normal form."""
    body_len = rng.randint(0, max_body)
    body = []
    for p in range(1, body_len + 1):
        if rng.random() < 0.6:
            body.append(PosTest(BasicInstruction(focus, rng.choice(list(methods)))))
        else:
            q = rng.randint(1, body_len + 2)
            if q == p:
                body.append(FwdJump(0))
            else:
                body.append(FwdJump(q - p) if q > p else BwdJump(p - q))
    return Program(tuple(body) + (HaltP(), HaltN()))


def random_rml_program(rng: random.Random, max_len=8, in_range=False) -> Program:
    """A six-register program of 1..max_len instructions.

    Jump targets range over positions 0..k+3.  With ``in_range`` they stay in
    1..k+1 and no test ends the program, so control never leaves it.
    """
    k = rng.randint(1, max_len)
    out = []
    for p in range(1, k + 1):
        basic = BasicInstruction(f"r{rng.randrange(6)}", rng.choice(("incr", "decr", "iszero")))
        roll = rng.random()
        if roll < 0.3:
            out.append(Plain(basic))
        elif roll < 0.55 and not (in_range and p == k):
            out.append(PosTest(basic) if roll < 0.45 else NegTest(basic))
        elif roll < 0.9:
            q = rng.randint(1, k + 1) if in_range else rng.randint(0, k + 3)
            out.append(FwdJump(q - p) if q >= p else BwdJump(p - q))
        else:
            out.append(HaltP() if rng.random() < 0.5 else HaltN())
    return Program(tuple(out))


def random_spec(rng: random.Random, max_states=8, foci=FOCI, methods=METHODS) -> LinearSpec:
    """A tau-free linear spec with 1..max_states states."""
    n = rng.randint(1, max_states)
    entries = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.12:
            entries.append(DEADLOCK)
        elif roll < 0.28:
            entries.append(TERM_P)
        elif roll < 0.44:
            entries.append(TERM_N)
        else:
            entries.append(
                Post(random_basic(rng, foci, methods), rng.randrange(n), rng.randrange(n))
            )
    return LinearSpec(tuple(entries), rng.randrange(n))


def random_tree(rng: random.Random, depth=4, allow_tau=True):
    """A finite thread tree, possibly with internal actions."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((DEADLOCK, TERM_P, TERM_N))
    if allow_tau and rng.random() < 0.4:
        action = TAU
    else:
        action = random_basic(rng)
    return Branch(
        action, random_tree(rng, depth - 1, allow_tau), random_tree(rng, depth - 1, allow_tau)
    )


def random_table(rng: random.Random, k: int) -> tuple:
    return tuple((rng.random() < 0.5, rng.randrange(k)) for _ in range(k))


def random_unit(rng: random.Random, k: int, n_methods: int, prefix="m") -> FunctionalUnit:
    tables = {f"{prefix}{i}": random_table(rng, k) for i in range(n_methods)}
    return FunctionalUnit.from_tables(k, tables)


def random_service(rng: random.Random, k=3):
    if rng.random() < 0.15:
        return EMPTY_SERVICE
    unit = random_unit(rng, k, rng.randint(1, 2))
    return UnitService(unit, rng.randrange(k))


def random_family(rng: random.Random, foci=("f", "g", "h")) -> ServiceFamily:
    chosen = [f for f in foci if rng.random() < 0.6]
    return ServiceFamily({f: random_service(rng) for f in chosen})


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)

basics = st.builds(BasicInstruction, identifiers, identifiers)

small_basics = st.builds(
    BasicInstruction, st.sampled_from(FOCI), st.sampled_from(METHODS)
)

instructions = st.one_of(
    st.builds(Plain, basics),
    st.builds(PosTest, basics),
    st.builds(NegTest, basics),
    st.builds(FwdJump, st.integers(0, 9)),
    st.builds(BwdJump, st.integers(0, 9)),
    st.just(HaltP()),
    st.just(HaltN()),
)

programs = st.lists(instructions, min_size=1, max_size=10).map(lambda xs: Program(tuple(xs)))


@st.composite
def linear_specs(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    entries = []
    for _ in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            entries.append(DEADLOCK)
        elif kind == 1:
            entries.append(TERM_P)
        elif kind == 2:
            entries.append(TERM_N)
        else:
            entries.append(
                Post(draw(small_basics), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            )
    return LinearSpec(tuple(entries), draw(st.integers(0, n - 1)))


finite_trees = st.recursive(
    st.sampled_from((DEADLOCK, TERM_P, TERM_N)),
    lambda children: st.builds(
        Branch, st.one_of(st.just(TAU), small_basics), children, children
    ),
    max_leaves=12,
)

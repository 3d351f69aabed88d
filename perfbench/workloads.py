"""The four seeded workloads: input generation, operations and expected answers.

Each workload turns a seed into a fixed pool of operations.  An operation is
one batch job as a user would submit it; it calls only public functions of
the ``isqkit`` modules, through the tracer so a traced run can put a span
around each call, and returns a plain value compared with ``expect``.
Expected answers come from closed forms or from ``refs``, never from the
code path being timed.

Sizes are drawn from a fixed schedule with a small seeded jitter, and every
pool holds the same number of operations of each shape, so two seeds give
pools of similar cost and the figures of different seeds are comparable.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import refs
from isqkit import cli
from isqkit.execution import ExecMode, Status, run
from isqkit.finfu import ClosureBudget, count_degrees, derived_closure, enumerate_mo, leq_by_closure
from isqkit.funit import UNDEFINED, FunctionalUnit, derived_op, inline_compose
from isqkit.isa import normalize, parse_program, render_program
from isqkit.natfu import counter_unit, rm_run, rmlful, univ3_program, univ3_unit, univ_unit
from isqkit.services import ServiceFamily, UnitService
from isqkit.threads import bisimilar, compile_thread, extract, minimize


@dataclass
class Op:
    shape: str
    data: tuple  # plain description of the input, hashed into the workload digest
    run: Callable  # run(tracer) -> answer
    expect: object
    props: dict = field(default_factory=dict)  # input properties performance depends on


def _jitter(rng: random.Random, size: float) -> int:
    return max(1, round(size * rng.uniform(0.97, 1.03)))


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the shapes, so any stretch of the pool mixes them."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def _cli(tr, name: str, argv: list[str]) -> tuple[int, list[str]]:
    """``isqkit.cli.main`` in process, with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = tr.call(f"cli.{name}", cli.main, argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue().splitlines()


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _plain(result):
    """A derived-operation result as a value comparable with ``refs``."""
    if result is UNDEFINED:
        return "D"
    if isinstance(result, tuple):
        return result
    return "unknown"


# ---------------------------------------------------------------------------
# analyze: isa and threads, never executing a program
# ---------------------------------------------------------------------------

ACTIONS = ("f.m1", "f.m2", "g.m1", "g.m2")


def _base_spec(rng: random.Random, m: int) -> tuple:
    """A small spec whose branching states are all reachable along a backbone."""
    posts = m - 3
    spec = []
    for i in range(posts):
        spec.append(("post", rng.choice(ACTIONS), i + 1, rng.randrange(m)))
    spec.extend([("S+",), ("S-",), ("D",)])
    return tuple(spec)


def _replicate(rng: random.Random, base: tuple, copies: int) -> tuple:
    """``copies`` copies of base, each edge landing in a random copy of its target.

    Every copy of a base state is bisimilar to it, so minimizing merges the
    copies back to the base's classes.
    """
    m = len(base)
    spec = []
    for _ in range(copies):
        for e in base:
            if e[0] == "post":
                spec.append(
                    ("post", e[1], rng.randrange(copies) * m + e[2], rng.randrange(copies) * m + e[3])
                )
            else:
                spec.append(e)
    return tuple(spec)


def _random_instrs(rng: random.Random, length: int) -> tuple:
    out = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.2:
            out.append(("plain", rng.choice(ACTIONS)))
        elif roll < 0.4:
            out.append(("pos", rng.choice(ACTIONS)))
        elif roll < 0.55:
            out.append(("neg", rng.choice(ACTIONS)))
        elif roll < 0.7:
            out.append(("fwd", rng.randint(0, 8)))
        elif roll < 0.85:
            out.append(("bwd", rng.randint(0, 8)))
        else:
            out.append(("!t",) if rng.random() < 0.5 else ("!f",))
    return tuple(out)


def _pipeline(tr, text: str):
    """parse, normalize, extract both, compare, minimize, compile, re-extract, compare, print, re-parse."""
    p = tr.call("isa.parse_program", parse_program, text)
    tr.work(len(p))
    n = tr.call("isa.normalize", normalize, p)
    tr.count("isa.normalize.in", len(p))
    tr.count("isa.normalize.out", len(n))
    e = tr.call("threads.extract", extract, p)
    en = tr.call("threads.extract", extract, n)
    same = tr.call("threads.bisimilar", bisimilar, e, en)
    m = tr.call("threads.minimize", minimize, e)
    tr.count("threads.extract.states", len(e) + len(en))
    tr.count("threads.minimize.in", len(e))
    tr.count("threads.minimize.out", len(m))
    c = tr.call("threads.compile_thread", compile_thread, m)
    ec = tr.call("threads.extract", extract, c)
    tr.count("threads.extract.states", len(ec))
    same_again = tr.call("threads.bisimilar", bisimilar, m, ec)
    printed = tr.call("isa.render_program", render_program, c)
    back = tr.call("isa.parse_program", parse_program, printed)
    tr.work(len(back))
    return (len(e), len(n), same, len(m), same_again, back == c)


def _analyze_op(shape: str, data: tuple, text: str, count: int, states: int, classes: int, norm: int) -> Op:
    return Op(
        shape,
        data,
        lambda tr: _pipeline(tr, text),
        (states, norm, True, classes, True, True),
        {"instructions": count, "states": states},
    )


def _replicated(rng: random.Random, m: int, target: int) -> tuple[tuple, tuple, int]:
    """A base spec and a replica of it with about ``target`` states reachable from the root."""
    base = _base_spec(rng, m)
    copies = max(1, round(target / (0.45 * m)))  # random edges reach about 45% of the copies
    for _ in range(4):
        spec = _replicate(rng, base, copies)
        states = refs.extracted_states(spec, 0)
        if abs(states - target) <= 0.03 * target:
            break
        copies = max(1, round(copies * target / states))
    return base, spec, states


def analyze(rng: random.Random, workdir: str) -> list[Op]:
    replicated, chains, raw, cli_ops = [], [], [], []
    for i in range(16):
        base, spec, states = _replicated(rng, 20, _jitter(rng, 600 + 80 * i))
        instrs = refs.compiled(spec, 0)
        text = refs.render(instrs)
        replicated.append(
            _analyze_op("replicated", ("replicated", text), text, len(instrs), states,
                        refs.bisim_classes(base, 0), refs.normalized_length(instrs))
        )
    # the longest chains are the slowest operations: minimize refines them one state per round
    for i in range(12):
        n = _jitter(rng, 160 + 40 * i)
        text = " ; ".join(["f.a"] * n + ["!t"])
        chains.append(_analyze_op("chain", ("chain", n), text, n + 1, n + 1, n + 1, 3 * n + 3))
    for i in range(16):
        instrs = _random_instrs(rng, _jitter(rng, 2000 + 120 * i))
        text = refs.render(instrs)
        spec, root = refs.thread_of(instrs)
        raw.append(
            _analyze_op("raw", ("raw", text), text, len(instrs), len(refs.reachable(spec, root)),
                        refs.bisim_classes(spec, root), refs.normalized_length(instrs))
        )
    for i in range(2):
        _, spec, states = _replicated(rng, 20, _jitter(rng, 1200))
        text = refs.render(refs.compiled(spec, 0))
        path = _write(workdir, f"extract{i}.isq", text)
        cli_ops.append(
            Op("cli_extract", ("cli_extract", text),
               lambda tr, path=path: _cli_states(tr, path),
               (0, states), {"states": states})
        )
        instrs = _random_instrs(rng, _jitter(rng, 3000))
        text = refs.render(instrs)
        path = _write(workdir, f"normalize{i}.isq", text)
        cli_ops.append(
            Op("cli_normalize", ("cli_normalize", text),
               lambda tr, path=path: _cli_instructions(tr, path),
               (0, refs.normalized_length(instrs)), {"instructions": len(instrs)})
        )
    return _interleave([replicated, chains, raw, cli_ops])


def _cli_states(tr, path: str):
    code, lines = _cli(tr, "extract", ["extract", "--program", path])
    return code, len(lines)


def _cli_instructions(tr, path: str):
    code, lines = _cli(tr, "normalize", ["normalize", "--program", path])
    return code, lines[0].count(";") + 1 if lines else 0


# ---------------------------------------------------------------------------
# execute: execution and services, small states and many steps
# ---------------------------------------------------------------------------

BUDGET = 1_000_000


def _counter_loop(nf: int) -> str:
    """Move f0 into every other focus: decrement f0, increment f1..f(nf-1), until f0 is zero."""
    body = ["+f0.iszero", f"#{nf + 2}", "f0.decr"] + [f"f{i}.incr" for i in range(1, nf)]
    return " ; ".join(body + [f"\\{nf + 2}", "!t"])


def _family(units_and_states) -> ServiceFamily:
    return ServiceFamily({f"f{i}": UnitService(u, s) for i, (u, s) in enumerate(units_and_states)})


def _run_op(tr, thread, family, mode: ExecMode):
    tag = "cd_on" if mode.detect_cycles else "cd_off"
    out = tr.call("execution.run", run, thread, family, mode, tag=tag)
    tr.work(out.steps)
    tr.count(f"execution.run.status.{out.status.name.lower()}", 1)
    tr.count("services.family_foci", len(family))
    tr.count("execution.run.calls", 1)
    tr.count("execution.run.steps", out.steps)
    if out.status is Status.PROVEN_DIVERGENT:
        tr.count("execution.run.divergence_steps", out.steps)
    if mode.detect_cycles:
        # configurations stored: one per step, plus the one checked before the budget stopped it
        tr.count("execution.run.visited", out.steps + (out.status is Status.BUDGET_EXHAUSTED))
    states = tuple(svc.state for _, svc in out.family.items())
    return out.status.value, str(out.reply), out.steps, states


def _execute_run(shape, data, text, family, mode, expect, props) -> Op:
    thread = extract(parse_program(text))
    return Op(shape, data, lambda tr: _run_op(tr, thread, family, mode), expect, props)


def _cycle(rng: random.Random, size: int) -> tuple:
    """A table unit method walking all ``size`` states in one random cycle."""
    order = list(range(size))
    rng.shuffle(order)
    rows = [None] * size
    for i, s in enumerate(order):
        rows[s] = (rng.random() < 0.5, order[(i + 1) % size])
    return tuple(rows)


def _coprime_sets() -> list[tuple[int, ...]]:
    """Cycle lengths of 2 or 3 distinct primes, proven divergent after 2800..3030 steps."""
    primes = [p for p in range(5, 300) if all(p % q for q in range(2, int(p**0.5) + 1))]
    pairs = [(p, q) for p in primes for q in primes if p < q and 2800 <= 2 * p * q <= 3030]
    triples = [
        (p, q, r) for p in primes for q in primes for r in primes
        if p < q < r and 2800 <= 3 * p * q * r <= 3030
    ]
    return pairs + triples


def _random_table_program(rng: random.Random, methods, length: int) -> tuple:
    out = []
    for p in range(1, length + 1):
        roll = rng.random()
        if roll < 0.55:
            out.append((rng.choice(("plain", "pos", "neg")), rng.choice(methods)))
        elif roll < 0.85:
            q = rng.randint(1, length + 2)
            out.append(("fwd", q - p) if q >= p else ("bwd", p - q))
        else:
            out.append(("!t",) if rng.random() < 0.5 else ("!f",))
    return tuple(out) + (("!t",), ("!f",))


def _normal_program(rng: random.Random, methods, body: int, loops: bool) -> tuple:
    """A positive-test normal form; without loops every jump goes forward, so it always halts."""
    out = []
    for p in range(1, body + 1):
        if rng.random() < 0.6:
            out.append(("pos", rng.choice(methods)))
        else:
            q = rng.randint(1, body + 2) if loops else rng.randint(p + 1, body + 2)
            out.append(("fwd", q - p) if q >= p else ("bwd", p - q))
    return tuple(out) + (("!t",), ("!f",))


def _tabulate(tr, program, unit, k: int):
    d = tr.call("funit.derived_op", derived_op, program, unit)
    rows = tuple(_plain(tr.call("funit.derived_op.eval", d, s)) for s in range(k))
    tr.count("funit.derived_op.calls", k)
    return rows


def _inline_op(tr, x_m, impls, base, derived, k: int):
    composed = tr.call("funit.inline_compose", inline_compose, x_m, impls)
    return _tabulate(tr, composed, base, k), _tabulate(tr, x_m, derived, k)


def execute(rng: random.Random, workdir: str) -> list[Op]:
    counter = counter_unit()
    on, off = ExecMode(BUDGET, True), ExecMode(BUDGET, False)
    loops, divergent, budgeted, tables, inlined, cli_ops = [], [], [], [], [], []
    for i in range(15):
        nf = 2 + i % 5
        mode = on if i % 2 == 0 else off
        n0 = _jitter(rng, (3000 if mode is on else 6000) / (nf + 1))
        starts = [n0] + [rng.randint(0, 50) for _ in range(nf - 1)]
        expect = (Status.COMPLETED.value, "T", n0 * (nf + 1) + 1, (0,) + tuple(s + n0 for s in starts[1:]))
        loops.append(
            _execute_run("counter", ("counter", nf, tuple(starts), mode.detect_cycles), _counter_loop(nf),
                         _family((counter, s) for s in starts), mode, expect, {"foci": nf, "steps": expect[2]})
        )
    cycle_sets = _coprime_sets()
    for _ in range(8):
        sizes = rng.choice(cycle_sets)
        nf = len(sizes)
        rows = [_cycle(rng, size) for size in sizes]
        starts = [rng.randrange(size) for size in sizes]
        family = _family(
            (FunctionalUnit.from_tables(size, {"next": r}), s) for size, r, s in zip(sizes, rows, starts)
        )
        text = " ; ".join([f"f{i}.next" for i in range(nf)] + [f"\\{nf}"])
        steps = nf * math.prod(sizes)  # the start configuration comes back after lcm(sizes) rounds
        divergent.append(
            _execute_run("divergent", ("divergent", sizes, tuple(rows), tuple(starts)), text, family, on,
                         (Status.PROVEN_DIVERGENT.value, "D", steps, ()), {"foci": nf, "steps": steps})
        )
    for i in range(8):
        nf = 2 + i % 3
        mode = on if i % 2 == 0 else off
        budget = _jitter(rng, 3000 if mode is on else 6000)
        text = " ; ".join([f"f{j}.incr" for j in range(nf)] + [f"\\{nf}"])
        starts = [rng.randint(0, 50) for _ in range(nf)]
        budgeted.append(
            _execute_run("budget", ("budget", tuple(starts), budget, mode.detect_cycles), text,
                         _family((counter, s) for s in starts), ExecMode(budget, mode.detect_cycles),
                         (Status.BUDGET_EXHAUSTED.value, "D", budget, ()), {"foci": nf, "steps": budget})
        )
    for _ in range(8):
        k = rng.randint(28, 36)
        unit_tables = {f"m{j}": tuple((rng.random() < 0.5, rng.randrange(k)) for _ in range(k)) for j in range(3)}
        instrs = _random_table_program(rng, sorted(unit_tables), rng.randint(30, 40))
        unit = FunctionalUnit.from_tables(k, unit_tables)
        program = parse_program(refs.render(instrs))
        tables.append(
            Op("derived_op", ("derived_op", k, tuple(sorted(unit_tables.items())), instrs),
               lambda tr, p=program, u=unit, k=k: _tabulate(tr, p, u, k),
               refs.table_of(instrs, unit_tables, k), {"k": k, "instructions": len(instrs)})
        )
    for _ in range(8):
        k = rng.randint(16, 24)
        base_tables = {f"b{j}": tuple((rng.random() < 0.5, rng.randrange(k)) for _ in range(k)) for j in range(2)}
        impls = {name: _normal_program(rng, ("b0", "b1"), rng.randint(4, 8), loops=False) for name in ("a0", "a1")}
        derived_tables = {name: refs.table_of(body, base_tables, k) for name, body in impls.items()}
        x_m = _normal_program(rng, ("a0", "a1"), rng.randint(14, 20), loops=True)
        expect = refs.table_of(x_m, derived_tables, k)
        base = FunctionalUnit.from_tables(k, base_tables)
        derived = FunctionalUnit.from_tables(k, derived_tables)
        programs = {name: parse_program(refs.render(body)) for name, body in impls.items()}
        x_prog = parse_program(refs.render(x_m))
        inlined.append(
            Op("inline", ("inline", k, tuple(sorted(base_tables.items())), tuple(sorted(impls.items())), x_m),
               lambda tr, x=x_prog, i=programs, b=base, d=derived, k=k: _inline_op(tr, x, i, b, d, k),
               (expect, expect), {"k": k, "instructions": len(x_m)})
        )
    for i in range(3):
        nf = 2 + i
        n0 = _jitter(rng, 2000 / (nf + 1))
        starts = [n0] + [rng.randint(0, 50) for _ in range(nf - 1)]
        path = _write(workdir, f"run{i}.isq", _counter_loop(nf))
        literal = ",".join(f"f{j}=counter:{s}" for j, s in enumerate(starts))
        lines = ["reply=T", "status=completed", f"steps={n0 * (nf + 1) + 1}", "state.f0=0"]
        lines += [f"state.f{j}={s + n0}" for j, s in enumerate(starts) if j]
        cli_ops.append(
            Op("cli_run", ("cli_run", nf, tuple(starts)),
               lambda tr, argv=["run", "--program", path, "--family", literal]: _cli(tr, "run", argv),
               (0, lines), {"foci": nf})
        )
    return _interleave([loops, divergent, budgeted, tables, inlined, cli_ops])


# ---------------------------------------------------------------------------
# cosim: natfu on few steps with huge integers
# ---------------------------------------------------------------------------


def _cosim_op(tr, program, univ, n: int):
    translated = tr.call("natfu.rmlful", rmlful, program, tag="cosim")
    d = tr.call("funit.derived_op", derived_op, translated, univ, tag="cosim")
    simulated = _plain(tr.call("funit.derived_op.eval", d, n, tag="cosim"))
    tr.count("funit.derived_op.calls", 1)
    reply, value = tr.call("natfu.rm_run", rm_run, program, n)
    return simulated, (str(reply), value)


def _univ3_op(tr, unit, i: int, states):
    program = tr.call("natfu.univ3_program", univ3_program, i)
    d = tr.call("funit.derived_op", derived_op, program, unit)
    tr.count("funit.derived_op.calls", len(states))
    return tuple(_plain(tr.call("funit.derived_op.eval", d, s)) for s in states)


def _cosim_line(n: int, flag: bool, value: int) -> str:
    r = "T" if flag else "F"
    return f"n={n} oracle={r},{value} translated={r},{value} match=yes"


def cosim(rng: random.Random, workdir: str) -> list[Op]:
    univ, univ3 = univ_unit(), univ3_unit()
    rm_ops, univ3_ops, cli_ops = [], [], []
    # the two largest sizes are the tail: they make up a fifth of the pool, so the p90 falls inside them
    for size in (400, 1000, 2000, 3600, 4400):
        for name, (text, closed) in refs.RM_CORPUS.items():
            n = _jitter(rng, size)
            flag, value = closed(n)
            rm_ops.append(
                Op("rmlful", ("rmlful", name, n),
                   lambda tr, p=parse_program(text), n=n: _cosim_op(tr, p, univ, n),
                   ((flag, value), ("T" if flag else "F", value)),
                   {"n": n, "instructions": text.count(";") + 1, "rm": (text, n)})
            )
    for i in range(20):
        states = tuple(_jitter(rng, s) for s in (200, 800, 1600))
        univ3_ops.append(
            Op("univ3", ("univ3", i, states), lambda tr, i=i, st=states: _univ3_op(tr, univ3, i, st),
               tuple(refs.univ_op(i, s) for s in states), {"i": i, "n": max(states)})
        )
    for j, name in enumerate(("identity", "even")):
        text, closed = refs.RM_CORPUS[name]
        lo = _jitter(rng, 100)
        path = _write(workdir, f"cosim{j}.rml", text)
        cli_ops.append(
            Op("cli_cosim", ("cli_cosim", name, lo),
               lambda tr, argv=["cosim", "--rml", path, "--inputs", f"{lo}..{lo + 29}"]: _cli(tr, "cosim", argv),
               (0, [_cosim_line(n, *closed(n)) for n in range(lo, lo + 30)]), {"n": lo + 29})
        )
    return _interleave([rm_ops, univ3_ops, cli_ops])


# ---------------------------------------------------------------------------
# closure: finfu, the closure engine used one-shot and by degree counting
# ---------------------------------------------------------------------------


def _random_table(rng: random.Random, k: int) -> tuple:
    return tuple((rng.random() < 0.5, rng.randrange(k)) for _ in range(k))


def _generators(rng: random.Random, k: int, count_range, lo: int, hi: int) -> tuple[tuple, frozenset]:
    """A random generator set whose closure has lo..hi members.

    Closure sizes are strongly bimodal, so each pool draws a fixed number of
    sets from each size band; otherwise the seed would decide the cost mix.
    """
    while True:
        gens = tuple(_random_table(rng, k) for _ in range(rng.randint(*count_range)))
        members = refs.closure(gens, k)
        if lo <= len(members) <= hi:
            return gens, members


def _closure_op(tr, gens, k: int):
    closed = tr.call("finfu.derived_closure", derived_closure, gens, k)
    tr.count("finfu.derived_closure.members", len(closed))
    return closed.members


def _leq_op(tr, left, right):
    return tr.call("finfu.leq_by_closure", leq_by_closure, left, right)


def _degrees_op(tr, k: int, budget: ClosureBudget):
    result = tr.call("finfu.count_degrees", count_degrees, k, budget)
    tr.work(result.count)
    tr.count("finfu.count_degrees.sets", result.count)
    tr.count("finfu.count_degrees.runs", 1)
    tr.count("finfu.count_degrees.exact", result.exact)
    return result.count, result.exact


def _mo_op(tr, k: int):
    return len({op.table for op in tr.call("finfu.enumerate_mo", enumerate_mo, k)})


def _unit_text(k: int, tables: dict) -> str:
    lines = [f"states {k}"]
    for name, rows in sorted(tables.items()):
        lines.append(f"method {name}")
        lines.extend(f"{s} -> {'T' if flag else 'F'} {nxt}" for s, (flag, nxt) in enumerate(rows))
    return "\n".join(lines) + "\n"


def _leq_pair(rng: random.Random, holds: bool):
    """Unit tables (left, right) over 3 states; left is built from right's closure when it should hold."""
    right, members = _generators(rng, 3, (2, 2), 30, 70)
    if holds:
        left = tuple(rng.sample(sorted(members), 2))
    else:
        left = (_random_table(rng, 3),)
        while left[0] in members:
            left = (_random_table(rng, 3),)
        left += (rng.choice(sorted(members)),)
    return left, right, all(t in members for t in left)


def _degrees_k2(tr):
    return _degrees_op(tr, 2, ClosureBudget()) + (_mo_op(tr, 2),)


def closure(rng: random.Random, workdir: str) -> list[Op]:
    k3, k4, leq, degrees, cli_ops = [], [], [], [], []
    # (generators, closure size band, operations): closure cost follows closure size, so
    # every pool draws the same number of sets from each band
    for count, lo, hi, ops in ((1, 6, 14, 2), (2, 15, 40, 2), (2, 41, 100, 3), (2, 216, 216, 6)):
        for _ in range(ops):
            gens, members = _generators(rng, 3, (count, count), lo, hi)
            k3.append(
                Op("closure_k3", ("closure_k3", gens), lambda tr, g=gens: _closure_op(tr, g, 3), members,
                   {"k": 3, "generators": len(gens), "closure": len(members)})
            )
    # k=4 single generators only, with closures of at most a few hundred members:
    # larger ones take minutes with the current engine
    for lo, hi in ((4, 40), (4, 40), (4, 40), (41, 140)):
        gens, members = _generators(rng, 4, (1, 1), lo, hi)
        k4.append(
            Op("closure_k4", ("closure_k4", gens), lambda tr, g=gens: _closure_op(tr, g, 4), members,
               {"k": 4, "generators": 1, "closure": len(members)})
        )
    for i in range(4):
        left, right, holds = _leq_pair(rng, i % 2 == 0)
        lu = FunctionalUnit.from_tables(3, {f"l{j}": t for j, t in enumerate(left)})
        ru = FunctionalUnit.from_tables(3, {f"r{j}": t for j, t in enumerate(right)})
        leq.append(
            Op("leq", ("leq", left, right), lambda tr, a=lu, b=ru: _leq_op(tr, a, b), holds,
               {"k": 3, "generators": len(right)})
        )
    # 12 degrees and 16 method operations over two states
    degrees.append(Op("degrees_k2", ("degrees_k2",), _degrees_k2, (12, True, 16), {"k": 2}))
    # a budget in sets, never in seconds, keeps the answer deterministic: a lower bound equal to the budget.
    # The cost steps with the budget, so the budgets are fixed rather than drawn from the seed.
    for sets in (18, 19, 20, 21) * 3:
        degrees.append(
            Op("degrees_k3", ("degrees_k3", sets),
               lambda tr, b=ClosureBudget(max_sets=sets): _degrees_op(tr, 3, b),
               (sets, False), {"k": 3, "sets": sets})
        )
    cli_ops.append(
        Op("cli_degrees", ("cli_degrees",), lambda tr: _cli(tr, "degrees", ["degrees", "--k", "2"]),
           (0, ["degrees=12", "exact=true"]), {"k": 2})
    )
    for i in range(2):
        left, right, holds = _leq_pair(rng, i == 0)
        lpath = _write(workdir, f"left{i}.tbl", _unit_text(3, {f"l{j}": t for j, t in enumerate(left)}))
        rpath = _write(workdir, f"right{i}.tbl", _unit_text(3, {f"r{j}": t for j, t in enumerate(right)}))
        cli_ops.append(
            Op("cli_leq", ("cli_leq", left, right),
               lambda tr, argv=["leq", "--left", lpath, "--right", rpath]: _cli(tr, "leq", argv),
               (0, ["true" if holds else "false"]), {"k": 3, "generators": len(right)})
        )
    return _interleave([k3, k4, leq, degrees, cli_ops])


WORKLOADS = {"analyze": analyze, "execute": execute, "cosim": cosim, "closure": closure}

"""Command line surface: run, inspect, translate, co-simulate, count, compare.

Every subcommand is a batch computation; ``--json`` switches the output to
line-delimited JSON objects with stable field names.  Exit codes: ``run``
reports its outcome (0 completed true, 1 completed false, 2 proven
divergent, 3 budget exhausted), usage errors exit 64, file and format
errors exit 65.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Sequence

from . import finfu, natfu
from .execution import BudgetExhausted, ExecMode, Status, run
from .funit import derived_op, parse_natural, parse_unit_table, UNDEFINED, Unknown
from .isa import ParseError, normalize, parse_program, render_program
from .services import Reply, ServiceFamily, UnitService
from .threads import Post, compile_thread, dump, extract, parse_dump

USAGE_ERROR = 64
DATA_ERROR = 65

_RUN_EXIT = {
    (Status.COMPLETED, Reply.T): 0,
    (Status.COMPLETED, Reply.F): 1,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def parse_family_literal(text: str) -> ServiceFamily:
    """Parse ``f=counter:0,g=univ:12``-style family literals.

    Supported service forms: ``counter:<n>``, ``univ:<n>``, ``univ3:<n>``,
    and ``table:<file>:<state>`` for finite units given as table files.
    """
    entries = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty family entry")
        focus, eq, spec = part.partition("=")
        if not eq:
            raise ValueError(f"family entry {part!r} needs the form focus=kind:state")
        fields = spec.split(":")
        kind = fields[0]
        if kind == "counter" and len(fields) == 2:
            unit, state = natfu.counter_unit(), parse_natural(fields[1])
        elif kind == "univ" and len(fields) == 2:
            unit, state = natfu.univ_unit(), parse_natural(fields[1])
        elif kind == "univ3" and len(fields) == 2:
            unit, state = natfu.univ3_unit(), parse_natural(fields[1])
        elif kind == "table" and len(fields) == 3:
            unit, state = parse_unit_table(_read(fields[1])), parse_natural(fields[2])
            if not 0 <= state < unit.size:
                raise ValueError(f"state {state} out of range for {unit.size}-state unit")
        else:
            raise ValueError(f"unknown service literal {spec!r}")
        if focus in entries:
            raise ValueError(f"focus {focus!r} given twice")
        entries[focus] = UnitService(unit, state)
    return ServiceFamily(entries)


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a natural number")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative number")
    return value


def _inputs(text: str) -> list[int]:
    """A range ``a..b`` or a comma list of naturals; selecting nothing is an error."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        values = list(range(_natural(lo), _natural(hi) + 1))
    else:
        values = [_natural(piece) for piece in text.split(",") if piece.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} selects no inputs")
    return values


def _exec_mode(args) -> ExecMode:
    return ExecMode(budget=args.budget, detect_cycles=not args.no_cycle_detection)


def _emit(args, payload: dict, human_lines: list[str]):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_run(args) -> int:
    program = parse_program(_read(args.program))
    family = parse_family_literal(args.family)
    outcome = run(extract(program), family, _exec_mode(args), collect_trace=args.trace)
    if args.trace:
        for step in outcome.trace:
            payload = {
                "pos": step.state,
                "action": str(step.action),
                "reply": str(step.reply),
                "state": str(step.service_state),
            }
            line = (
                f"pos={step.state} action={step.action} "
                f"reply={step.reply} state={step.service_state}"
            )
            _emit(args, payload, [line])
    states = {
        focus: str(svc.state) if isinstance(svc, UnitService) else "empty"
        for focus, svc in outcome.family.items()
    }
    payload = {
        "status": outcome.status.value,
        "reply": str(outcome.reply),
        "steps": outcome.steps,
        "state": states,
    }
    first = f"reply={outcome.reply}"
    if len(states) == 1:
        first += f" state={next(iter(states.values()))}"
    lines = [first, f"status={outcome.status.value}", f"steps={outcome.steps}"]
    lines.extend(f"state.{focus}={value}" for focus, value in sorted(states.items()))
    _emit(args, payload, lines)
    return _RUN_EXIT.get((outcome.status, outcome.reply), 2 if outcome.status is Status.PROVEN_DIVERGENT else 3)


def _cmd_extract(args) -> int:
    program = parse_program(_read(args.program))
    spec = extract(program)
    if args.json:
        for i, entry in enumerate(spec.entries):
            obj: dict = {"id": i, "root": i == spec.root}
            if isinstance(entry, Post):
                obj.update(
                    kind="post",
                    action=str(entry.action),
                    true=entry.true_next,
                    false=entry.false_next,
                )
            else:
                obj["kind"] = str(entry)
            print(json.dumps(obj, sort_keys=True))
    else:
        print(dump(spec))
    return 0


def _cmd_normalize(args) -> int:
    program = parse_program(_read(args.program))
    text = render_program(normalize(program))
    _emit(args, {"program": text}, [text])
    return 0


def _cmd_compile_thread(args) -> int:
    spec = parse_dump(_read(args.spec))
    text = render_program(compile_thread(spec))
    _emit(args, {"program": text}, [text])
    return 0


def _cmd_translate(args) -> int:
    program = parse_program(_read(args.rml))
    text = render_program(natfu.rmlful(program))
    _emit(args, {"program": text}, [text])
    return 0


def _format_result(result) -> str:
    if result is UNDEFINED:
        return "D"
    if isinstance(result, Unknown):
        return "unknown"
    flag, state = result
    return f"{'T' if flag else 'F'},{state}"


def _cmd_cosim(args) -> int:
    program = parse_program(_read(args.rml))
    mode = _exec_mode(args)
    translated = derived_op(natfu.rmlful(program), natfu.univ_unit(), "f", mode)
    all_match = True
    for n in args.inputs:
        try:
            reply, value = natfu.rm_run(program, n, mode)
            oracle = "D" if reply is Reply.D else f"{reply},{value}"
        except BudgetExhausted:
            oracle = "unknown"
        simulated = _format_result(translated(n))
        match = oracle == simulated and oracle != "unknown"
        all_match = all_match and match
        payload = {"n": n, "oracle": oracle, "translated": simulated, "match": match}
        _emit(
            args,
            payload,
            [f"n={n} oracle={oracle} translated={simulated} match={'yes' if match else 'no'}"],
        )
    return 0 if all_match else 1


def _fingerprint(closed: finfu.ClosedSet) -> str:
    """Eight hex digits naming a closed set, the same in every interpreter."""
    text = "\n".join(sorted(finfu.render_behavior(t) for t in closed.members))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _cmd_degrees(args) -> int:
    budget = finfu.ClosureBudget(max_sets=args.max_sets, max_seconds=args.max_seconds)
    result = finfu.count_degrees(args.k, budget)
    payload = {"degrees": result.count, "exact": result.exact, "k": args.k}
    lines = [f"degrees={result.count}", f"exact={'true' if result.exact else 'false'}"]
    _emit(args, payload, lines)
    if args.list:
        for closed in sorted(result.sets, key=lambda c: (len(c), c.fingerprint)):
            generators = [finfu.render_behavior(t) for t in sorted(closed.generators)]
            fingerprint = _fingerprint(closed)
            payload = {"fingerprint": fingerprint, "size": len(closed), "generators": generators}
            line = (
                f"degree fingerprint={fingerprint} size={len(closed)} "
                f"generators=[{' '.join(generators) or 'none'}]"
            )
            _emit(args, payload, [line])
    return 0


def _cmd_leq(args) -> int:
    left = parse_unit_table(_read(args.left))
    right = parse_unit_table(_read(args.right))
    result = finfu.leq_by_closure(left, right)
    _emit(args, {"result": result}, ["true" if result else "false"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isqkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")
        return p

    p = add("run", _cmd_run, "run a program against a service family")
    p.add_argument("--program", required=True, help="program file (.isq)")
    p.add_argument("--family", required=True, help="family literal, e.g. f=counter:0")
    p.add_argument("--budget", type=_natural, default=1_000_000)
    p.add_argument("--no-cycle-detection", action="store_true")
    p.add_argument("--trace", action="store_true", help="print one line per step")

    p = add("extract", _cmd_extract, "print the thread a program exhibits")
    p.add_argument("--program", required=True)

    p = add("normalize", _cmd_normalize, "rewrite to positive tests and jumps")
    p.add_argument("--program", required=True)

    p = add("compile-thread", _cmd_compile_thread, "compile a thread dump to a program")
    p.add_argument("--spec", required=True, help="thread dump file")

    p = add("translate", _cmd_translate, "translate a register program to the universal unit")
    p.add_argument("--rml", required=True)

    p = add("cosim", _cmd_cosim, "compare register oracle and translation")
    p.add_argument("--rml", required=True)
    p.add_argument("--inputs", type=_inputs, default="0..10", help="range a..b or comma list")
    p.add_argument("--budget", type=_natural, default=1_000_000)
    p.add_argument("--no-cycle-detection", action="store_true")

    p = add("degrees", _cmd_degrees, "count functional unit degrees over k states")
    p.add_argument("--k", type=int, default=2, choices=range(1, finfu.MAX_ENUMERATED_STATES + 1))
    p.add_argument(
        "--list", action="store_true", help="one line per degree, with a minimum generating set"
    )
    p.add_argument("--max-sets", type=_natural, default=None)
    p.add_argument("--max-seconds", type=_nonnegative, default=None)

    p = add("leq", _cmd_leq, "decide derivability between finite units")
    p.add_argument("--left", required=True, help="table file")
    p.add_argument("--right", required=True, help="table file")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"isqkit: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())

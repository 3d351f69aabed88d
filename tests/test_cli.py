import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isqkit
from isqkit import natfu
from isqkit.cli import main, parse_family_literal
from isqkit.funit import render_unit_table, tabulate_unit, restrict
from isqkit.natfu import counter_unit
from isqkit.services import UnitService


@pytest.fixture
def program_file(tmp_path):
    def write(text, name="p.isq"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def subprocess_env(**extra):
    """The environment for a child interpreter that must import this isqkit."""
    src = str(Path(isqkit.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src, **extra)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFamilyLiterals:
    def test_counter(self):
        family = parse_family_literal("f=counter:0")
        svc = family.get("f")
        assert isinstance(svc, UnitService)
        assert svc.state == 0
        assert svc.unit.interface == {"setzero", "incr", "decr", "iszero"}

    def test_multiple_entries(self):
        family = parse_family_literal("f=univ:12,g=univ3:4")
        assert family.foci == {"f", "g"}

    def test_table_literal(self, tmp_path):
        path = tmp_path / "unit.tbl"
        path.write_text(render_unit_table(tabulate_unit(restrict(counter_unit(), {"iszero"}), 2)))
        family = parse_family_literal(f"f=table:{path}:1")
        assert family.get("f").state == 1

    def test_duplicate_focus_rejected(self):
        with pytest.raises(ValueError):
            parse_family_literal("f=counter:0,f=counter:1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_family_literal("f=stack:0")


class TestRunCommand:
    def test_two_increments(self, capsys, program_file):
        path = program_file("f.incr ; f.incr ; +f.iszero ; !t ; !f")
        code, out = run_cli(capsys, "run", "--program", path, "--family", "f=counter:0")
        assert code == 1
        assert out.splitlines()[0] == "reply=F state=2"

    def test_completed_true_exit_zero(self, capsys, program_file):
        path = program_file("!t")
        code, out = run_cli(capsys, "run", "--program", path, "--family", "f=counter:9")
        assert code == 0
        assert out.splitlines()[0] == "reply=T state=9"

    def test_divergent_exit_two(self, capsys, program_file):
        path = program_file("+g.m ; !t ; !f")
        code, out = run_cli(capsys, "run", "--program", path, "--family", "f=counter:0")
        assert code == 2
        assert out.splitlines()[0] == "reply=D"

    def test_budget_exhausted_exit_three(self, capsys, program_file):
        path = program_file("f.incr ; \\1")
        code, _ = run_cli(
            capsys, "run", "--program", path, "--family", "f=counter:0", "--budget", "50"
        )
        assert code == 3

    def test_trace_lines(self, capsys, program_file):
        path = program_file("f.incr ; +f.iszero ; !t ; !f")
        code, out = run_cli(
            capsys, "run", "--program", path, "--family", "f=counter:0", "--trace"
        )
        lines = out.splitlines()
        assert lines[0] == "pos=0 action=f.incr reply=T state=1"
        assert lines[1] == "pos=1 action=f.iszero reply=F state=1"

    def test_trace_json_lines(self, capsys, program_file):
        path = program_file("f.incr ; +f.iszero ; !t ; !f")
        code, out = run_cli(
            capsys, "run", "--program", path, "--family", "f=counter:0", "--trace", "--json"
        )
        assert code == 1
        assert out.splitlines() == [
            '{"action": "f.incr", "pos": 0, "reply": "T", "state": "1"}',
            '{"action": "f.iszero", "pos": 1, "reply": "F", "state": "1"}',
            '{"reply": "F", "state": {"f": "1"}, "status": "completed", "steps": 2}',
        ]

    def test_json_matches_human(self, capsys, program_file):
        path = program_file("f.incr ; f.incr ; +f.iszero ; !t ; !f")
        code, human = run_cli(capsys, "run", "--program", path, "--family", "f=counter:0")
        code2, raw = run_cli(
            capsys, "run", "--program", path, "--family", "f=counter:0", "--json"
        )
        assert code == code2
        payload = json.loads(raw)
        lines = dict(part.split("=", 1) for line in human.splitlines() for part in line.split() if "=" in part)
        assert lines["reply"] == payload["reply"]
        assert lines["status"] == payload["status"]
        assert int(lines["steps"]) == payload["steps"]
        assert lines["state.f"] == payload["state"]["f"]

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7"
    )
    @pytest.mark.parametrize(
        "extra, lines",
        [
            ((), ["reply=T state=2^20000", "status=completed", "steps=1", "state.f=2^20000"]),
            (("--trace",), ["pos=0 action=f.exp2 reply=T state=2^20000", "reply=T state=2^20000"]),
            (
                ("--trace", "--json"),
                [
                    '{"action": "f.exp2", "pos": 0, "reply": "T", "state": "2^20000"}',
                    '{"reply": "T", "state": {"f": "2^20000"}, "status": "completed", "steps": 1}',
                ],
            ),
        ],
    )
    def test_state_beyond_the_int_to_str_limit(self, capsys, program_file, extra, lines):
        # 2**20000 has 6021 decimal digits, more than the interpreter's
        # default limit of 4300 for int-to-str conversion
        path = program_file("f.exp2 ; !t", name="big.isq")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run_cli(
                capsys, "run", "--program", path, "--family", "f=univ:20000", *extra
            )
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 0
        assert out.splitlines()[: len(lines)] == lines

    def test_parse_error_exit_65(self, capsys, program_file):
        path = program_file("???")
        code = main(["run", "--program", path, "--family", "f=counter:0"])
        assert code == 65

    def test_missing_file_exit_65(self, capsys):
        code = main(["run", "--program", "/nonexistent.isq", "--family", "f=counter:0"])
        assert code == 65

    @pytest.mark.parametrize("state", ["\u0663", "+3", " 3", "3_0", "-1"])
    def test_family_states_are_ascii_digits(self, capsys, program_file, state):
        path = program_file("f.iszero ; !t ; !f")
        code = main(["run", "--program", path, "--family", f"f=counter:{state}"])
        assert code == 65


class TestInspectionCommands:
    def test_extract_deadlock(self, capsys, program_file):
        path = program_file("#2 ; !t ; \\2")
        code, out = run_cli(capsys, "extract", "--program", path)
        assert code == 0
        assert out.strip() == "* 0: D"

    def test_extract_json(self, capsys, program_file):
        path = program_file("+f.m ; !t ; !f")
        _, out = run_cli(capsys, "extract", "--program", path, "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"id": 0, "root": True, "kind": "post", "action": "f.m", "true": 1, "false": 2}
        assert {"id": 1, "root": False, "kind": "S+"} in rows

    def test_normalize(self, capsys, program_file):
        from isqkit.isa import is_normalized, parse_program

        path = program_file("f.m ; !t ; !f")
        code, out = run_cli(capsys, "normalize", "--program", path)
        assert code == 0
        assert is_normalized(parse_program(out.strip()))

    def test_compile_thread(self, capsys, tmp_path, program_file):
        spec_path = tmp_path / "thread.txt"
        spec_path.write_text("* 0: f.m ? 1 : 2\n  1: S+\n  2: S-\n")
        code, out = run_cli(capsys, "compile-thread", "--spec", str(spec_path))
        assert code == 0
        from isqkit.isa import parse_program
        from isqkit.threads import bisimilar, extract, parse_dump

        assert bisimilar(
            extract(parse_program(out.strip())), parse_dump(spec_path.read_text())
        )


    def test_compile_thread_rejects_a_repeated_state(self, capsys, tmp_path):
        spec_path = tmp_path / "thread.txt"
        spec_path.write_text("* 0: S+\n  0: S-\n")
        code, out = run_cli(capsys, "compile-thread", "--spec", str(spec_path))
        assert (code, out) == (65, "")

    @pytest.mark.parametrize(
        "spec",
        [
            "* \u0660: f.m ? \u0661 : \u0662\n  \u0661: S+\n  \u0662: S-\n",
            "* 0: f.m ? \u0661 : 2\n  1: S+\n  2: S-\n",
        ],
        ids=["arabic-indic-ids", "arabic-indic-successor"],
    )
    def test_compile_thread_takes_only_ascii_state_ids(self, capsys, tmp_path, spec):
        spec_path = tmp_path / "thread.txt"
        spec_path.write_text(spec, encoding="utf-8")
        code, out = run_cli(capsys, "compile-thread", "--spec", str(spec_path))
        assert (code, out) == (65, "")


class TestTranslationCommands:
    def test_translate(self, capsys, program_file):
        path = program_file("r0.incr ; #1", name="p.rml")
        code, out = run_cli(capsys, "translate", "--rml", path)
        assert code == 0
        assert out.strip() == (
            "f.exp2 ; f.succ0 ; #1 ; -f.iszero1 ; #3 ; f.fact5 ; !t ; f.fact5 ; !f"
        )

    def test_cosim_matches(self, capsys, program_file):
        path = program_file(
            "+r0.iszero ; #4 ; r0.decr ; r2.incr ; \\4 ; r2.incr ; #1", name="succ.rml"
        )
        code, out = run_cli(capsys, "cosim", "--rml", path, "--inputs", "0..5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[4] == "n=4 oracle=T,5 translated=T,5 match=yes"

    def test_cosim_jump_past_the_end_diverges(self, capsys, program_file):
        path = program_file("#2", name="past.rml")
        code, out = run_cli(capsys, "cosim", "--rml", path, "--inputs", "0..2")
        assert code == 0
        assert out.splitlines() == [f"n={n} oracle=D translated=D match=yes" for n in range(3)]

    def test_cosim_budget_exhausted_is_unknown(self, capsys, program_file):
        path = program_file("r0.incr ; \\1", name="up.rml")
        code, out = run_cli(capsys, "cosim", "--rml", path, "--inputs", "0", "--budget", "50")
        assert code == 1
        assert out.strip() == "n=0 oracle=unknown translated=unknown match=no"

    def test_cosim_oracle_errors_propagate(self, capsys, program_file, monkeypatch):
        def broken(program, n, mode):
            raise ValueError("oracle defect")

        monkeypatch.setattr(natfu, "rm_run", broken)
        path = program_file("#1", name="id.rml")
        code = main(["cosim", "--rml", path, "--inputs", "0..2"])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "oracle defect" in captured.err

    def test_cosim_json(self, capsys, program_file):
        path = program_file("#1", name="id.rml")
        code, out = run_cli(capsys, "cosim", "--rml", path, "--inputs", "2,3", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["n"] == 2
        assert rows[0]["match"] is True


class TestAnalysisCommands:
    def test_degrees(self, capsys):
        code, out = run_cli(capsys, "degrees", "--k", "2")
        assert code == 0
        assert out.splitlines()[0] == "degrees=12"

    def test_degrees_list(self, capsys):
        code, out = run_cli(capsys, "degrees", "--k", "2", "--list")
        lines = out.splitlines()
        assert lines[0] == "degrees=12"
        assert len([l for l in lines if l.startswith("degree ")]) == 12

    def test_degrees_list_fingerprint_is_a_digest(self, capsys):
        _, out = run_cli(capsys, "degrees", "--k", "2", "--list")
        first = out.splitlines()[2]
        assert first.endswith("size=2 generators=[none]")
        expected = hashlib.sha256(b"F0,F1\nT0,T1").hexdigest()[:8]
        assert first.startswith(f"degree fingerprint={expected} ")

    def test_degrees_list_independent_of_hash_seed(self):
        outputs = set()
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-m", "isqkit", "degrees", "--k", "2", "--list"],
                capture_output=True,
                text=True,
                env=subprocess_env(PYTHONHASHSEED=seed),
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_degrees_list_json_lines(self, capsys):
        code, out = run_cli(capsys, "degrees", "--k", "2", "--list", "--json")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[:3] + lines[7:8] + lines[-1:] == [
            '{"degrees": 12, "exact": true, "k": 2}',
            '{"fingerprint": "289506ef", "generators": [], "size": 2}',
            '{"fingerprint": "8c8754e0", "generators": ["F0,F0"], "size": 4}',
            '{"fingerprint": "fc00b0d2", "generators": ["F0,F0", "F1,F1"], "size": 6}',
            '{"fingerprint": "072148e6", "generators": ["F1,T0"], "size": 16}',
        ]

    def test_degrees_k3_list_json_digest(self, capsys):
        code, out = run_cli(capsys, "degrees", "--k", "3", "--max-sets", "300", "--list", "--json")
        assert code == 0
        assert len(out.splitlines()) == 301
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c13a5ba8688725103e832166c079711886a591091b499a8d03cbb9c6ddba58b6"
        )

    def test_degrees_json(self, capsys):
        _, out = run_cli(capsys, "degrees", "--k", "2", "--json")
        assert json.loads(out.splitlines()[0]) == {"degrees": 12, "exact": True, "k": 2}

    def test_leq(self, capsys, tmp_path):
        left = tmp_path / "left.tbl"
        right = tmp_path / "right.tbl"
        small = tabulate_unit(restrict(counter_unit(), {"iszero"}), 3)
        big = tabulate_unit(restrict(counter_unit(), {"decr", "iszero"}), 3)
        left.write_text(render_unit_table(small))
        right.write_text(render_unit_table(big))
        code, out = run_cli(capsys, "leq", "--left", str(left), "--right", str(right))
        assert code == 0
        assert out.strip() == "true"
        code, out = run_cli(capsys, "leq", "--left", str(right), "--right", str(left))
        assert out.strip() == "false"

    @pytest.mark.parametrize(
        "table",
        [
            "states \u0662\nmethod m\n0 -> T 1\n1 -> F 0\n",
            "states 2\nmethod m\n\u0660 -> T 1\n1 -> F 0\n",
            "states 2\nmethod m\n0 -> T \u0661\n1 -> F 0\n",
            "states 2\nmethod m\n0 -> T +1\n1 -> F 0\n",
        ],
        ids=["arabic-indic-count", "arabic-indic-state", "arabic-indic-next", "signed-next"],
    )
    def test_leq_takes_only_ascii_numbers_in_tables(self, capsys, tmp_path, table):
        left = tmp_path / "left.tbl"
        right = tmp_path / "right.tbl"
        left.write_text(table, encoding="utf-8")
        right.write_text("states 2\nmethod m\n0 -> T 1\n1 -> F 0\n")
        code, out = run_cli(capsys, "leq", "--left", str(left), "--right", str(right))
        assert (code, out) == (65, "")


class TestJsonHumanParity:
    """The two output modes must carry the same facts."""

    def test_program_emitting_commands(self, capsys, program_file):
        path = program_file("f.m ; !t ; !f")
        _, human = run_cli(capsys, "normalize", "--program", path)
        _, raw = run_cli(capsys, "normalize", "--program", path, "--json")
        assert json.loads(raw)["program"] == human.strip()
        rml = program_file("r0.incr ; #1", name="p.rml")
        _, human = run_cli(capsys, "translate", "--rml", rml)
        _, raw = run_cli(capsys, "translate", "--rml", rml, "--json")
        assert json.loads(raw)["program"] == human.strip()

    def test_degrees_and_leq(self, capsys, tmp_path):
        _, human = run_cli(capsys, "degrees", "--k", "1")
        _, raw = run_cli(capsys, "degrees", "--k", "1", "--json")
        payload = json.loads(raw)
        facts = dict(line.split("=", 1) for line in human.splitlines())
        assert str(payload["degrees"]) == facts["degrees"]
        assert ("true" if payload["exact"] else "false") == facts["exact"]
        table = tmp_path / "t.tbl"
        table.write_text(render_unit_table(tabulate_unit(restrict(counter_unit(), {"iszero"}), 2)))
        _, human = run_cli(capsys, "leq", "--left", str(table), "--right", str(table))
        _, raw = run_cli(capsys, "leq", "--left", str(table), "--right", str(table), "--json")
        assert json.loads(raw)["result"] == (human.strip() == "true")

    def test_extract_parity(self, capsys, program_file):
        from isqkit.threads import Post, parse_dump

        path = program_file("+f.m ; f.m ; !t ; !f")
        _, human = run_cli(capsys, "extract", "--program", path)
        _, raw = run_cli(capsys, "extract", "--program", path, "--json")
        spec = parse_dump(human)
        rows = [json.loads(line) for line in raw.splitlines()]
        assert len(rows) == len(spec.entries)
        for row in rows:
            entry = spec.entries[row["id"]]
            assert row["root"] == (row["id"] == spec.root)
            if row["kind"] == "post":
                assert isinstance(entry, Post)
                assert str(entry.action) == row["action"]
                assert (entry.true_next, entry.false_next) == (row["true"], row["false"])
            else:
                assert str(entry) == row["kind"]

    def test_cosim_parity(self, capsys, program_file):
        path = program_file("#1", name="id.rml")
        _, human = run_cli(capsys, "cosim", "--rml", path, "--inputs", "0..3")
        _, raw = run_cli(capsys, "cosim", "--rml", path, "--inputs", "0..3", "--json")
        human_rows = [
            dict(part.split("=", 1) for part in line.split()) for line in human.splitlines()
        ]
        for human_row, json_row in zip(human_rows, map(json.loads, raw.splitlines())):
            assert int(human_row["n"]) == json_row["n"]
            assert human_row["oracle"] == json_row["oracle"]
            assert human_row["translated"] == json_row["translated"]
            assert (human_row["match"] == "yes") == json_row["match"]


class TestUsage:
    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 64

    def test_missing_required_option_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--family", "f=counter:0"])
        assert err.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [["run", "--program", "p.isq", "--family", "f=counter:0"], ["cosim", "--rml", "p.rml"]],
    )
    def test_negative_budget_exits_64(self, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--budget", "-1"])
        assert err.value.code == 64

    @pytest.mark.parametrize("inputs", ["--inputs=-2..1", "--inputs=3,-1", "--inputs=5..2", "--inputs=,"])
    def test_cosim_inputs_outside_the_naturals_or_empty_exit_64(self, program_file, inputs):
        path = program_file("!t", "id.rml")
        with pytest.raises(SystemExit) as err:
            main(["cosim", "--rml", path, inputs])
        assert err.value.code == 64

    @pytest.mark.parametrize("option", ["--max-sets=-1", "--max-seconds=-0.5", "--max-seconds=nan"])
    def test_negative_degree_budget_exits_64(self, option):
        with pytest.raises(SystemExit) as err:
            main(["degrees", "--k", "2", option])
        assert err.value.code == 64

    @pytest.mark.parametrize("k", ["0", "5", "-1"])
    def test_degree_space_outside_enumerable_range_exits_64(self, k):
        with pytest.raises(SystemExit) as err:
            main(["degrees", "--k", k])
        assert err.value.code == 64

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "p.isq"
        path.write_text("!t")
        result = subprocess.run(
            [sys.executable, "-m", "isqkit", "run", "--program", str(path), "--family", "f=counter:0"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "reply=T state=0"

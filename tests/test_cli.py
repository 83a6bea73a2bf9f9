import functools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from probarg import ParseError, SemanticsFlag, cli, maxent
from probarg.cli import format_problem, parse, parse_query_conjunction, run

FIG1 = """\
# the running four-argument example
arg A
arg B
arg C
arg D
att A B
att B A
att D B
sup C A
sup D C
semantics COH FOU
"""

AB = """\
arg A
arg B
att A B
semantics COH
constraint 1*A = 0.8
query ab A & B
query anb A & !B
"""

UNSAT = """\
arg A
constraint 1*A = 1
constraint 1*A = 0
"""


@pytest.fixture
def fig1_file(tmp_path):
    p = tmp_path / "fig1.paf"
    p.write_text(FIG1)
    return str(p)


@pytest.fixture
def ab_file(tmp_path):
    p = tmp_path / "ab.paf"
    p.write_text(AB)
    return str(p)


@pytest.fixture
def unsat_file(tmp_path):
    p = tmp_path / "unsat.paf"
    p.write_text(UNSAT)
    return str(p)


class TestParse:
    def test_fig1_structure(self):
        pf = parse(FIG1)
        assert pf.baf.n == 4
        assert len(pf.baf.attacks) == 3
        assert len(pf.baf.supports) == 2
        assert set(pf.flags) == {SemanticsFlag.COH, SemanticsFlag.FOU}

    def test_constraint_line(self):
        pf = parse("arg A\narg B\nconstraint 1*A + 1*B <= 1\n")
        assert len(pf.user_constraints) == 1
        raw = pf.user_constraints[0]
        assert raw.relation == "<=" and raw.bound == 1.0
        assert dict(raw.terms) == {"A": 1.0, "B": 1.0}

    def test_undeclared_argument_fails_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse("arg A\natt A X\n")
        assert "line 2" in str(exc.value)
        assert "X" in str(exc.value)

    def test_duplicate_arg(self):
        with pytest.raises(ParseError) as exc:
            parse("arg A\narg A\n")
        assert "line 2" in str(exc.value)

    def test_two_semantics_lines(self):
        with pytest.raises(ParseError):
            parse("arg A\nsemantics COH\nsemantics FOU\n")

    def test_unknown_flag(self):
        with pytest.raises(ParseError):
            parse("arg A\nsemantics NOPE\n")

    def test_malformed_coefficient(self):
        with pytest.raises(ParseError) as exc:
            parse("arg A\nconstraint one*A <= 1\n")
        assert "line 2" in str(exc.value)

    def test_dangling_plus(self):
        with pytest.raises(ParseError):
            parse("arg A\nconstraint 1*A + <= 1\n")

    def test_bad_bound(self):
        with pytest.raises(ParseError):
            parse("arg A\nconstraint 1*A <= one\n")

    def test_query_literals(self):
        pf = parse("arg A\narg B\nquery q A & !B\n")
        assert pf.queries["q"].literals == (("A", True), ("B", False))

    def test_comments_and_blanks(self):
        pf = parse("\n# hi\narg A  # trailing\n\n")
        assert pf.baf.n == 1

    def test_round_trip(self):
        pf = parse(AB)
        again = parse(format_problem(pf))
        assert again == pf
        assert format_problem(again) == format_problem(pf)

    def test_round_trip_fig1(self):
        pf = parse(FIG1)
        assert parse(format_problem(pf)) == pf

    def test_query_string_parser(self):
        q = parse_query_conjunction("A & !B")
        assert q.literals == (("A", True), ("B", False))
        with pytest.raises(Exception):
            parse_query_conjunction("A | B")


class TestCommands:
    def test_sat(self, fig1_file, capsys):
        assert run(["sat", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "SAT value=0.000000" in out

    def test_sat_unsat_exit_code(self, unsat_file, capsys):
        assert run(["sat", unsat_file]) == 1
        assert "UNSAT value=1.000000" in capsys.readouterr().out

    def test_entail(self, fig1_file, capsys):
        assert run(["entail", fig1_file, "B"]) == 0
        assert "B: [0.000000, 0.000000]" in capsys.readouterr().out

    def test_entail_all(self, fig1_file, capsys):
        assert run(["entail-all", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "C: [1.000000, 1.000000]" in out
        assert "A: [0.000000, 1.000000]" in out

    def test_maxent(self, ab_file, capsys):
        assert run(["maxent", ab_file]) == 0
        out = capsys.readouterr().out
        assert "L(A)=0.800000" in out and "L(B)=0.200000" in out

    def test_query_literal_string(self, ab_file, capsys):
        assert run(["query", ab_file, "A & B"]) == 0
        assert "0.160000" in capsys.readouterr().out

    def test_query_named(self, ab_file, capsys):
        assert run(["query", ab_file, "anb"]) == 0
        assert "0.640000" in capsys.readouterr().out

    def test_query_condition(self, tmp_path, capsys):
        p = tmp_path / "cond.paf"
        p.write_text("arg A\narg B\natt A B\nsemantics COH\n")
        assert run(["query", str(p), "B", "--condition", "A"]) == 0
        assert "0.000000" in capsys.readouterr().out

    def test_query_dnf(self, ab_file, capsys):
        assert run(["query", ab_file, "A | B", "--dnf"]) == 0
        assert "0.840000" in capsys.readouterr().out

    def test_oracle_sat(self, fig1_file, capsys):
        assert run(["oracle", "sat", fig1_file]) == 0
        assert "SAT" in capsys.readouterr().out

    def test_oracle_entail(self, fig1_file, capsys):
        assert run(["oracle", "entail", fig1_file, "B"]) == 0
        assert "[0.000000, 0.000000]" in capsys.readouterr().out

    def test_oracle_maxent(self, ab_file, capsys):
        assert run(["oracle", "maxent", ab_file]) == 0
        out = capsys.readouterr().out
        assert "L(A)=0.800000" in out and "entropy=" in out

    def test_oracle_maxent_at_twelve_arguments(self, tmp_path, capsys):
        names = [f"A{i:02d}" for i in range(12)]
        p = tmp_path / "chain12.paf"
        p.write_text("".join(f"arg {a}\n" for a in names)
                     + "".join(f"att {a} {b}\n" for a, b in zip(names, names[1:]))
                     + "semantics COH\n"
                     + "constraint 1*A00 + 1*A05 >= 1.2\n"
                     + "constraint 1*A03 + 1*A07 + 1*A10 <= 0.9\n")
        t0 = time.perf_counter()
        assert run(["oracle", "maxent", str(p), "--json"]) == 0
        elapsed = time.perf_counter() - t0
        world = json.loads(capsys.readouterr().out)["values"]["marginals"]
        assert run(["maxent", str(p), "--json"]) == 0
        labelling = json.loads(capsys.readouterr().out)["values"]["labelling"]
        assert elapsed < 5.0
        for a in names:
            assert world[a] == pytest.approx(labelling[a], abs=1e-6)

    def test_oracle_respects_max_args(self, fig1_file, capsys):
        assert run(["oracle", "sat", fig1_file, "--max-args", "2"]) == 3
        assert "error" in capsys.readouterr().err

    def test_json_output_stable(self, fig1_file, capsys):
        assert run(["sat", fig1_file, "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["sat", fig1_file, "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["status"] == "SAT"
        assert doc["values"]["inconsistency_value"] == pytest.approx(0.0, abs=1e-9)
        assert doc["values"]["witness"]["C"] == pytest.approx(1.0, abs=1e-7)

    def test_json_maxent(self, ab_file, capsys):
        assert run(["maxent", ab_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"]["labelling"]["B"] == pytest.approx(0.2, abs=1e-6)
        assert doc["diagnostics"]["converged"] is True


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "bad.paf"
        p.write_text("arg A\natt A X\n")
        assert run(["sat", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_2(self, capsys):
        assert run(["sat", "/nonexistent/никогда.paf"]) == 2

    def test_unknown_argument_is_2(self, fig1_file, capsys):
        assert run(["entail", fig1_file, "Z"]) == 2

    def test_entail_on_unsat_is_3(self, unsat_file, capsys):
        assert run(["entail", unsat_file, "A"]) == 3

    def test_maxent_on_unsat_is_3(self, unsat_file, capsys):
        assert run(["maxent", unsat_file]) == 3

    def test_oracle_maxent_on_unsat_is_3(self, capsys):
        example = Path(__file__).resolve().parent.parent / "problems" / "example2_unsat.paf"
        assert run(["oracle", "maxent", str(example)]) == 3
        assert "satisfiable" in capsys.readouterr().err

    def test_inconsistent_condition_is_3(self, tmp_path, capsys):
        p = tmp_path / "c.paf"
        p.write_text("arg A\narg B\natt A B\nsemantics COH\nconstraint 1*B = 1\n")
        assert run(["query", str(p), "B", "--condition", "A"]) == 3

    def test_usage_error_is_2(self, capsys):
        assert run([]) == 2
        assert run(["sat"]) == 2

    def test_dnf_conflict_is_2(self, ab_file, capsys):
        assert run(["query", ab_file, "A", "--dnf", "--condition", "A"]) == 2

    @pytest.mark.parametrize("line", ["constraint 1*A <= nan", "constraint inf*A <= 1"])
    @pytest.mark.parametrize("command", ["sat", "entail-all", "maxent"])
    def test_non_finite_constraint_is_2(self, tmp_path, capsys, line, command):
        p = tmp_path / "nonfinite.paf"
        p.write_text(f"arg A\n{line}\n")
        assert run([command, str(p)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("query", [["A & B"], ["A | B", "--dnf"], ["B", "--condition", "A"]])
    def test_query_on_unconverged_labelling_is_3(self, tmp_path, capsys, monkeypatch, query):
        capped = functools.partial(maxent.maxent_labelling, gap_tol=-1.0, max_iter=2)
        monkeypatch.setattr(cli, "maxent_labelling", capped)
        monkeypatch.setattr(maxent, "maxent_labelling", capped)
        p = tmp_path / "cond.paf"
        p.write_text("arg A\narg B\natt A B\nsemantics COH\n")
        assert run(["query", str(p)] + query) == 3
        assert "not converged" in capsys.readouterr().err
        # maxent itself still answers, flagging the labelling
        assert run(["maxent", str(p), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["diagnostics"]["converged"] is False


def test_console_script_entry_point(fig1_file):
    proc = subprocess.run([sys.executable, "-m", "probarg.cli", "sat", fig1_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "SAT value=0.000000" in proc.stdout


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # long names make the output several times a 64 KiB pipe buffer
    names = [f"a{i:03d}" + "x" * 400 for i in range(300)]
    p = tmp_path / "chain.paf"
    p.write_text("".join(f"arg {a}\n" for a in names)
                 + "".join(f"att {a} {b}\n" for a, b in zip(names, names[1:]))
                 + "semantics COH\n")
    proc = subprocess.Popen([sys.executable, "-m", "probarg.cli", "entail-all", str(p)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"a000")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err

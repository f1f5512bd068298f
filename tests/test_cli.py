import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from pgsolve import (
    CertificationError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    emit_game,
    parse_game,
)
from pgsolve import cli, solver_short
from games import chain_game
from test_parser_reference import game_texts, solution_texts

DATA = Path(__file__).parent / "data"

CHAIN_SOLUTION = "0 1 -\n1 1 -\n2 1 -\n"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.pg"
    path.write_text(emit_game(chain_game()))
    return str(path)


def test_solve_default_algo(chain_file, capsys):
    assert cli.main(["solve", chain_file]) == 0
    assert capsys.readouterr().out == CHAIN_SOLUTION


def test_solve_all_algos_agree_bytewise(chain_file, capsys):
    outputs = set()
    for algo in ("short", "constructive", "oracle"):
        assert cli.main(["solve", "--algo", algo, chain_file]) == 0
        outputs.add(capsys.readouterr().out)
    assert outputs == {CHAIN_SOLUTION}


def test_solve_emits_explicit_choices(tmp_path, capsys):
    game = ParityGame.from_vertices(
        [(0, 1, (1, 2), "s"), (0, 2, (1,), "t0"), (0, 1, (2,), "t1")]
    )
    path = tmp_path / "pick.pg"
    path.write_text(emit_game(game))
    assert cli.main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "0 0 1\n1 0 -\n2 1 -\n"


def test_verify_certifies(chain_file, tmp_path, capsys):
    sol = tmp_path / "chain.sol"
    sol.write_text(CHAIN_SOLUTION)
    assert cli.main(["verify", chain_file, str(sol)]) == 0
    assert capsys.readouterr().out == "certified\n"


def test_verify_refutes_false_claim(chain_file, tmp_path, capsys):
    sol = tmp_path / "chain.sol"
    sol.write_text("0 0 -\n1 0 -\n2 0 -\n")
    assert cli.main(["verify", chain_file, str(sol)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("refuted:")


def test_verify_rejects_malformed_solution(chain_file, tmp_path, capsys):
    sol = tmp_path / "chain.sol"
    sol.write_text("0 1 maybe\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", chain_file, str(sol)])
    assert err.value.code == 2
    assert "malformed solution line" in capsys.readouterr().err


def test_compare_agreement_includes_oracle(chain_file, capsys):
    assert cli.main(["compare", chain_file]) == 0
    assert capsys.readouterr().out == "agreed: short, constructive, oracle\n"


def test_compare_drops_oracle_over_budget(chain_file, capsys, monkeypatch):
    monkeypatch.setenv(cli._BUDGET_VAR, "0")
    assert cli.main(["compare", chain_file]) == 0
    assert capsys.readouterr().out == "agreed: short, constructive\n"


def test_compare_reports_and_minimizes_disagreement(chain_file, capsys, monkeypatch):
    def contrarian(game):
        return Solution(
            frozenset(game.vertices),
            frozenset(),
            Strategy(Player.P0, {}),
            Strategy(Player.P1, {}),
        )

    monkeypatch.setitem(cli._SOLVERS, "short", contrarian)
    assert cli.main(["compare", chain_file]) == 1
    captured = capsys.readouterr()
    assert "solvers disagree" in captured.err
    counterexample = parse_game(captured.out)
    assert counterexample.n < chain_game().n
    assert cli._disagrees(counterexample, ["short", "constructive"])


def test_disagrees_stops_at_the_first_failing_solver(monkeypatch):
    # minimizing asks this of many candidates: one failure answers it, so
    # the solvers after it, the oracle among them, do not run
    ran = []

    def failing(game):
        ran.append("short")
        raise RuntimeError("boom")

    def constructive(game):
        ran.append("constructive")
        return cli.solve_constructive(game)

    monkeypatch.setitem(cli._SOLVERS, "short", failing)
    monkeypatch.setitem(cli._SOLVERS, "constructive", constructive)
    assert cli._disagrees(chain_game(), ["short", "constructive"])
    assert ran == ["short"]


def test_solve_oracle_over_budget_is_a_limit_error(tmp_path, capsys, monkeypatch):
    # 8 vertices with 4 distinct successors each: 4^8 = 65536 profiles
    game = ParityGame.from_vertices(
        [(v % 2, v % 3, (0, 1, 2, 3)) for v in range(8)]
    )
    path = tmp_path / "wide.pg"
    path.write_text(emit_game(game))
    monkeypatch.setenv(cli._BUDGET_VAR, "65535")
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--algo", "oracle", str(path)])
    assert err.value.code == 2
    assert "65536" in capsys.readouterr().err


def test_budget_var_must_be_integer(chain_file, capsys, monkeypatch):
    monkeypatch.setenv(cli._BUDGET_VAR, "lots")
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--algo", "oracle", chain_file])
    assert err.value.code == 2
    assert cli._BUDGET_VAR in capsys.readouterr().err


def test_transform_split_golden(chain_file, capsys):
    assert cli.main(["transform", "--op", "split:4", chain_file]) == 0
    assert capsys.readouterr().out == (
        'parity 3;\n'
        '0 3 0 3 "u";\n'
        '1 4 0 2 "v";\n'
        '2 1 0 2 "w";\n'
        '3 4 0 3 "v~";\n'
    )


def test_transform_shiftswap_golden(chain_file, capsys):
    assert cli.main(["transform", "--op", "shiftswap", chain_file]) == 0
    assert capsys.readouterr().out == (
        'parity 2;\n'
        '0 4 1 1 "u";\n'
        '1 5 1 2 "v";\n'
        '2 2 1 2 "w";\n'
    )


def test_transform_deloop_and_unfair(tmp_path, capsys):
    game = ParityGame.from_vertices([(0, 2, (0, 1), "p"), (0, 1, (1, 0), "q")])
    path = tmp_path / "loops.pg"
    path.write_text(emit_game(game))
    assert cli.main(["transform", "--op", "unfair", str(path)]) == 0
    assert capsys.readouterr().out == 'parity 1;\n0 2 0 0 "p";\n1 1 0 1,0 "q";\n'
    assert cli.main(["transform", "--op", "deloop", str(path)]) == 0
    assert capsys.readouterr().out == 'parity 1;\n0 2 0 0,1 "p";\n1 1 0 0 "q";\n'


def test_transform_rejects_unknown_op(chain_file, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["transform", "--op", "fold", chain_file])
    assert err.value.code == 2
    assert "unknown transform" in capsys.readouterr().err


def test_transform_split_needs_relevant_priority(chain_file, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["transform", "--op", "split:9", chain_file])
    assert err.value.code == 2


def test_gen_matches_library_and_golden_file(capsys):
    args = ["gen", "--n", "6", "--max-prio", "5", "--max-deg", "3", "--seed", "42"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (DATA / "random_n6_s42.pg").read_text()


def test_gen_rejects_bad_bounds(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen", "--n", "0"])
    assert err.value.code == 2


def test_missing_game_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(tmp_path / "nope.pg")])
    assert err.value.code == 2


def test_parse_error_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.pg"
    path.write_text("parity 0;\n0 1 0 ;\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", str(path)])
    assert err.value.code == 2
    assert "line 2, column 7" in capsys.readouterr().err


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_usage_error_unknown_algo(chain_file):
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--algo", "magic", chain_file])
    assert err.value.code == 2


def test_solve_reports_certification_error(chain_file, capsys, monkeypatch):
    def failing(game):
        raise CertificationError("final solution failed its check: boom")

    monkeypatch.setitem(cli._SOLVERS, "short", failing)
    assert cli.main(["solve", chain_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: final solution failed its check: boom\n"


def test_solve_reports_a_real_inner_failure(tmp_path, capsys, monkeypatch):
    def drop_choices(choices, n, split):
        return {}

    monkeypatch.setattr(solver_short, "_unsplit", drop_choices)
    game = ParityGame.from_vertices([(0, 0, (0, 1)), (1, 1, (0, 1))])
    path = tmp_path / "core.pg"
    path.write_text(emit_game(game))
    assert cli.main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: final solution failed its check")
    assert "core failed verification" in err


def test_compare_reports_a_raising_solver(chain_file, capsys, monkeypatch):
    def failing(game):
        raise CertificationError("boom")

    monkeypatch.setitem(cli._SOLVERS, "constructive", failing)
    assert cli.main(["compare", chain_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constructive: CertificationError: boom\n"
    assert cli._disagrees(chain_game(), ["short", "constructive"])


def test_solve_reports_a_recursion_limit(chain_file, capsys, monkeypatch):
    def too_deep(game):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._SOLVERS, "short", too_deep)
    assert cli.main(["solve", chain_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: game too deep for the recursive solver: "
        "maximum recursion depth exceeded\n"
    )


def test_number_too_long_for_int_is_a_usage_error(chain_file, tmp_path, capsys):
    too_long = "9" * (sys.get_int_max_str_digits() + 1)
    game = tmp_path / "huge.pg"
    game.write_text(f"parity 0;\n0 {too_long} 0 0;\n")
    claim = tmp_path / "huge.sol"
    claim.write_text(f"0 1 -\n1 1 {too_long}\n2 1 -\n")
    for argv in (["solve", str(game)], ["verify", chain_file, str(claim)]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "line 2, column 1" in capsys.readouterr().err


def test_undecodable_file_is_a_usage_error(chain_file, tmp_path, capsys):
    raw = tmp_path / "latin1.txt"
    raw.write_bytes('parity 0;\n0 1 0 0 "\xe9";\n'.encode("latin-1"))
    for argv in (["solve", str(raw)], ["verify", chain_file, str(raw)]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: {raw}: 'utf-8' codec")


def exit_code(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)``'s return or exit code, and its stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(game_texts(), solution_texts())
def test_solve_and_verify_on_any_text_exit_with_a_documented_code(game_text, case):
    with tempfile.TemporaryDirectory() as tmp:
        game, claim, solved = (str(Path(tmp) / name) for name in ("g.pg", "c.sol", "s.sol"))
        Path(game).write_text(game_text, encoding="utf-8")
        Path(claim).write_text(case[1], encoding="utf-8")
        code, out = exit_code(["solve", game])
        assert code in (0, 2)
        assert exit_code(["verify", game, claim])[0] in (0, 1, 2)
        if code == 0:
            Path(solved).write_text(out, encoding="utf-8")
            assert exit_code(["verify", game, solved]) == (0, "certified\n")


def test_transform_result_too_long_to_emit_is_a_usage_error(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    game = tmp_path / "edge.pg"
    game.write_text(f"parity 0;\n0 {'9' * limit} 0 0;\n")  # parses; plus one does not emit
    with pytest.raises(SystemExit) as err:
        cli.main(["transform", "--op", "shiftswap", str(game)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def run_module(*args, module="pgsolve"):
    """``python -m module`` in a fresh interpreter that finds this checkout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    generated = run_module("gen", "--n", "3")
    assert generated.returncode == 0
    assert parse_game(generated.stdout).n == 3
    usage = run_module()
    assert usage.returncode == 2
    assert "usage: pgsolve" in usage.stderr


def test_python_dash_m_runs_the_cli_module(chain_file, capsys):
    solved = run_module("solve", chain_file, module="pgsolve.cli")
    assert solved.returncode == 0
    assert solved.stdout == CHAIN_SOLUTION
    usage = run_module(module="pgsolve.cli")
    assert usage.returncode == 2
    assert "usage: pgsolve" in usage.stderr

"""The solve comparison tool on two small hand-written dumps."""

import json

import solve_diff


def _trace(variant: str, ln_p: list[float], converged: bool = True) -> dict:
    return {
        "variant": variant,
        "ln_p_success": ln_p,
        "inner_iterations": [3] * (len(ln_p) - 1),
        "inner_pathologies": [0] * (len(ln_p) - 1),
        "p2_evals": [2] * (len(ln_p) - 1),
        "converged": converged,
    }


OLD = {
    "A/mm2": _trace("mm2", [-1.0, -0.5]),
    "A/pg": _trace("pg", [-1.0, -0.25]),
    "B/mm1": _trace("mm1", [-2.0, -1.5]),
}


def _dumps(tmp_path, new: dict):
    paths = []
    for name, traces in (("old.json", OLD), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(traces) + "\n")
        paths.append(str(path))
    return paths


def test_identical_dumps_report_no_moved_solve_and_exit_0(tmp_path, capsys):
    assert solve_diff.moved_solves(OLD, json.loads(json.dumps(OLD))) == []
    assert solve_diff.main(["diff", *_dumps(tmp_path, OLD)]) == 0
    out = capsys.readouterr().out
    assert "0 of 3 solves moved" in out
    assert "converged/pathologies/capped changed: none" in out


def test_a_moved_added_or_removed_solve_exits_1(tmp_path, capsys):
    moved = dict(OLD, **{"A/pg": _trace("pg", [-1.0, -0.125])})
    assert solve_diff.moved_solves(OLD, moved) == [
        "A/pg: ln_p_success; ln P -0.25 -> -0.125 (+1.25e-01)"]
    assert solve_diff.main(["diff", *_dumps(tmp_path, moved)]) == 1
    assert "1 of 3 solves moved" in capsys.readouterr().out

    added = dict(OLD, **{"C/mm2": _trace("mm2", [-3.0, -2.0])})
    assert solve_diff.moved_solves(OLD, added) == ["C/mm2 (added)"]
    assert solve_diff.main(["diff", *_dumps(tmp_path, added)]) == 1

    removed = {k: v for k, v in OLD.items() if k != "B/mm1"}
    assert solve_diff.moved_solves(OLD, removed) == ["B/mm1 (removed)"]
    assert solve_diff.main(["diff", *_dumps(tmp_path, removed)]) == 1
    capsys.readouterr()


def test_a_bad_command_line_exits_2(capsys):
    assert solve_diff.main(["diff", "only-one.json"]) == 2
    assert "solve_diff.py dump" in capsys.readouterr().err


def test_changed_warnings_are_named_and_exit_1(tmp_path, capsys):
    # A dump without the field counts as one without warnings.
    quiet = {k: dict(t, warnings=[]) for k, t in OLD.items()}
    assert solve_diff.warning_changes(OLD, quiet) == []
    assert solve_diff.main(["diff", *_dumps(tmp_path, quiet)]) == 0
    assert "0 of 3 solves changed their warnings (0 warned before, 0 after)" in capsys.readouterr().out

    warned = dict(quiet, **{"B/mm1": dict(OLD["B/mm1"], warnings=["link 1 derivatives overflow at x = 998.0"])})
    assert solve_diff.moved_solves(OLD, warned) == []
    assert solve_diff.warning_changes(OLD, warned) == [
        "B/mm1: warnings [] -> ['link 1 derivatives overflow at x = 998.0']"]
    assert solve_diff.main(["diff", *_dumps(tmp_path, warned)]) == 1
    out = capsys.readouterr().out
    assert "0 of 3 solves moved" in out
    assert "1 of 3 solves changed their warnings (0 warned before, 1 after)" in out

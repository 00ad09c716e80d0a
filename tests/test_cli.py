import json
import os
import subprocess
import sys

import pytest

import logdescent
from logdescent.cli import main

ARGS_11A_47 = ["--D", "-47", "--a2", "-1", "--a3", "1", "--a4", "-10",
               "--a6", "-20", "--p", "5", "--P", "5,5"]
ARGS_158C = ["--D", "-79", "--a1", "1", "--a2", "1", "--a3", "1",
             "--a4", "-420", "--a6", "3109"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_schema(capsys):
    code, out, _ = _run(capsys, ["classify", *ARGS_158C, "--p", "5",
                                 "--P", "13,-15", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert len(obj["S1"]) == 2 and len(obj["S2"]) == 1
    assert obj["hypotheses"]["satisfied"]
    kinds = {d["v"]: d["class"] for d in obj["places"]}
    assert kinds["(79,-79/2+1/2*sqrt(-79))"] == "backward"
    by_v = {d["v"]: d for d in obj["places"]}
    two = obj["S1"][0]
    assert by_v[two]["kodaira"] == "I4" and by_v[two]["kodaira'"] == "I20"


def test_selmer_output(capsys):
    code, out, _ = _run(capsys, ["selmer", *ARGS_11A_47, "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["dims"] == {"sel_phi": 2, "sel_phihat": 1, "sel_p": 2}
    assert obj["S1"] == ["(11)"] and obj["S2"] == []
    assert len(obj["h1_basis"]) == 2 and len(obj["selmer_basis"]) == 2


def test_pairing_text_matches_worked_values(capsys):
    code, out, _ = _run(capsys, ["pairing", *ARGS_158C,
                                 "--point", "13,-15", "--point", "13,-15"])
    assert code == 0
    assert "4/5 (2,1/2+1/2*sqrt(-79)) + 4/5 (2,-1/2+1/2*sqrt(-79))" in out


def test_psi_text_output(capsys):
    code, out, _ = _run(capsys, ["psi", "--D", "8", "--a2", "1", "--a3", "1",
                                 "--a4", "9", "--a6", "1", "--p", "3",
                                 "--P", "1,3",
                                 "--point", "9/2,-1/2+35/4*sqrt(2)"])
    assert code == 0
    assert "2/3 (7,-3+sqrt(2)) + 1/3 (7,-4+sqrt(2))" in out


def test_json_determinism(capsys):
    argv = ["report", *ARGS_11A_47, "--format", "json",
            "--point", "4,-1/2+1/2*sqrt(-47)", "--point=-2,-1/2+1/2*sqrt(-47)"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["sha_phi"] == {"lower": 0, "upper": 0}
    assert obj["dims"]["sel_phi"] == 2


def test_report_builds_each_s1_object_once(monkeypatch, capsys):
    # H^1(U_1, mu_p), Cl(O_{K,S_1}) and logPic(X,S_1)[p] are built once per
    # context, however many steps of the report read them
    from logdescent import descent
    calls = {}

    def count(name):
        f = getattr(descent, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)
        monkeypatch.setattr(descent, name, counted)

    for name in ("field_selmer_basis", "s_class_group", "LogPicTorsion"):
        count(name)
    code, _, _ = _run(capsys, ["report", *ARGS_11A_47, "--point", "4,-1/2+1/2*sqrt(-47)",
                               "--point=-2,-1/2+1/2*sqrt(-47)"])
    assert code == 0
    assert calls == {"field_selmer_basis": 1, "s_class_group": 1, "LogPicTorsion": 1}


def test_search_json_lines(capsys):
    code, out, _ = _run(capsys, ["search", "--a2", "-1", "--a3", "1",
                                 "--a4", "-10", "--a6", "-20", "--p", "5",
                                 "--P", "5,5", "--xbound", "4",
                                 "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["schema"] == 1 for r in rows)
    assert any(r["D"] == -47 for r in rows)


def test_exit_code_input_errors(capsys):
    # malformed point
    code, _, err = _run(capsys, ["psi", *ARGS_11A_47, "--point", "5;5"])
    assert code == 1 and "error" in err
    # point not on the curve
    code, _, err = _run(capsys, ["selmer", *ARGS_11A_47[:-2], "--P", "5,6"])
    assert code == 1
    # P not p-torsion
    code, _, err = _run(capsys, ["selmer", *ARGS_11A_47[:-4], "--p", "7",
                                 "--P", "5,5"])
    assert code == 1
    # missing required flag
    code, _, err = _run(capsys, ["psi", *ARGS_11A_47])
    assert code == 1


def _python(*args):
    """A fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(logdescent.__file__)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


def _run_optimized(argv):
    """The CLI in a python -O subprocess, which strips assert statements."""
    return _python("-O", "-m", "logdescent.cli", *argv)


def test_non_torsion_point_rejected_under_optimize():
    proc = _run_optimized(["selmer", *ARGS_11A_47[:-2], "--P", "4,-1/2+1/2*sqrt(-47)"])
    assert proc.returncode == 1
    assert "error: P is not a p-torsion point" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_j_zero_rejected_under_optimize():
    proc = _run_optimized(["selmer", "--a3", "1", "--p", "3", "--P", "0,0"])
    assert proc.returncode == 1
    assert "error: j = 0, 1728 not handled" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_selmer_over_a_norm_plus_one_real_field(capsys):
    # the fundamental unit 170+39*sqrt(19) has norm +1
    code, out, _ = _run(capsys, ["selmer", "--D", "19", *ARGS_11A_47[2:]])
    assert code == 0
    assert "170+39*sqrt(19)" in out


def test_field_arithmetic_checks_survive_optimize():
    # qfield raises its precondition and invariant errors, never asserts them
    proc = _python("-O", "-c", "import sys\n"
                               "from logdescent.qfield import hensel_root, make_field, primes_above\n"
                               "assert False, 'asserts are on'\n"
                               "K = make_field(2)\n"
                               "inert, split = primes_above(K, 5)[0], primes_above(K, 7)[0]\n"
                               "for bad in (lambda: inert.omega_root_mod(3),\n"
                               "            lambda: hensel_root([K(-2), K(0), K(1)], split, K(0), 4)):\n"
                               "    try:\n"
                               "        bad()\n"
                               "    except ValueError:\n"
                               "        continue\n"
                               "    sys.exit(1)\n")
    assert proc.returncode == 0, proc.stderr
    proc = _run_optimized(["selmer", "--D", "19", *ARGS_11A_47[2:]])
    assert proc.returncode == 0, proc.stderr
    assert "170+39*sqrt(19)" in proc.stdout


def test_p_must_be_an_odd_prime(capsys):
    for p in (0, 1, -5, 9, 561, 3825123056546413051):
        code, _, err = _run(capsys, ["classify", *ARGS_11A_47[:-4], "--p", str(p),
                                     "--P", "5,5"])
        assert code == 1, p
        assert "error: p must be an odd prime" in err, p
    proc = _run_optimized(["classify", *ARGS_11A_47[:-4], "--p", "561", "--P", "5,5"])
    assert proc.returncode == 1
    assert "error: p must be an odd prime" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pipeline_never_imports_sympy():
    # sympy is a test oracle only; a function-local import would show here too
    runs = [["report", *ARGS_11A_47],
            ["pairing", *ARGS_158C, "--point", "13,-15", "--point", "13,-15"]]
    proc = _python("-c", "import contextlib, io, sys\n"
                         "from logdescent.cli import main\n"
                         f"for argv in {runs!r}:\n"
                         "    with contextlib.redirect_stdout(io.StringIO()):\n"
                         "        assert main(argv) == 0, argv\n"
                         "assert 'sympy' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def test_j_zero_guard_reads_the_input_curve(capsys):
    # E' = 27a1 has j = 0; its quotient by <(3,4)> is 27a4, with j != 0
    code, _, err = _run(capsys, ["classify", "--a3", "1", "--a6", "-7",
                                 "--p", "3", "--P", "3,4"])
    assert code == 1
    assert "error: j = 0, 1728 not handled" in err


def test_internal_assertion_is_not_an_input_error(monkeypatch):
    # a failed invariant while the context is built is a defect, not bad
    # input: it is not reported as "error: ..." with exit status 1
    from logdescent import descent

    def broken(*args, **kwargs):
        raise AssertionError("Velu invariant")
    monkeypatch.setattr(descent, "isogeny_from_kernel_point", broken)
    with pytest.raises(AssertionError, match="Velu invariant"):
        main(["classify", *ARGS_11A_47])


def test_exit_code_hypothesis_failure(capsys):
    code, _, err = _run(capsys, ["selmer", "--a1", "-6", "--a3", "2",
                                 "--p", "3", "--P", "0,0"])
    assert code == 2
    assert "Hyp 4" in err


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = _run(capsys, ["selmer", *ARGS_11A_47, "--format", "json",
                                 "--out", str(dest)])
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["schema"] == 1
    # search writes JSON lines through the same writer
    search = ["search", "--a2", "-1", "--a3", "1", "--a4", "-10", "--a6", "-20",
              "--p", "5", "--P", "5,5", "--xbound", "1", "--format", "json"]
    lines = tmp_path / "search.jsonl"
    code, out, _ = _run(capsys, [*search, "--out", str(lines)])
    assert code == 0 and out == ""
    code, out, _ = _run(capsys, search)
    assert code == 0 and out
    assert lines.read_text() == out

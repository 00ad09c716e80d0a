import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logdescent
from logdescent.cli import main
from logdescent.descent import quadratic_point_search
from logdescent.ellcurve import Curve
from logdescent.pairing import log_pairing, pairing_group
from logdescent.qfield import format_element, make_field

ARGS_11A_47 = ["--D", "-47", "--a2", "-1", "--a3", "1", "--a4", "-10",
               "--a6", "-20", "--p", "5", "--P", "5,5"]
ARGS_158C = ["--D", "-79", "--a1", "1", "--a2", "1", "--a3", "1",
             "--a4", "-420", "--a6", "3109"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _benchmark_workloads():
    """perfbench/workloads.py, read for its CLI commands and golden paths."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("fmt", WORKLOADS.CLI_FORMATS)
@pytest.mark.parametrize("name", sorted(WORKLOADS.CLI_COMMANDS))
def test_cli_workload_commands_match_their_goldens(capsys, name, fmt):
    # the five README commands of the benchmark's cli workload, run in
    # process, print the recorded golden bytes
    code, out, err = _run(capsys, WORKLOADS.cli_argv(name, fmt))
    assert code == 0, err
    assert out.encode() == WORKLOADS.golden_path(name, fmt).read_bytes()


def test_search_matches_its_golden():
    # quadratic_point_search on the benchmark's three curves gives the rows
    # of perfbench/goldens/search.json, which this test only reads
    want = json.loads(WORKLOADS.SEARCH_GOLDEN.read_text())
    for label, (E, P, p, xbound) in WORKLOADS.search_inputs().items():
        assert WORKLOADS.search_rows(quadratic_point_search(E, P, p, xbound)) == want[label], label


def test_readme_command_under_optimize_matches_its_golden():
    # python -O strips asserts; the README pairing command prints its golden bytes
    proc = _run_optimized(WORKLOADS.cli_argv("pairing", "text"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == WORKLOADS.golden_path("pairing", "text").read_bytes()


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


def test_pairing_reads_a_coordinate_with_no_rational_part(capsys):
    # (0, 2*sqrt(2)) is on y^2 = x^3 + 8; the coordinate is not 2 + sqrt(2)
    code, out, err = _run(capsys, ["pairing", "--D", "2", "--a6", "8",
                                   "--point", "0,2*sqrt(2)", "--point", "0,2*sqrt(2)"])
    assert code == 0, err
    K = make_field(2)
    E = Curve(K, 0, 0, 0, 0, 8)
    P = E.point(0, K(0, 2))
    G = pairing_group(E)
    coords = list(G.class_coords(log_pairing(E, P, P)))
    assert f"class in logPic: {coords} on cyclic factors {G.coker.divisors}" in out


def test_juxtaposed_coordinate_parts_are_an_input_error(capsys):
    code, out, err = _run(capsys, ["pairing", "--D", "2", "--a6", "8",
                                   "--point", "0,3/41/2*sqrt(2)", "--point", "0,2*sqrt(2)"])
    assert code == 1
    assert out == ""
    assert "cannot parse field element '3/41/2*sqrt(2)'" in err


# 158 over Q(sqrt(-79)), p = 5: the minimal model and its scalings by u = 3
# and u = 1/3, whose denominators or coefficients put 3 in model_places
CLASSIFY_158_MODELS = [
    ["--a1", "1", "--a2", "1", "--a3", "1", "--a4=-420", "--a6", "3109", "--P", "13,-15"],
    ["--a1", "1/3", "--a2", "1/9", "--a3", "1/27", "--a4=-420/81", "--a6", "3109/729",
     "--P", "13/9,-5/9"],
    ["--a1", "3", "--a2", "9", "--a3", "27", "--a4=-34020", "--a6", "2266461",
     "--P", "117,-405"],
]


def test_classify_rows_do_not_depend_on_the_model(capsys):
    rows, places = [], []
    for model in CLASSIFY_158_MODELS:
        argv = ["classify", "--D", "-79", "--p", "5", *model]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        lines = out.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("place"))
        last = next(i for i, line in enumerate(lines) if line.startswith("S1 ="))
        rows.append(lines[first:last])
        code, out, err = _run(capsys, [*argv, "--format", "json"])
        assert code == 0, err
        places.append(json.loads(out)["places"])
    assert len(rows[0]) == 6  # the header and the five places of the README table
    assert rows[0] == rows[1] == rows[2]
    assert places[0] == places[1] == places[2]


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


def _run_optimized(argv, setup=""):
    """The CLI in a python -O subprocess, which strips assert statements, as
    python -m runs it; setup is Python source run first in that process."""
    return _python("-O", "-c", f"import runpy, sys\n{setup}\n"
                               f"sys.argv = ['logdescent.cli', *{argv!r}]\n"
                               "runpy.run_module('logdescent.cli', run_name='__main__')")


def test_descents_over_q_answer(capsys):
    # omitting --D descends over Q, whose class group is trivial
    args = ARGS_11A_47[2:]
    code, out, _ = _run(capsys, ["selmer", *args])
    assert code == 0
    assert "Selmer basis: ['11']" in out
    assert "dim Sel^phi = 1, dim Sel^phihat = 0, dim Sel^p = 0" in out
    code, out, _ = _run(capsys, ["report", *args])
    assert code == 0
    assert "psi values: 1/5 (11)" in out
    assert "dim Sha[phi] (assuming the points generate): 0 <= dim <= 0" in out
    code, out, _ = _run(capsys, ["psi", *args, "--point", "5,5"])
    assert code == 0
    assert "psi((5, 5)) = 1/5 (11)  [vector [1]]" in out


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
    # sympy is a test oracle only; a function-local import would show here
    # too. The records are plain classes, so dataclasses and the inspect
    # module that it pulls in stay out of a CLI process as well
    runs = [["report", *ARGS_11A_47],
            ["pairing", *ARGS_158C, "--point", "13,-15", "--point", "13,-15"]]
    proc = _python("-c", "import contextlib, io, sys\n"
                         "from logdescent.cli import main\n"
                         f"for argv in {runs!r}:\n"
                         "    with contextlib.redirect_stdout(io.StringIO()):\n"
                         "        assert main(argv) == 0, argv\n"
                         "for mod in ('sympy', 'dataclasses', 'inspect'):\n"
                         "    assert mod not in sys.modules, mod\n")
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


def test_limit_error_is_reported(monkeypatch, capsys):
    # a class group past the certification limit is a documented limit of the
    # package, reported like an input it does not accept
    from logdescent import ideals
    monkeypatch.setattr(ideals, "MAX_CERTIFIED_ORDER", 1)
    monkeypatch.setattr(ideals, "_CLASS_GROUP_CACHE", {})
    message = "error: class group order 5 is past the certification limit 1"
    code, out, err = _run(capsys, ["selmer", *ARGS_11A_47])
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err
    proc = _run_optimized(["selmer", *ARGS_11A_47],
                          setup="from logdescent import ideals\nideals.MAX_CERTIFIED_ORDER = 1")
    assert proc.returncode == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_auxiliary_place_cap_is_reported(monkeypatch, capsys):
    # too few auxiliary places for the H^1 coordinates is a documented limit;
    # the report builds H1Coordinates (selmer does not)
    from logdescent.descent import H1Coordinates
    monkeypatch.setattr(H1Coordinates, "CAP", 6)
    code, out, err = _run(capsys, ["report", *ARGS_11A_47, "--point", "4,-1/2+1/2*sqrt(-47)",
                                   "--point=-2,-1/2+1/2*sqrt(-47)"])
    assert code == 1 and out == ""
    assert "error: auxiliary places above primes below the cap 6" in err
    assert "H1Coordinates.CAP" in err and "Traceback" not in err


def test_exit_code_hypothesis_failure(capsys):
    code, _, err = _run(capsys, ["selmer", "--a1", "-6", "--a3", "2",
                                 "--p", "3", "--P", "0,0"])
    assert code == 2
    assert "Hyp 4" in err


def test_additive_place_above_p_is_a_hypothesis_failure(capsys):
    # type IV at the ramified prime above 3 on both curves, with Neron
    # scalings (1, 1) there: a named failure, not a negative scaling
    code, _, err = _run(capsys, ["selmer", "--D", "-78", "--a1", "1", "--a2", "-1",
                                 "--a3", "1", "--a4", "1", "--a6", "-1",
                                 "--p", "3", "--P", "1,0"])
    assert code == 2
    assert "Hyp 5: place (3,sqrt(-78)) above 3 neither forward nor backward" in err
    assert "Traceback" not in err and "Neron" not in err


def test_hypothesis_failures_name_the_curve_once_each(capsys):
    # both E and E' have a fibre of type IV above 3: one Hyp 4 line each
    code, _, err = _run(capsys, ["selmer", "--D", "-78", "--a1", "1", "--a2", "-1",
                                 "--a3", "1", "--a4", "1", "--a6", "-1",
                                 "--p", "3", "--P", "1,0"])
    assert code == 2
    lines = err.strip().removeprefix("hypothesis failure: ").split("; ")
    assert len(lines) == len(set(lines)) == 3
    assert lines[:2] == ["Hyp 4: E has a fibre of type IV at (3,sqrt(-78))",
                         "Hyp 4: E' has a fibre of type IV at (3,sqrt(-78))"]


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


# pairings on models with denominators, each a scaling x = u^2 x', y = u^3 y'
# of a curve: the first reduces elements with 2 in the denominator at a split
# prime above 2, and the other two have a bad place where v(disc) <= 0
SCALED_PAIRINGS = [
    # 158 with u = 2: the README pairing
    (["--D", "-79", "--a1", "1/2", "--a2", "1/4", "--a3", "1/8", "--a4=-105/4",
      "--a6", "3109/64", "--point", "13/4,-15/8", "--point", "13/4,-15/8"],
     "<Q,R>^log = 4/5 (2,1/2+1/2*sqrt(-79)) + 4/5 (2,-1/2+1/2*sqrt(-79))"),
    # [0, -2, 0, -40, 0] with u = 2: v_2(disc) = 0, yet the reduction is I2*
    (["--a2=-1/2", "--a4=-5/2", "--point", "0,0", "--point", "0,0"],
     "on cyclic factors [2, 4]"),
    # 35a with u = 5: v_5(disc) < 0, yet the reduction at 5 is bad
    (["--D", "2", "--a2", "1/25", "--a3", "1/125", "--a4", "9/625", "--a6", "1/15625",
      "--point", "1/25,3/125", "--point", "9/50,-1/250+7/100*sqrt(2)"],
     "on cyclic factors [1, 3, 3, 3]"),
]


@pytest.mark.parametrize("args, line", SCALED_PAIRINGS)
def test_pairing_on_a_model_with_denominators(capsys, args, line):
    code, out, err = _run(capsys, ["pairing", *args])
    assert code == 0 and line in out and "Traceback" not in err
    proc = _run_optimized(["pairing", *args])
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout and "Traceback" not in proc.stderr


_rational = st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))


def _model_argvs(E, P, G, urst):
    """The five commands on E in the model given by urst, with the kernel
    point P, of order p = 3 or 5, and G a point of infinite order."""
    K = E.field
    urst = [K(Fraction(a, den)) for a, den in urst]
    E2 = E.transform(*urst)
    P2, G2 = (E.map_point(T, *urst) for T in (P, G))

    def pt(T):
        return f"{format_element(T.x)},{format_element(T.y)}"
    curve = ["--D", str(K.radicand),
             *(f"--a{i}={format_element(a)}" for i, a in zip((1, 2, 3, 4, 6), E2.ainvs))]
    kernel = [*curve, "--p", "3" if (3 * P).is_zero() else "5", f"--P={pt(P2)}"]
    return [["classify", *kernel], ["selmer", *kernel],
            ["pairing", *curve, f"--point={pt(G2)}", f"--point={pt(G2 + P2)}"],
            ["psi", *kernel, f"--point={pt(G2)}"], ["report", *kernel, f"--point={pt(G2)}"]]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["11a1", "158", "35a"]),
       st.tuples(_rational.filter(lambda q: q[0]), _rational, _rational, _rational))
@example("158", ((2, 1), (0, 1), (0, 1), (0, 1)))
def test_any_rational_model_gives_an_exit_status(worked_curves, label, urst):
    # every command on every model ends with status 0, 1 or 2 and no traceback
    E, P, (G, *_) = worked_curves[label]
    for argv in _model_argvs(E, P, G, urst):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, err.getvalue())


def test_rational_model_under_optimize(worked_curves):
    E, P, (G,) = worked_curves["158"]
    argv = _model_argvs(E, P, G, ((-2, 3), (1, 2), (-1, 5), (2, 3)))[4]
    proc = _run_optimized(argv)
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr

"""The four benchmark workloads: cli, search, pairing and descent.

A workload turns a seed into rounds of units. A unit is a short list of
timed library calls (the ops) and an untimed check over their results.
Rounds are the granularity at which a run may stop, so every run measures
whole rounds and the op mix of a run does not depend on where the clock
ran out.

Library functions are always reached as attributes of their module (for
example ``descent.selmer_phi``), never imported by name, so that the
tracer's rebinding of module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from logdescent import (cli, descent, ellcurve, ideals, isogeny, pairing,
                        qfield)

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
SEARCH_GOLDEN = GOLDENS / "search.json"

# A failure kind listed here is a defect of the program that the benchmark
# counts in ``failed`` (and so in fail_ratio) but does not treat as a broken
# checker; any other failure kind makes the run incorrect.
KNOWN_DEFECTS = {
    # ideals.fundamental_unit raises for most real quadratic fields, which
    # makes every real-field descent over them fail.
    "known:fundamental_unit",
    # On 158 over Q(sqrt(-79)), log_pairing is not additive once P enters a
    # combination: <P,Q+P> != <P,Q> + <P,P> in pairing_group, and with it
    # rho(kappa(Q)) != psi(Q) for Q = aQ' + P.
    "wrong:additivity@158",
    "wrong:rho_kappa_psi@158",
}

FUNDAMENTAL_UNIT_MESSAGE = "no unit found on the principal cycle"


class Unit:
    """Timed calls plus an untimed check.

    ``calls`` are zero-argument callables; ``check`` receives their results
    (a ``Raised`` where a call raised a documented outcome) and returns a
    list of (call index, failure kind) pairs.
    """

    __slots__ = ("calls", "check", "size")

    def __init__(self, calls, check, size=None):
        self.calls = calls
        self.check = check
        # ops counted for this unit; the search counts candidates, not calls
        self.size = size

    def run(self, tracer=None):
        """Time each call, then check the answers (with the tracer paused).

        Returns (latencies, ops, failed ops, {call index: failure kind})."""
        results = []
        latencies = []
        errors = {}
        for i, call in enumerate(self.calls):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                res = call()
            except Exception as exc:  # every exception is classified
                res = Raised(exc)
                kind = classify_exception(exc)
                if kind is not None:
                    errors[i] = kind
            latencies.append(time.perf_counter() - t0)
            results.append(res)
        fails = dict(errors)
        if not errors:
            if tracer is not None:
                tracer.paused = True
            try:
                for i, kind in self.check(results):
                    fails.setdefault(i, kind)
            finally:
                if tracer is not None:
                    tracer.paused = False
        n = self.size or len(self.calls)
        bad = n if errors and self.size else min(n, len(fails))
        return latencies, n, bad, fails


class Raised:
    """Stands for the result of a timed call that raised."""

    def __init__(self, exc):
        self.exc = exc


def classify_exception(exc) -> str | None:
    """None for a documented outcome, else the failure kind."""
    if isinstance(exc, descent.HypothesisError):
        return None
    if isinstance(exc, RuntimeError) and str(exc) == FUNDAMENTAL_UNIT_MESSAGE:
        return "known:fundamental_unit"
    return f"undocumented:{type(exc).__name__}"


# -- cli ---------------------------------------------------------------------

ELT_47 = "-1/2+1/2*sqrt(-47)"
CLI_COMMANDS = {
    "classify": ["classify", "--D", "-79", "--a1", "1", "--a2", "1", "--a3", "1",
                 "--a4", "-420", "--a6", "3109", "--p", "5", "--P", "13,-15"],
    "selmer": ["selmer", "--D", "-47", "--a2", "-1", "--a3", "1", "--a4", "-10",
               "--a6", "-20", "--p", "5", "--P", "5,5"],
    "pairing": ["pairing", "--D", "-79", "--a1", "1", "--a2", "1", "--a3", "1",
                "--a4", "-420", "--a6", "3109", "--point", "13,-15",
                "--point", "13,-15"],
    "psi": ["psi", "--D", "8", "--a2", "1", "--a3", "1", "--a4", "9", "--a6", "1",
            "--p", "3", "--P", "1,3", "--point", "9/2,-1/2+35/4*sqrt(2)"],
    "report": ["report", "--D", "-47", "--a2", "-1", "--a3", "1", "--a4", "-10",
               "--a6", "-20", "--p", "5", "--P", "5,5", "--point", f"4,{ELT_47}",
               f"--point=-2,{ELT_47}"],
}
# values the README quotes, looked for in the text output
CLI_README_VALUES = {
    "pairing": "4/5 (2,1/2+1/2*sqrt(-79)) + 4/5 (2,-1/2+1/2*sqrt(-79))",
    "psi": "2/3 (7,-3+sqrt(2)) + 1/3 (7,-4+sqrt(2))",
    "selmer": "dim Sel^phi = 2,",
}
CLI_FORMATS = ("text", "json")


def cli_argv(name: str, fmt: str) -> list[str]:
    return CLI_COMMANDS[name] + ["--format", fmt]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDENS / "cli" / f"{name}.{fmt}"


def cli_subprocess(argv):
    """Run the CLI as a user does, in this process's environment; returns
    (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "logdescent.cli", *argv],
                          cwd=ROOT, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


class CliWorkload:
    """The five README commands in text and JSON, one command per op."""

    name = "cli"

    def __init__(self, seed, tiny=False, corrupt=False, inprocess=False):
        self.rng = random.Random(seed)
        self.inprocess = inprocess
        kinds = [(n, f) for n in CLI_COMMANDS for f in CLI_FORMATS]
        self.kinds = kinds[:2] if tiny else kinds
        self.expected = {k: golden_path(*k).read_bytes() for k in self.kinds}
        if corrupt:
            k = self.kinds[0]
            self.expected[k] = self.expected[k].replace(b"5", b"6")

    def _inprocess(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue().encode()

    def _unit(self, name, fmt):
        run = self._inprocess if self.inprocess else cli_subprocess
        argv = cli_argv(name, fmt)
        want = self.expected[(name, fmt)]

        def check(results):
            rc, out = results[0]
            if rc not in (0, 1, 2):
                return [(0, f"undocumented:exit_code:{name}")]
            if rc != 0 or out != want:
                return [(0, f"wrong:golden:{name}.{fmt}")]
            value = CLI_README_VALUES.get(name)
            if fmt == "text" and value and value not in out.decode():
                return [(0, f"wrong:readme:{name}")]
            return []

        return Unit([lambda: run(argv)], check)

    def setup(self):
        pass

    def rounds(self):
        while True:
            order = list(self.kinds)
            self.rng.shuffle(order)
            yield [self._unit(n, f) for n, f in order]


# -- search ------------------------------------------------------------------

# label: (a-invariants, p, kernel point P, xbound)
SEARCH_CURVES = {
    "11a1": ((0, -1, 1, -10, -20), 5, (5, 5), 4),
    "35a": ((0, 1, 1, 9, 1), 3, (1, 3), 4),
    "158": ((1, 1, 1, -420, 3109), 5, (13, -15), 4),
}
# orders of torsion points over quadratic fields (Kamienny-Kenku-Momose)
MAX_QUADRATIC_TORSION = 18


def search_candidates(xbound: int) -> int:
    """Number of distinct x = num/den the search scans."""
    return len({Fraction(n, d) for d in range(1, xbound + 1)
                for n in range(-xbound, xbound + 1)})


def search_inputs() -> dict:
    """label -> (curve over Q, kernel point, p, xbound)."""
    Q = qfield.make_field(None)
    out = {}
    for label, (ainvs, p, (px, py), xbound) in SEARCH_CURVES.items():
        E = ellcurve.curve_from_rational(Q, ainvs)
        out[label] = (E, E.point(Q(px), Q(py)), p, xbound)
    return out


def divisor_repr(D) -> list:
    return [[pr.label(), str(a)] for pr, a in D.sorted_items()]


def search_rows(results) -> list:
    return [[K.disc, qfield.format_element(Q.x), qfield.format_element(Q.y),
             divisor_repr(D)] for K, Q, D in results]


class SearchWorkload:
    """quadratic_point_search on the fixed curves over Q; one op is one
    candidate x. One round searches every curve once, and a process runs
    one round only, so that the package's caches only ever see new keys."""

    name = "search"

    def __init__(self, seed, tiny=False, corrupt=False, inprocess=False):
        self.rng = random.Random(seed)
        self.labels = ["35a"] if tiny else list(SEARCH_CURVES)
        self.expected = json.loads(SEARCH_GOLDEN.read_text())
        if corrupt:
            row = self.expected[self.labels[0]][0]
            row[3] = row[3] + [["(3)", "1"]]

    def setup(self):
        self.inputs = search_inputs()

    def _unit(self, label):
        E, P, p, xbound = self.inputs[label]
        want = self.expected[label]

        def check(results):
            res = results[0]
            if isinstance(res, Raised):
                return [(0, "wrong:search_raised")]
            rows = search_rows(res)
            fails = []
            for i, ((K, Q, D), row) in enumerate(zip(res, rows)):
                if not Q.curve.is_on(Q.x, Q.y):
                    fails.append((i, f"wrong:not_on_curve:{label}"))
                if _is_torsion(Q):
                    fails.append((i, f"wrong:torsion_point:{label}"))
            for i in range(max(len(rows), len(want))):
                if i >= len(rows) or i >= len(want) or rows[i] != want[i]:
                    fails.append((i, f"wrong:golden:{label}"))
            if label == "11a1" and xbound >= 4:
                fails.extend((-1, kind) for kind in _check_sqrt_m47(res))
            return fails

        return Unit([lambda: descent.quadratic_point_search(E, P, p, xbound)], check,
                    size=search_candidates(xbound))

    def rounds(self):
        order = list(self.labels)
        self.rng.shuffle(order)
        yield [self._unit(label) for label in order]


def _is_torsion(Q) -> bool:
    V = Q
    for _ in range(MAX_QUADRATIC_TORSION):
        if V.is_zero():
            return True
        V = V + Q
    return False


def _check_sqrt_m47(res):
    """The README's two points over Q(sqrt(-47)): psi(4, .) = 0 and
    psi(-2, .) != 0 in logPic(X, S_1)[5]."""
    hits = {}
    for K, Q, D in res:
        if K.disc == -47 and Q.x.b == 0:
            hits[Q.x.a] = D
    if 4 not in hits or -2 not in hits:
        return ["wrong:missing_sqrt_m47_point"]
    K = qfield.make_field(-47)
    E = ellcurve.curve_from_rational(K, SEARCH_CURVES["11a1"][0])
    ctx = descent.DescentContext(E, E.point(K(5), K(5)), 5)
    T = ctx.torsion()
    fails = []
    if any(T.vector(hits[4])):
        fails.append("wrong:psi_x4_nonzero")
    if not any(T.vector(hits[-2])):
        fails.append("wrong:psi_xm2_zero")
    return fails


# -- pairing -----------------------------------------------------------------

# label: (D, a-invariants, p, P, Mordell-Weil generators other than P)
F = Fraction
PAIRING_CURVES = {
    "11a1": (-47, (0, -1, 1, -10, -20), 5, (5, 5),
             [((4,), (F(-1, 2), F(1, 2))), ((-2,), (F(-1, 2), F(1, 2)))]),
    "158": (-79, (1, 1, 1, -420, 3109), 5, (13, -15),
            [((F(101, 9),), (F(-55, 9), F(16, 27)))]),
    "35a": (8, (0, 1, 1, 9, 1), 3, (1, 3),
            [((F(9, 2),), (F(-1, 2), F(35, 4)))]),
}
# Coefficients on the generators of the points of each unit. A point of a
# round is +-(this combination) + c*P, with the sign drawn from the seed and
# c cycling with the round, so the points change from round to round while
# their heights, and with them the cost of a round, do not depend on the
# seed.
PAIRING_SHAPES = {
    2: {"symmetry": [(1, 0), (0, 1)], "additivity": [(1, 0), (0, 1), (1, 1)],
        "kummer": [(1, 1)]},
    1: {"symmetry": [(1,), (2,)], "additivity": [(1,), (1,), (2,)], "kummer": [(1,)]},
}


class _PairingFixture:
    def __init__(self, label, D, ainvs, p, P, gens):
        K = qfield.make_field(D)
        self.label = label
        self.p = p
        self.E = E = ellcurve.curve_from_rational(K, ainvs)
        self.ctx = descent.DescentContext(E, E.point(K(P[0]), K(P[1])), p)
        self.G = pairing.pairing_group(E)
        self.km = descent.KummerMap(self.ctx)
        self.T = self.ctx.torsion()
        self.gens = [E.point(K(*x), K(*y)) for x, y in gens]
        self.bad = pairing.bad_places(E)
        self.shapes = PAIRING_SHAPES[len(self.gens)]


class PairingWorkload:
    """Warm pairing, Kummer map and psi on three prebuilt curves."""

    name = "pairing"

    def __init__(self, seed, tiny=False, corrupt=False, inprocess=False):
        self.rng = random.Random(seed)
        self.labels = ["35a"] if tiny else list(PAIRING_CURVES)
        self.corrupt = corrupt
        self.round = 0

    def setup(self):
        self.fix = {label: _PairingFixture(label, *PAIRING_CURVES[label])
                    for label in self.labels}

    def _points(self, fx, kind):
        pts = []
        for j, coeffs in enumerate(fx.shapes[kind]):
            R = fx.ctx.P * ((self.round + j) % fx.p)
            sign = self.rng.choice((-1, 1))
            for c, Q in zip(coeffs, fx.gens):
                R = R + Q * (sign * c)
            pts.append(R)
        return pts

    def _symmetry(self, fx):
        A, B = self._points(fx, "symmetry")

        def check(res):
            fails = []
            if not fx.G.equal(res[0], res[1]):
                fails.append((1, f"wrong:symmetry@{fx.label}"))
            for pr in fx.bad:   # nu o <,> = monodromy pairing
                coeff = res[0].coeffs.get(pr, Fraction(0))
                ld = isogeny.tate(fx.E, pr)
                if coeff % 1 != pairing.monodromy_pairing(ld, A, B, fx.E):
                    fails.append((0, f"wrong:monodromy@{fx.label}"))
            return fails

        return Unit([lambda: pairing.log_pairing(fx.E, A, B),
                     lambda: pairing.log_pairing(fx.E, B, A)], check)

    def _additivity(self, fx):
        A, B, C = self._points(fx, "additivity")
        AB = A + B
        if AB.is_zero():
            B = -B
            AB = A + B

        def check(res):
            if not fx.G.equal(res[2], res[0] + res[1]):
                return [(2, f"wrong:additivity@{fx.label}")]
            return []

        return Unit([lambda: pairing.log_pairing(fx.E, A, C),
                     lambda: pairing.log_pairing(fx.E, B, C),
                     lambda: pairing.log_pairing(fx.E, AB, C)], check)

    def _kummer(self, fx):
        (Q,) = self._points(fx, "kummer")
        shift = 1 if self.corrupt else 0

        def check(res):
            coords, vec = res
            rho = fx.T.vector(descent.psi_sel(fx.ctx, fx.km.element(coords)))
            want = [(v + shift) % fx.ctx.p for v in vec]
            return [] if rho == want else [(1, f"wrong:rho_kappa_psi@{fx.label}")]

        return Unit([lambda: fx.km.coords(Q),
                     lambda: descent.psi_vector(fx.ctx, Q)], check)

    def rounds(self):
        while True:
            rnd = []
            for label in self.labels:
                fx = self.fix[label]
                rnd += [self._symmetry(fx), self._additivity(fx), self._kummer(fx)]
            self.rng.shuffle(rnd)
            self.round += 1
            yield rnd


# -- descent -----------------------------------------------------------------

DESCENT_WINDOW = 300     # radicands 0 < |m| < 300
REAL_FIELD_ORDER = 0     # the one seed of the real-field order
# label: (a-invariants, p, P)
ISOGENIES = {label: (ainvs, p, P) for label, (ainvs, p, P, _) in SEARCH_CURVES.items()}


def _squarefree(n: int) -> bool:
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class DescentWorkload:
    """Full descents on fields the process has not seen. A round takes one
    imaginary and one real field, each with the three isogenies.

    The imaginary fields are a seeded draw from the window. The real fields
    come in one fixed shuffled order for every seed: most of them fail on
    the fundamental_unit defect, and a seeded draw would make the number
    of failed ops, and with it ops_per_s, swing from seed to seed."""

    name = "descent"

    def __init__(self, seed, tiny=False, corrupt=False, inprocess=False):
        rng = random.Random(seed)
        neg = [-m for m in range(1, DESCENT_WINDOW) if _squarefree(m)]
        pos = [m for m in range(2, DESCENT_WINDOW) if _squarefree(m)]
        rng.shuffle(neg)
        random.Random(REAL_FIELD_ORDER).shuffle(pos)
        self.fields = [m for pair in zip(neg, pos) for m in pair]
        self.labels = ["11a1"] if tiny else list(ISOGENIES)
        self.shift = 1 if corrupt else 0

    def setup(self):
        pass

    def _unit(self, m, label):
        ainvs, p, (px, py) = ISOGENIES[label]

        def op():
            K = qfield.make_field(m)
            E = ellcurve.curve_from_rational(K, ainvs)
            ctx = descent.DescentContext(E, E.point(K(px), K(py)), p)
            sel = descent.selmer_phi(ctx)
            dual = descent.selmer_phihat_dim(ctx, sel)
            selp = descent.sel_p_dim_if_applicable(ctx, sel)
            ctx.torsion()
            return ctx, sel, dual, selp

        def check(res):
            if isinstance(res[0], Raised):
                return []
            ctx, sel, dual, selp = res[0]
            K = ctx.field
            cg = ideals.class_group(K)
            fails = []
            if not ctx.S2:   # Cor. 3.4: the dual Selmer group from Cl_{S_1}
                if dual + self.shift != ideals.s_class_group(cg, ctx.S1).mod_p_dim(p):
                    fails.append((0, f"wrong:duality@{label}"))
            if label == "11a1" and _readme_formula_applies(ctx, cg):
                h5 = cg.coker.mod_p_dim(5)
                t = ideals.theta_image_dim(cg, ctx.S1, 5)
                ok = (sel.dim == h5 + len(ctx.S1) - t and dual == h5 - t
                      and (selp is None or selp == 2 * (h5 - t) + len(ctx.S1) - 1))
                if not ok:
                    fails.append((0, "wrong:readme_formula@11a1"))
            return fails

        return Unit([op], check)

    def rounds(self):
        for i in range(0, len(self.fields), 2):
            yield [self._unit(m, label) for m in self.fields[i:i + 2]
                   for label in self.labels]


def _readme_formula_applies(ctx, cg) -> bool:
    """README: 11a1 over an imaginary field where 11 is unramified and the
    5-part of Cl(K) has order at most 5, with the hypotheses satisfied."""
    K = ctx.field
    if not K.is_imaginary or K.disc % 11 == 0 or ctx.failures:
        return False
    five_part = 1
    for d in cg.coker.divisors:
        while d and d % 5 == 0:
            five_part *= 5
            d //= 5
    return five_part <= 5


WORKLOADS = {w.name: w for w in (CliWorkload, SearchWorkload, PairingWorkload,
                                 DescentWorkload)}

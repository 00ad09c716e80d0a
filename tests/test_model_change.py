"""Metamorphic oracle: the pairing and the descent are defined on the Neron
model, so any Weierstrass model of a worked curve, integral or not, must give
the same answers (Silverman, AEC VII.1, for changes of model).

Values are compared as classes, not divisors: a change of model moves the
divisor representing <Q,R> by a principal divisor.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdescent.descent import DescentContext, psi_vector, selmer_phi, selmer_phihat_dim
from logdescent.pairing import log_pairing, pairing_group

# the degree of the isogeny with kernel P on each worked curve
DEGREE = {"11a1": 5, "158": 5, "35a": 3}

# an entry (a + b*sqrt(m))/den of u, r, s or t, with a != 0 for u
_entry = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.sampled_from([1, 2, 3, 5]))
_unit = st.tuples(st.integers(-3, 3).filter(bool), st.integers(-2, 2), st.sampled_from([1, 2, 3, 5]))
_changes = st.tuples(_unit, _entry, _entry, _entry)
_labels = st.sampled_from(sorted(DEGREE))

# u = 2 on 158: the README pairing on a model with denominators 2
SCALED_158 = ((2, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1))


def _changed(E, urst):
    """E in the model given by urst, and the map of points onto it."""
    K = E.field
    urst = tuple(K(Fraction(a, den), Fraction(b, den)) for a, b, den in urst)
    return E.transform(*urst), lambda T: E.map_point(T, *urst)


@settings(max_examples=60, deadline=None)
@given(_labels, _changes, st.integers(-2, 2), st.integers(-2, 2))
@example("158", SCALED_158, 0, 1)
@example("35a", ((5, 0, 1), (0, 0, 1), (0, 0, 1), (0, 0, 1)), 1, 0)
def test_pairing_class_is_model_independent(worked_curves, label, urst, c, d):
    E, P, (G, *_) = worked_curves[label]
    E2, image = _changed(E, urst)
    Q, R = G, G * c + P * d
    A, B = pairing_group(E), pairing_group(E2)
    assert B.mults == A.mults
    assert B.coker.divisors == A.coker.divisors
    assert A.equal(log_pairing(E, Q, R), log_pairing(E2, image(Q), image(R))), (label, urst)


def _descent(E, P, G, p):
    ctx = DescentContext(E, P, p)
    out = [len(ctx.S1), len(ctx.S2), len(ctx.failures)]
    if not ctx.failures:
        sel = selmer_phi(ctx)
        out += [sel.dim, selmer_phihat_dim(ctx, sel), psi_vector(ctx, G)]
    return out


@settings(max_examples=30, deadline=None)
@given(_labels, _changes)
@example("158", SCALED_158)
def test_descent_is_model_independent(worked_curves, label, urst):
    # #S_1, #S_2, the number of hypothesis failures, dim Sel^phi,
    # dim Sel^phihat and psi of a generator
    E, P, (G, *_) = worked_curves[label]
    E2, image = _changed(E, urst)
    p = DEGREE[label]
    assert _descent(E2, image(P), image(G), p) == _descent(E, P, G, p), (label, urst)

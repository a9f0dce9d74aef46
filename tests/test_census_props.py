"""Property tests: census counts and point streams against brute force.

Each example is a random small equation over F_q[t]; its terms may carry
powers of t and include t-only constants, whose expansion yields constant
equations (inconsistent ones leave no points).  The oracles enumerate every
coefficient vector and test membership with `varieties.on_variety`, or, at
b = 1 over large primes, evaluate the equation on the whole F_q grid with
numpy.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ffheight.census import count_points, point_stream
from ffheight.rings import UniPoly, uni_content
from ffheight.varieties import HeightPoint, on_variety, variety_from_strs

# deterministic and without a .hypothesis/ directory, so the suite stays
# reproducible and leaves nothing behind
PROPS = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _term_str(c, k, exps, names):
    factors = [str(c)]
    if k:
        factors.append(f"t^{k}")
    factors += [f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(factors)


def _equation(terms, names):
    """terms: (coefficient, t power, exponent vector) triples."""
    return " + ".join(_term_str(c, k, e, names) for c, k, e in terms)


coeff = st.integers(1, 6)
tpow = st.integers(0, 2)

# affine plane curve: up to four terms of degree <= 3 plus up to two
# t-only constants
affine_terms = st.tuples(
    st.lists(
        st.tuples(coeff, tpow, st.tuples(st.integers(0, 3), st.integers(0, 3))).filter(
            lambda t: 0 < sum(t[2]) <= 3
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.tuples(coeff, tpow, st.just((0, 0))), max_size=2),
).map(lambda parts: parts[0] + parts[1])


@st.composite
def projective_terms(draw):
    # degree 0 makes the equation a t-only constant
    d = draw(st.integers(0, 3))
    monos = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3))
    return [(draw(coeff), draw(tpow), e) for e in chosen]


def _brute_points(X, b, projective):
    """Every coordinate tuple of degrees < b on X; for projective X the
    primitive ones whose first nonzero coefficient is 1."""
    fld = X.base_field
    q, n = fld.p, X.ncoords
    out = set()
    for flat in itertools.product(range(q), repeat=n * b):
        if projective and next((c for c in flat if c), None) != 1:
            continue
        coords = tuple(UniPoly(fld, flat[i * b : (i + 1) * b]) for i in range(n))
        if projective and uni_content(coords).deg != 0:
            continue
        if on_variety(X, HeightPoint(coords, projective)):
            out.add(coords)
    return out


def _check_against_brute_force(X, b, projective):
    want = _brute_points(X, b, projective)
    assert count_points(X, b).count == len(want)
    streamed = [pt.coords for pt in point_stream(X, b)]
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == want


@PROPS
@given(
    qb=st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    terms=affine_terms,
)
def test_affine_curves_match_brute_force(qb, terms):
    q, b = qb
    X = variety_from_strs("affine", ("x", "y"), (_equation(terms, "xy"),), q)
    _check_against_brute_force(X, b, projective=False)


@PROPS
@given(
    qb=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
    terms=projective_terms(),
)
def test_projective_curves_match_brute_force(qb, terms):
    q, b = qb
    X = variety_from_strs("projective", ("x", "y", "z"), (_equation(terms, "xyz"),), q)
    _check_against_brute_force(X, b, projective=True)


def _pow_mod(a, e, q):
    out = np.ones_like(a)
    for _ in range(e):
        out = out * a % q
    return out


@PROPS
@given(q=st.sampled_from([251, 257]), terms=affine_terms)
def test_affine_counts_at_b1_over_large_primes(q, terms):
    X = variety_from_strs("affine", ("x", "y"), (_equation(terms, "xy"),), q)
    # at b = 1 the points are the (x, y) in F_q^2 on which every t-coefficient
    # of the equation vanishes
    x, y = np.meshgrid(np.arange(q, dtype=np.int64), np.arange(q, dtype=np.int64))
    by_power = {}
    for c, k, (i, j) in terms:
        val = c * _pow_mod(x, i, q) * _pow_mod(y, j, q) % q
        by_power[k] = (by_power.get(k, 0) + val) % q
    on_curve = np.ones_like(x, dtype=bool)
    for vals in by_power.values():
        on_curve &= vals == 0
    assert count_points(X, 1).count == int(on_curve.sum())


def test_projective_constant_equation_has_no_points():
    # the zero vector does not solve a nonzero constant equation, so the
    # content recursion must not count it
    for q, b in ((2, 1), (3, 2)):
        X = variety_from_strs("projective", ("x", "y", "z"), ("t + 1",), q)
        assert count_points(X, b).count == 0
        assert point_stream(X, b) == []

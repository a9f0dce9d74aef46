import random

import pytest

from ffheight.census import point_stream
from ffheight.rings import PrimeField, UniPoly
from ffheight.varieties import (
    HeightPoint,
    VarietySpec,
    default_names,
    expand,
    on_variety,
    variety_from_strs,
)


F5 = PrimeField(5)


def test_default_names():
    assert tuple(default_names("affine", 2)) == ("x", "y")
    assert tuple(default_names("projective", 2)) == ("x", "y", "z")
    assert len(default_names("affine", 7)) == 7
    assert len(default_names("projective", 7)) == 8


def test_variety_from_strs_validation():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 5)
    assert X.ncoords == 2
    with pytest.raises(ValueError):
        # projective equations must be homogeneous
        variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y"], 5)
    with pytest.raises(ValueError):
        variety_from_strs("plane", ["x", "y"], ["x"], 5)


def test_height_affine():
    t = UniPoly.gen(F5)
    pt = HeightPoint((t * t, t + UniPoly.one(F5)))
    assert pt.height() == 2
    zero = HeightPoint((UniPoly.zero(F5), UniPoly.zero(F5)))
    assert zero.height() == 0


def test_height_projective_clears_content():
    t = UniPoly.gen(F5)
    # (t^2 : t) ~ (t : 1), height 1
    pt = HeightPoint((t * t, t), projective=True)
    assert pt.height() == 1
    assert pt.primitive().coords[1] == UniPoly.one(F5)
    with pytest.raises(ValueError):
        HeightPoint((UniPoly.zero(F5), UniPoly.zero(F5)), projective=True)


def test_point_from_coeffs_and_reduce():
    pt = HeightPoint((UniPoly(F5, [1, 2]), UniPoly(F5, [3])))
    assert pt.reduce_at(1) == (3, 3)
    assert pt.reduce_at(0) == (1, 3)


def test_on_variety_exact():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 5)
    t = UniPoly.gen(F5)
    assert on_variety(X, HeightPoint((t, t * t)))
    assert not on_variety(X, HeightPoint((t, t))) or t == t * t


def test_on_variety_respects_inequations():
    X = variety_from_strs(
        "affine", ["x", "y"], ["y - x^2"], 5, inequation_strs=["x"]
    )
    t = UniPoly.gen(F5)
    assert on_variety(X, HeightPoint((t, t * t)))
    assert not on_variety(X, HeightPoint((UniPoly.zero(F5), UniPoly.zero(F5))))


def test_expand_variable_layout():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 5)
    sysm = expand(X, 3)
    # two coordinates, three t-coefficients each
    assert sysm.nvars == 6
    assert not sysm.projective
    assert all(f.ring == F5 for f in sysm.equations)


def test_expand_solutions_match_points():
    """Solutions of the expanded F_p system are exactly the X(b) points."""
    X = variety_from_strs("affine", ["x", "y"], ["y - x^2"], 3)
    b = 2
    sysm = expand(X, b)
    rng = random.Random(11)
    for _ in range(200):
        vals = [rng.randrange(3) for _ in range(sysm.nvars)]
        pt = sysm.to_point(vals)
        assert sysm.contains(vals) == on_variety(X, pt)


def test_expand_projective_excludes_zero_section():
    X = variety_from_strs("projective", ["x", "y", "z"], ["x^2 - y*z"], 5)
    sysm = expand(X, 1)
    assert sysm.projective
    assert not sysm.contains([0] * sysm.nvars)


def test_point_stream_agrees_with_brute_force():
    X = variety_from_strs("affine", ["x", "y"], ["y - x^3"], 3)
    b = 2
    got = sorted(str(p) for p in point_stream(X, b))
    want = []
    for a0 in range(3):
        for a1 in range(3):
            x = UniPoly(PrimeField(3), [a0, a1])
            y = x * x * x
            if y.deg is not None and (y.is_zero() or y.deg < b):
                want.append(str(HeightPoint((x, y))))
    assert got == sorted(want)

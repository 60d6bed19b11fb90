import math

import numpy as np
import pytest

from koenigs.invariants import (
    _STRETCH,
    _gradients,
    algebra_residuals,
    conserved_functions,
    conserved_set,
    poisson_bracket,
    second_integrals,
)
from koenigs.errors import ChartError
from koenigs.models import PhasePoint, make_model, make_point
from koenigs.verify import _VERIFY_MODELS, _random_points


def test_trig_conserved_set_direct_substitution():
    model = make_model("trig", 0.5, 0.0)
    pt = make_point(model, math.pi / 2, 0.0, 1.0, 1.0)
    cs = conserved_set(model, pt)
    assert cs.E == pytest.approx(1.0, abs=1e-14)
    assert cs.L == 1.0
    assert cs.S1 == pytest.approx(0.5, abs=1e-14)
    assert cs.S2 == pytest.approx(-1.5, abs=1e-14)


def test_h0_conserved_set_at_rest():
    model = make_model("h0", 0.8, 1.1)
    pt = make_point(model, 1.3, 0.0, 0.0, 0.0)
    cs = conserved_set(model, pt)
    assert cs.S1 == pytest.approx(0.0, abs=1e-14)
    assert cs.S2 == pytest.approx(cs.E, rel=1e-14)


def test_affine_conserved_set_direct_substitution():
    model = make_model("affine", 1.0, 0.0)
    pt = make_point(model, 1.0, 0.0, 1.0, 1.0)
    cs = conserved_set(model, pt)
    assert cs.S1 == pytest.approx(1.0, abs=1e-14)


def test_bracket_canonical_pair():
    model = make_model("h0", 0.8, 1.1)
    pt = PhasePoint(1.2, 0.3, 0.5, -0.4)
    val = poisson_bracket(lambda z: z.q1, lambda z: z.p1, pt, model=model)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_bracket_hamiltonian_conserves_integrals():
    rng = np.random.default_rng(3)
    model = make_model("h0", 0.8, 1.1)
    funcs = conserved_functions(model)
    for _ in range(40):
        pt = PhasePoint(rng.uniform(0.4, 2.2), rng.uniform(-1.5, 1.5),
                        rng.uniform(-2, 2), rng.uniform(-2, 2))
        for name in ("L", "S1", "S2"):
            val = poisson_bracket(funcs["E"], funcs[name], pt, model=model)
            scale = max(1.0, abs(funcs["E"](pt)), abs(funcs[name](pt)))
            assert abs(val) / scale < 1e-7


def test_trig_ladder_relation():
    # with swapped bracket arguments, bracketing with the linear integral
    # scales the quadratic ones by +1 and -1 respectively
    rng = np.random.default_rng(5)
    model = make_model("trig", 0.5, 0.7)
    funcs = conserved_functions(model)
    for _ in range(25):
        pt = PhasePoint(rng.uniform(0.4, 2.7), rng.uniform(-1.2, 1.2),
                        rng.uniform(-2, 2), rng.uniform(-2, 2))
        s1, s2 = second_integrals(model, pt)
        up = poisson_bracket(funcs["S1"], funcs["L"], pt, model=model)
        down = poisson_bracket(funcs["S2"], funcs["L"], pt, model=model)
        assert up == pytest.approx(s1, rel=2e-7, abs=2e-7)
        assert down == pytest.approx(-s2, rel=2e-7, abs=2e-7)


def test_bracket_stencil_leaving_chart_raises():
    model = make_model("trig", 0.5, 0.7)
    pt = PhasePoint(1e-7, 0.0, 1.0, 1.0)
    with pytest.raises(ChartError):
        poisson_bracket(lambda z: z.q1, lambda z: z.p1, pt, model=model)


def test_exact_identities_tiny_everywhere():
    rng = np.random.default_rng(11)
    for family, lo, hi in (("trig", 0.4, 2.7), ("h0", 0.4, 2.3),
                           ("hplus", 0.4, 2.1), ("affine", 0.4, 2.3)):
        model = make_model(family, 0.6 if family != "hplus" else 2.0, 0.9)
        for _ in range(25):
            pt = PhasePoint(rng.uniform(lo, hi), rng.uniform(-1.2, 1.2),
                            rng.uniform(-2, 2), rng.uniform(-2, 2))
            res = algebra_residuals(model, pt)
            for key in ("recombination", "casimir"):
                if key in res:
                    assert res[key] < 1e-11, (family, key, res[key])


def test_hminus_w_algebra_closes():
    rng = np.random.default_rng(13)
    model = make_model("hminus", 0.6, 0.9)
    x_lo = math.asinh(-model.rho)
    for _ in range(25):
        pt = PhasePoint(rng.uniform(x_lo + 0.35, x_lo + 2.0), rng.uniform(-1.2, 1.2),
                        rng.uniform(-2, 2), rng.uniform(-2, 2))
        res = algebra_residuals(model, pt)
        assert res["w_L_S1"] < 1e-7
        assert res["w_L_S2"] < 1e-7
        assert res["w_S1_S2"] < 1e-7
        assert res["casimir"] < 1e-11


def test_diagnostics_vectorize():
    model = make_model("h0", 0.8, 1.1)
    pts = PhasePoint(np.array([0.8, 1.4]), np.array([0.1, 0.2]),
                     np.array([0.3, -0.5]), np.array([1.0, 1.0]))
    cs = conserved_set(model, pts)
    assert cs.E.shape == (2,)
    single = conserved_set(model, PhasePoint(0.8, 0.1, 0.3, 1.0))
    assert cs.S1[0] == pytest.approx(single.S1, rel=1e-14)


def _stencil_reference(f, g, point, h=1e-5):
    # the 16-evaluation central-difference bracket, written out per function
    z = (point.q1, point.q2, point.p1, point.p2)

    def grad(func):
        out = []
        for i in range(4):
            s = h * np.maximum(1.0, np.abs(z[i]))
            up, down = list(z), list(z)
            up[i] = up[i] + s
            down[i] = down[i] - s
            out.append((func(PhasePoint(*up)) - func(PhasePoint(*down))) / (2.0 * s))
        return out

    fq1, fq2, fp1, fp2 = grad(f)
    gq1, gq2, gp1, gp2 = grad(g)
    return fq1 * gp1 + fq2 * gp2 - fp1 * gq1 - fp2 * gq2


def test_bracket_matches_stencil_reference_bitwise():
    rng = np.random.default_rng(17)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        pts = _random_points(model, rng, 6)
        for i in range(6):
            pt = PhasePoint(float(pts.q1[i]), float(pts.q2[i]),
                            float(pts.p1[i]), float(pts.p2[i]))
            for a, b in (("E", "L"), ("E", "S1"), ("S1", "S2"), ("S2", "L")):
                got = poisson_bracket(funcs[a], funcs[b], pt, model=model)
                assert got == _stencil_reference(funcs[a], funcs[b], pt), (family, a, b)


def test_algebra_residuals_on_arrays_match_scalar_calls():
    # a scalar point squares by pow(x, 2) and an array by x * x, which may
    # differ by one ulp; the stencil divides that by 2h, so a residual may
    # move by about 1e-11 per unit of |f| (1e-10 worst over 3000 points)
    rng = np.random.default_rng(19)
    for family, model in _VERIFY_MODELS.items():
        pts = _random_points(model, rng, 12)
        arr = algebra_residuals(model, pts)
        for i in range(12):
            pt = PhasePoint(float(pts.q1[i]), float(pts.q2[i]),
                            float(pts.p1[i]), float(pts.p2[i]))
            scalar = algebra_residuals(model, pt)
            assert set(scalar) == set(arr)
            for key, val in scalar.items():
                assert arr[key].shape == (12,)
                assert arr[key][i] == pytest.approx(val, rel=1e-12, abs=1e-9), (family, key)


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_three_call_stencil_matches_reference_bitwise_on_arrays():
    # sizes on both sides of the stretch boundary, and several stretches
    rng = np.random.default_rng(23)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        for n in (1, _STRETCH - 1, _STRETCH, _STRETCH + 1, 20000):
            pts = _random_points(model, rng, n)
            for name in ("L", "S1", "S2"):
                got = poisson_bracket(funcs["E"], funcs[name], pts, model=model)
                ref = _stencil_reference(funcs["E"], funcs[name], pts)
                assert _same_bits(got, ref), (family, n, name)


def test_three_call_stencil_matches_reference_on_2d_and_mixed_fields():
    rng = np.random.default_rng(29)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        pts = _random_points(model, rng, 40 * 60)
        grid = PhasePoint(*(v.reshape(40, 60) for v in (pts.q1, pts.q2, pts.p1, pts.p2)))
        # each coordinate in turn is a Python float, the others arrays; its
        # shifted values are squared as a (k, 1) array here and by pow in the
        # reference, which can differ by one ulp but agree at these points
        mixed = [PhasePoint(*(float(v[0]) if i == k else v
                              for i, v in enumerate((pts.q1, pts.q2, pts.p1, pts.p2))))
                 for k in range(4)]
        for point in [grid] + mixed:
            for name in ("L", "S1", "S2"):
                got = poisson_bracket(funcs["E"], funcs[name], point, model=model)
                ref = _stencil_reference(funcs["E"], funcs[name], point)
                assert _same_bits(got, ref), (family, name, np.shape(point.q1), np.shape(point.q2))


def test_stencil_makes_three_calls_per_stretch():
    model = make_model("h0", 0.8, 1.1)
    calls = []

    def func(z):
        calls.append(np.shape(z.q1))
        return (z.q1,)

    _gradients(func, _random_points(model, np.random.default_rng(31), 2 * _STRETCH + 1))
    # q1 is stacked in the first call of each stretch only
    assert calls == [(2, _STRETCH), (_STRETCH,), (_STRETCH,)] * 2 + [(2, 1), (1,), (1,)]
    # a scalar point takes the eight shifted points one call each
    calls.clear()
    _gradients(func, PhasePoint(1.2, 0.3, 0.5, -0.4))
    assert len(calls) == 8


def test_unshifted_entry_differences_to_exact_zero_and_keeps_nan():
    model = make_model("h0", 0.8, 1.1)
    pts = _random_points(model, np.random.default_rng(37), _STRETCH + 5)
    p1 = pts.p1.copy()
    p1[[3, _STRETCH + 2]] = np.nan
    pts = PhasePoint(pts.q1, pts.q2, p1, pts.p2)
    dL, dp1 = _gradients(lambda z: (z.p2, z.p1), pts)
    for d in dL[:2]:  # L = p2 does not move with q1 or q2: +0.0
        assert _same_bits(d, np.zeros(_STRETCH + 5))
    assert np.array_equal(np.isnan(dp1[0]), np.isnan(p1))
    assert np.all(dp1[0][~np.isnan(p1)] == 0.0)
    (dL,) = _gradients(lambda z: (z.p2,), PhasePoint(1.2, 0.3, math.nan, -0.4))
    assert dL[:2] == (0.0, 0.0)


def test_chart_guard_covers_the_last_stretch():
    model = make_model("trig", 0.5, 0.7)
    pts = _random_points(model, np.random.default_rng(41), 2 * _STRETCH + 7)
    funcs = conserved_functions(model)
    poisson_bracket(funcs["E"], funcs["L"], pts, model=model)
    q1 = pts.q1.copy()
    q1[-1] = 1e-7
    with pytest.raises(ChartError):
        poisson_bracket(funcs["E"], funcs["L"], PhasePoint(q1, pts.q2, pts.p1, pts.p2),
                        model=model)

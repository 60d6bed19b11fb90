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
            assert abs(val) / scale < 5e-13


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
        assert up == pytest.approx(s1, rel=5e-14, abs=5e-14)
        assert down == pytest.approx(-s2, rel=5e-14, abs=5e-14)


def test_bracket_next_to_chart_edge_is_exact():
    # the complex step never moves the real point, so a point 1e-7 from
    # the trig chart's edge takes its bracket like any other
    model = make_model("trig", 0.5, 0.7)
    pt = PhasePoint(1e-7, 0.0, 1.0, 1.0)
    assert poisson_bracket(lambda z: z.q1, lambda z: z.p1, pt, model=model) == 1.0


def test_bracket_of_math_function_raises_type_error():
    pt = PhasePoint(1.2, 0.3, 0.5, -0.4)
    with pytest.raises(TypeError):
        poisson_bracket(lambda z: math.sin(z.q1), lambda z: z.p1, pt)


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
        assert res["w_L_S1"] < 2e-13
        assert res["w_L_S2"] < 2e-13
        assert res["w_S1_S2"] < 2e-13
        assert res["casimir"] < 1e-11


def test_diagnostics_vectorize():
    model = make_model("h0", 0.8, 1.1)
    pts = PhasePoint(np.array([0.8, 1.4]), np.array([0.1, 0.2]),
                     np.array([0.3, -0.5]), np.array([1.0, 1.0]))
    cs = conserved_set(model, pts)
    assert cs.E.shape == (2,)
    single = conserved_set(model, PhasePoint(0.8, 0.1, 0.3, 1.0))
    assert cs.S1[0] == pytest.approx(single.S1, rel=1e-14)


def _complex_step_reference(f, g, point, h=1e-30):
    # the bracket from eight complex-step derivatives, written out per function
    z = (point.q1, point.q2, point.p1, point.p2)

    def grad(func):
        out = []
        for i in range(4):
            w = list(z)
            w[i] = w[i] + 1j * h
            out.append(func(PhasePoint(*w)).imag / h)
        return out

    fq1, fq2, fp1, fp2 = grad(f)
    gq1, gq2, gp1, gp2 = grad(g)
    return fq1 * gp1 + fq2 * gp2 - fp1 * gq1 - fp2 * gq2


def test_bracket_matches_complex_step_reference():
    rng = np.random.default_rng(17)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        pts = _random_points(model, rng, 6)
        for i in range(6):
            pt = PhasePoint(float(pts.q1[i]), float(pts.q2[i]),
                            float(pts.p1[i]), float(pts.p2[i]))
            for a, b in (("E", "L"), ("E", "S1"), ("S1", "S2"), ("S2", "L")):
                got = poisson_bracket(funcs[a], funcs[b], pt, model=model)
                assert got == _complex_step_reference(funcs[a], funcs[b], pt), (family, a, b)


def test_algebra_residuals_on_arrays_match_scalar_calls():
    # a scalar point runs on Python complex and cmath, an array on numpy;
    # the two differ in the last bits only
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
                assert arr[key][i] == pytest.approx(val, rel=1e-13, abs=1e-13), (family, key)


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_bracket_matches_complex_step_reference_on_arrays():
    # sizes on both sides of the stretch boundary, and several stretches;
    # the bracket is formed per stretch and the reference on the whole set
    rng = np.random.default_rng(23)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        for n in (1, _STRETCH - 1, _STRETCH, _STRETCH + 1, 20000):
            pts = _random_points(model, rng, n)
            for name in ("L", "S1", "S2"):
                got = poisson_bracket(funcs["E"], funcs[name], pts, model=model)
                ref = _complex_step_reference(funcs["E"], funcs[name], pts)
                assert got.shape == (n,) and np.array_equal(got, ref), (family, n, name)


def test_bracket_matches_complex_step_reference_on_2d_and_mixed_fields():
    rng = np.random.default_rng(29)
    for family, model in _VERIFY_MODELS.items():
        funcs = conserved_functions(model)
        pts = _random_points(model, rng, 40 * 60)
        grid = PhasePoint(*(v.reshape(40, 60) for v in (pts.q1, pts.q2, pts.p1, pts.p2)))
        # each coordinate in turn is a Python float, the others arrays
        mixed = [PhasePoint(*(float(v[0]) if i == k else v
                              for i, v in enumerate((pts.q1, pts.q2, pts.p1, pts.p2))))
                 for k in range(4)]
        for point in [grid] + mixed:
            for name in ("L", "S1", "S2"):
                got = poisson_bracket(funcs["E"], funcs[name], point, model=model)
                ref = _complex_step_reference(funcs["E"], funcs[name], point)
                assert got.shape == np.shape(ref) and np.array_equal(got, ref), (
                    family, name, np.shape(point.q1), np.shape(point.q2))


def test_gradients_make_four_calls_per_stretch():
    model = make_model("h0", 0.8, 1.1)
    calls = []

    def func(z):
        fields = (z.q1, z.q2, z.p1, z.p2)
        shifted = [k for k, v in enumerate(fields) if np.iscomplexobj(v)]
        calls.append((np.shape(z.q1), shifted, type(z.q1)))
        return (z.q1,)

    _gradients(func, _random_points(model, np.random.default_rng(31), 2 * _STRETCH + 1))
    # one call per coordinate, each shifting that coordinate alone
    assert calls == [((n,), [k], np.ndarray) for n in (_STRETCH, _STRETCH, 1) for k in range(4)]
    # a scalar point takes the same four calls on Python scalars, so that
    # `kernel` picks cmath for the shifted q1
    calls.clear()
    _gradients(func, PhasePoint(1.2, 0.3, 0.5, -0.4))
    assert calls == [((), [k], complex if k == 0 else float) for k in range(4)]


def test_unshifted_entry_differences_to_exact_zero_and_keeps_nan():
    model = make_model("h0", 0.8, 1.1)
    pts = _random_points(model, np.random.default_rng(37), _STRETCH + 5)
    p1 = pts.p1.copy()
    p1[[3, _STRETCH + 2]] = np.nan
    pts = PhasePoint(pts.q1, pts.q2, p1, pts.p2)
    dL, dp1 = _gradients(lambda z: (z.p2, z.p1), pts)
    for d in dL[:3]:  # L = p2 does not move with q1, q2 or p1: +0.0
        assert _same_bits(d, np.zeros(_STRETCH + 5))
    # an entry that is NaN at a point has four NaN derivatives there
    for d, exact in zip(dp1, (0.0, 0.0, 1.0, 0.0)):
        assert np.array_equal(np.isnan(d), np.isnan(p1))
        assert np.all(d[~np.isnan(p1)] == exact)
    (dL, dp1) = _gradients(lambda z: (z.p2, z.p1), PhasePoint(1.2, 0.3, math.nan, -0.4))
    assert dL[:3] == (0.0, 0.0, 0.0)
    assert all(math.isnan(d) for d in dp1)
    bracket = poisson_bracket(lambda z: z.q1, lambda z: z.p1 * z.p2, pts)
    assert np.array_equal(np.isnan(bracket), np.isnan(p1))


def test_chart_guard_covers_the_last_stretch():
    model = make_model("trig", 0.5, 0.7)
    pts = _random_points(model, np.random.default_rng(41), 2 * _STRETCH + 7)
    funcs = conserved_functions(model)
    poisson_bracket(funcs["E"], funcs["L"], pts, model=model)
    q1 = pts.q1.copy()
    q1[-1] = -1e-3
    with pytest.raises(ChartError):
        poisson_bracket(funcs["E"], funcs["L"], PhasePoint(q1, pts.q2, pts.p1, pts.p2),
                        model=model)

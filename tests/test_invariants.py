import math
from dataclasses import replace

import numpy as np
import pytest

from koenigs.invariants import (
    _STRETCH,
    _gradients,
    _rel,
    algebra_residuals,
    conserved_functions,
    conserved_set,
    poisson_bracket,
    second_integrals,
)
from koenigs import models
from koenigs.errors import ChartError
from koenigs.models import FAMILIES, PhasePoint, hamiltonian, make_model, make_point
from koenigs.verify import _VERIFY_MODELS, _random_points, run_suite


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
    # in the canonical order, bracketing the linear integral with the
    # quadratic ones scales them by -1 and +1 respectively
    rng = np.random.default_rng(5)
    model = make_model("trig", 0.5, 0.7)
    funcs = conserved_functions(model)
    for _ in range(25):
        pt = PhasePoint(rng.uniform(0.4, 2.7), rng.uniform(-1.2, 1.2),
                        rng.uniform(-2, 2), rng.uniform(-2, 2))
        s1, s2 = second_integrals(model, pt)
        down = poisson_bracket(funcs["L"], funcs["S1"], pt, model=model)
        up = poisson_bracket(funcs["L"], funcs["S2"], pt, model=model)
        assert down == pytest.approx(-s1, rel=5e-14, abs=5e-14)
        assert up == pytest.approx(s2, rel=5e-14, abs=5e-14)


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
    for family, lo, hi in (("trig", 0.4, 2.7), ("h0", 0.4, 2.3), ("hplus", 0.4, 2.1),
                           ("hminus", 0.4, 2.3), ("affine", 0.4, 2.3)):
        model = make_model(family, 0.6 if family != "hplus" else 2.0, 0.9)
        for _ in range(25):
            pt = PhasePoint(rng.uniform(lo, hi), rng.uniform(-1.2, 1.2),
                            rng.uniform(-2, 2), rng.uniform(-2, 2))
            res = algebra_residuals(model, pt)
            assert res["casimir"] < 1e-11, (family, res["casimir"])


# three models per family, so that no coefficient of the algebra table is
# right at one (rho, xi) by accident
TABLE_MODELS = (
    ("trig", 0.5, 0.7), ("trig", 0.2, -1.3), ("trig", 0.9, 3.0),
    ("h0", 0.8, 1.1), ("h0", 0.3, 5.0), ("h0", 2.5, 0.4),
    ("hplus", 2.0, 1.3), ("hplus", 0.4, 8.0), ("hplus", 3.1, 0.2),
    ("hminus", 0.6, 0.9), ("hminus", -1.5, 2.0), ("hminus", 3.0, -0.7),
    ("affine", 1.2, 0.9), ("affine", 0.3, -2.0), ("affine", 4.0, 5.0),
)


@pytest.mark.parametrize("family,rho,xi", TABLE_MODELS)
def test_algebra_table_closes(family, rho, xi):
    model = make_model(family, rho, xi)
    res = algebra_residuals(model, _random_points(model, np.random.default_rng(13), 400))
    for key in ("w_L_S1", "w_L_S2", "w_S1_S2"):
        assert np.max(res[key]) < 2e-13, (key, np.max(res[key]))
    assert np.max(res["casimir"]) < 1e-11


def _doubled_hplus(row):
    # the P_phi^2 coefficient of `rest` doubled: -D p2^2 once more, turned
    # with the pair
    def integrals(rho, xi, q1, q2, p1, p2, which):
        x, y = models._ns(q1), models._ns(q2)
        extra = -0.5 * (1.0 + x.cosh(q1) ** 2) * (p2 / x.sinh(q1)) ** 2
        s1, s2 = row.integrals(rho, xi, q1, q2, p1, p2, None)
        pair = (s1 + y.sin(2 * q2) * extra, s2 + y.cos(2 * q2) * extra)
        return pair if which is None else pair[which]
    return integrals


def _scaled_pair(row):
    def integrals(rho, xi, q1, q2, p1, p2, which):
        pair = tuple((1.0 + 1e-9) * s for s in row.integrals(rho, xi, q1, q2, p1, p2, None))
        return pair if which is None else pair[which]
    return integrals


@pytest.mark.parametrize("family,mutant", [("hplus", _doubled_hplus), ("h0", _scaled_pair)])
def test_algebra_table_catches_wrong_integrals(monkeypatch, family, mutant):
    # the verify row fails on the 2e-12 bracket bound or the 1e-11 Casimir gate
    row = models.FAMILY[family]
    monkeypatch.setitem(models.FAMILY, family, replace(row, integrals=mutant(row)))
    model = _VERIFY_MODELS[family]
    res = algebra_residuals(model, _random_points(model, np.random.default_rng(59), 40))
    worst_bracket = max(np.max(res[key]) for key in ("w_L_S1", "w_L_S2", "w_S1_S2"))
    assert worst_bracket >= 2e-12 or np.max(res["casimir"]) >= 1e-11
    (result,) = [r for r in run_suite("invariants") if r.name == "invariants.algebra_identities"]
    assert result.status == "FAIL", result.detail


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
            assert list(scalar) == list(arr) == [
                "dH_L", "dH_S1", "dH_S2", "w_L_S1", "w_L_S2", "w_S1_S2", "casimir"]
            for key, val in scalar.items():
                assert arr[key].shape == (12,)
                assert arr[key][i] == pytest.approx(val, rel=1e-13, abs=1e-13), (family, key)


@pytest.mark.parametrize("family", FAMILIES)
def test_scalar_point_gives_python_floats(family):
    # a scalar point stays Python numbers from end to end: no numpy scalar
    # leaks out of the energy, the conserved set, a bracket or a residual
    model = _VERIFY_MODELS[family]
    funcs = conserved_functions(model)
    pts = _random_points(model, np.random.default_rng(47), 4)
    for i in range(4):
        pt = PhasePoint(float(pts.q1[i]), float(pts.q2[i]), float(pts.p1[i]), float(pts.p2[i]))
        values = [hamiltonian(model, pt), *conserved_set(model, pt).as_dict().values(),
                  *(poisson_bracket(funcs["E"], funcs[name], pt, model=model) for name in ("L", "S1", "S2")),
                  *algebra_residuals(model, pt).values()]
        assert all(type(v) is float for v in values), family


@pytest.mark.parametrize("residual,terms", [
    (math.nan, (2.0,)), (1.0, (math.nan,)), (1.0, (math.nan, 2.0)), (1.0, (2.0, math.nan)),
])
def test_rel_keeps_nan_on_scalar_and_array_paths(residual, terms):
    got = _rel(residual, *terms)
    assert type(got) is float and math.isnan(got)
    got = _rel(np.array([residual, 1.0]), *(np.array([t, 4.0]) for t in terms))
    assert math.isnan(got[0]) and got[1] == 0.25
    assert _rel(3.0, -5.0, 2.0) == 0.6 and _rel(-0.5, 0.25) == 0.5


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


def _h_based_pair(model, point):
    # the quadratic integrals written out with H = hamiltonian(model, point),
    # each transcendental taken where it is needed
    rho = model.rho
    q1, q2, p1, p2 = point.q1, point.q2, point.p1, point.p2
    H = hamiltonian(model, point)
    if model.family == "trig":
        s, c = np.sin(q1), np.cos(q1)
        return (np.exp(q2) * (s * p1 * p2 + c * p2**2 - rho * H),
                np.exp(-q2) * (-s * p1 * p2 + c * p2**2 - rho * H))
    if model.family == "affine":
        drop = 2.0 * rho * H - p2**2
        return (q1 * p1 * p2 - q2 * drop,
                0.5 * (-(q1**2) * p2**2 + 2.0 * q2 * q1 * p1 * p2 - q2**2 * drop))
    if model.family == "hminus":
        cross = np.cosh(q1) * p1 * p2
        rest = np.sinh(q1) * p2**2 - H
        angle = q2
    elif model.family == "h0":
        cross = p1 * p2 / q1
        rest = H - p2**2 / q1**2
        angle = 2 * q2
    else:
        cross = p1 * p2 / np.tanh(q1)
        rest = H - (1.0 + np.cosh(q1) ** 2) / (2.0 * np.sinh(q1) ** 2) * p2**2
        angle = 2 * q2
    c, s = np.cos(angle), np.sin(angle)
    return c * cross + s * rest, -s * cross + c * rest


def _point_layouts(model, rng):
    pts = _random_points(model, rng, 24 * 25)
    fields = (pts.q1, pts.q2, pts.p1, pts.p2)
    yield [PhasePoint(*(float(v[i]) for v in fields)) for i in range(40)]
    yield [pts, PhasePoint(*(v.reshape(24, 25) for v in fields))]
    # each coordinate in turn a Python float, the others arrays
    yield [PhasePoint(*(float(v[0]) if i == k else v for i, v in enumerate(fields)))
           for k in range(4)]


@pytest.mark.parametrize("family", list(_VERIFY_MODELS))
def test_integral_rows_match_the_h_based_formulas(family):
    model = _VERIFY_MODELS[family]
    funcs = conserved_functions(model)
    for layout in _point_layouts(model, np.random.default_rng(43)):
        for point in layout:
            ref = _h_based_pair(model, point)
            for got in (second_integrals(model, point), (funcs["S1"](point), funcs["S2"](point)),
                        conserved_set(model, point).as_dict().values()):
                *_, s1, s2 = got
                for g, r in zip((s1, s2), ref):
                    assert np.shape(g) == np.shape(r)
                    gap = np.abs(g - r) / np.maximum(1.0, np.abs(r))
                    assert np.max(gap) <= 1e-14, (family, np.shape(point.q1), np.max(gap))


def test_integrals_make_no_kernel_calls(monkeypatch):
    calls = []
    kernel = models.kernel
    monkeypatch.setattr(models, "kernel", lambda *args: calls.append(1) or kernel(*args))
    rng = np.random.default_rng(47)
    for model in _VERIFY_MODELS.values():
        funcs = conserved_functions(model)
        pts = _random_points(model, rng, 5)
        for point in (pts, PhasePoint(*(float(v[0]) for v in (pts.q1, pts.q2, pts.p1, pts.p2)))):
            funcs["S1"](point), funcs["S2"](point), second_integrals(model, point)
            poisson_bracket(funcs["S1"], funcs["S2"], point, model=model)
    assert calls == []
    funcs["E"](point)  # the energy itself is `hamiltonian`, through `kernel`
    assert calls == [1]


def test_doubled_hplus_angular_term_breaks_conservation():
    # the P_phi^2 coefficient of S1 is (1 + cosh^2)/(2 sinh^2); doubling it
    # gives a function that does not commute with H, and the bracket says so
    model = _VERIFY_MODELS["hplus"]
    funcs = conserved_functions(model)

    def doubled(z):
        cross = z.p1 * z.p2 / np.tanh(z.q1)
        D = (1.0 + np.cosh(z.q1) ** 2) / np.sinh(z.q1) ** 2
        rest = hamiltonian(model, z) - D * z.p2**2
        return np.cos(2 * z.q2) * cross + np.sin(2 * z.q2) * rest

    pts = _random_points(model, np.random.default_rng(53), 2000)
    for func, bad in ((funcs["S1"], False), (doubled, True)):
        val = poisson_bracket(funcs["E"], func, pts, model=model)
        scale = np.maximum(1.0, np.maximum(np.abs(funcs["E"](pts)), np.abs(func(pts))))
        worst = np.max(np.abs(val) / scale)
        assert worst > 1e-2 if bad else worst < 5e-13, (bad, worst)

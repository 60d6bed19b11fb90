import math

import numpy as np
import pytest

from koenigs.errors import (
    ChartError,
    ConstantCurvature,
    ConvergenceFailure,
    DomainError,
    NoGlobalStructure,
)
from koenigs.models import (
    FAMILIES,
    FAMILY,
    PhasePoint,
    brioschi_curvature,
    check_chart,
    embed,
    generators,
    hamiltonian,
    kernel,
    make_model,
    make_point,
    metric_components,
    scalar_curvature,
)
from koenigs.verify import _VERIFY_MODELS, _random_points


def test_families_tuple():
    assert FAMILIES == ("trig", "h0", "hplus", "hminus", "affine")


@pytest.mark.parametrize("family", FAMILIES)
def test_chart_interval_edges(family):
    model = _VERIFY_MODELS[family]
    lo, hi = FAMILY[family].chart(model.rho)
    outside = [lo, lo + 1e-13] + ([hi] if hi < math.inf else [])
    for q1 in outside:
        with pytest.raises(ChartError):
            check_chart(model, q1)
    check_chart(model, 0.5 * (lo + hi) if hi < math.inf else lo + 1.0)


def test_only_polar_charts_reduce_the_angle():
    reduced = set()
    for family, model in _VERIFY_MODELS.items():
        lo, _ = FAMILY[family].chart(model.rho)
        q2 = make_point(model, lo + 1.0, 7.0, 0.0, 0.0).q2
        if q2 != 7.0:
            assert q2 == pytest.approx(7.0 - 2.0 * math.pi, abs=1e-15)
            reduced.add(family)
    assert reduced == {"h0", "hplus"}


def test_hminus_chart_is_where_sinh_plus_rho_is_positive():
    for rho in (-2.0, 0.0, 0.6, 3.0):
        lo, hi = FAMILY["hminus"].chart(rho)
        assert hi == math.inf
        assert math.sinh(lo) + rho == pytest.approx(0.0, abs=1e-14)
        assert math.sinh(lo + 1e-6) + rho > 0.0


@pytest.mark.parametrize(
    "family,rho",
    [("trig", 0.0), ("trig", 1.0), ("trig", -1.0), ("h0", 0.0), ("hplus", 1.0), ("affine", 0.0)],
)
def test_constant_curvature_parameters_rejected(family, rho):
    with pytest.raises(ConstantCurvature):
        make_model(family, rho, 1.0)


@pytest.mark.parametrize("family,rho", [("trig", 1.3), ("trig", -0.2), ("h0", -1.0), ("affine", -0.5)])
def test_out_of_range_rho_rejected(family, rho):
    with pytest.raises(DomainError):
        make_model(family, rho, 1.0)


def test_hminus_accepts_any_real_rho():
    for rho in (-2.0, 0.0, 0.5, 3.0):
        make_model("hminus", rho, 1.0)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        make_model("spherical", 0.5, 1.0)


def test_trig_kernel_at_equator():
    # x = pi/2: weight is 1, so a = b = 1 and c = xi
    model = make_model("trig", 0.5, 0.7)
    a, b, c = kernel(model, math.pi / 2)
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(0.7, abs=1e-15)


def test_h0_kernel_at_unit_radius():
    model = make_model("h0", 0.8, 1.1)
    a, b, c = kernel(model, 1.0)
    w = 1.0 + 0.8
    assert a == pytest.approx(1.0 / w)
    assert b == pytest.approx(1.0 / w)
    assert c == pytest.approx(1.1 / w)


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_formula_agrees_in_cmath_and_numpy(family):
    # one formula serves both namespaces: a Python complex (the flow's
    # complex step) runs on cmath, a complex array on numpy
    model = _VERIFY_MODELS[family]
    q1 = _random_points(model, np.random.default_rng(13), 5000).q1 + 1e-30j
    want = np.array(kernel(model, q1))
    got = np.array([kernel(model, complex(z)) for z in q1]).T
    for part in (np.real, np.imag):
        gap = np.abs(part(got) - part(want))
        assert np.all(gap <= 8.0 * np.spacing(np.abs(part(want)))), family


@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_on_python_scalars_returns_python_numbers(family):
    # one namespace rule (`_ns`): a Python float runs on math and gives
    # Python floats, a Python complex runs on cmath, and a numpy scalar or
    # array stays numpy.  math and numpy round sinh, cosh and pow apart by an
    # ulp, which hplus's b = cosh^2 / (W sinh^2) compounds to five (8.6e-16
    # relative) on these points.
    model = _VERIFY_MODELS[family]
    q1 = _random_points(model, np.random.default_rng(43), 64).q1
    want = kernel(model, q1)
    for i, q in enumerate(q1.tolist()):
        got = kernel(model, q)
        assert all(type(v) is float for v in got), family
        for v, w in zip(got, want):
            assert abs(v - w[i]) <= 1e-15 * abs(w[i]), family
        assert all(type(v) is complex for v in kernel(model, complex(q, 1e-30))), family
        assert all(type(v) is np.float64 for v in kernel(model, np.float64(q))), family


@pytest.mark.parametrize("family,rho,q1,error", [
    ("h0", 0.8, 0.0, ZeroDivisionError),          # b = 1/(r^2 W) on the axis
    ("hplus", 2.0, 0.0, ZeroDivisionError),       # b = a / sinh^2 on the axis
    ("hplus", 2.0, 360.0, OverflowError),         # sinh^2 past the float range
    ("hminus", 0.0, 0.0, ZeroDivisionError),      # the edge sinh x + rho = 0
])
def test_scalar_kernel_raises_where_numpy_warns(family, rho, q1, error):
    model = make_model(family, rho, 1.1)
    with pytest.raises(error):
        kernel(model, q1)
    with pytest.warns(RuntimeWarning):
        values = kernel(model, np.float64(q1))
    assert not all(np.isfinite(values))


def test_hamiltonian_direct_substitution():
    model = make_model("trig", 0.5, 0.0)
    pt = make_point(model, math.pi / 2, 0.3, 1.0, 1.0)
    assert hamiltonian(model, pt) == pytest.approx(1.0, abs=1e-14)


def test_hamiltonian_matches_metric_everywhere():
    rng = np.random.default_rng(7)
    for family, q1_rng in (("trig", (0.4, 2.7)), ("h0", (0.3, 2.5)),
                           ("hplus", (0.3, 2.2)), ("affine", (0.3, 2.5))):
        model = make_model(family, 0.6 if family != "hplus" else 2.0, 0.9)
        for _ in range(50):
            q1 = rng.uniform(*q1_rng)
            pt = PhasePoint(q1, rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-2, 2))
            g11, g22 = metric_components(model, q1)
            rebuilt = 0.5 * (pt.p1**2 / g11 + pt.p2**2 / g22) + 0.5 * kernel(model, q1)[2]
            assert hamiltonian(model, pt) == pytest.approx(rebuilt, rel=1e-13, abs=1e-13)


def test_curvature_against_brioschi_oracle():
    for family, grid in (("trig", np.linspace(0.4, 2.7, 9)),
                         ("h0", np.linspace(0.3, 2.4, 9)),
                         ("hplus", np.linspace(0.3, 2.1, 9)),
                         ("affine", np.linspace(0.4, 2.4, 9))):
        model = make_model(family, 0.7 if family != "hplus" else 1.8, 1.2)
        for q1 in grid:
            assert scalar_curvature(model, q1) == pytest.approx(
                brioschi_curvature(model, q1), abs=1e-12
            )


@pytest.mark.parametrize("family", FAMILIES)
def test_curvature_oracle_near_each_chart_edge(family):
    # the circles shrink with the chart margin; a five-point stencil read
    # 2.1e-2 relative off here
    model = _VERIFY_MODELS[family]
    lo, hi = FAMILY[family].chart(model.rho)
    for q1 in [lo + 1e-3] + ([hi - 1e-3] if hi < math.inf else []):
        assert brioschi_curvature(model, q1) == pytest.approx(scalar_curvature(model, q1), rel=1e-8)


def test_curvature_oracle_refuses_outside_the_chart_and_past_overflow():
    with pytest.raises(ChartError):
        brioschi_curvature(_VERIFY_MODELS["trig"], -0.1)
    # hplus: G'^2 overflows past chi of about 170; the oracle raises there
    # and never hands back inf or NaN
    model = _VERIFY_MODELS["hplus"]
    for chi in (100.0, 170.0):
        assert brioschi_curvature(model, chi) == pytest.approx(scalar_curvature(model, chi), abs=1e-12)
    for chi in (180.0, 300.0):
        with pytest.raises(ConvergenceFailure):
            brioschi_curvature(model, chi)


def test_curvature_not_constant():
    model = make_model("trig", 0.5, 0.7)
    vals = [scalar_curvature(model, x) for x in (0.8, 1.4, 2.1)]
    assert max(vals) - min(vals) > 1e-3


def test_embedding_lands_on_hyperboloid():
    for family in ("trig", "hplus", "affine"):
        model = make_model(family, 0.6 if family != "hplus" else 2.0, 0.9)
        for q1 in (0.5, 1.1, 1.9):
            for q2 in (-0.7, 0.0, 1.3):
                x1, x2, x3 = embed(model, q1, q2)
                assert x1**2 + x2**2 - x3**2 == pytest.approx(-1.0, abs=1e-12)
                assert x3 > 0


def test_h0_embedding_is_polar_plane():
    model = make_model("h0", 0.8, 1.1)
    x1, x2, x3 = embed(model, 1.5, 0.6)
    assert x1 == pytest.approx(1.5 * math.cos(0.6))
    assert x2 == pytest.approx(1.5 * math.sin(0.6))
    assert x3 == 0.0


def test_hminus_has_no_global_embedding():
    model = make_model("hminus", 0.6, 0.9)
    with pytest.raises(NoGlobalStructure):
        embed(model, 0.5, 0.0)
    with pytest.raises(NoGlobalStructure):
        generators(model, PhasePoint(0.5, 0.0, 0.1, 0.2))


def test_hminus_curvature_blows_up_at_the_wall():
    model = make_model("hminus", 0.6, 0.9)
    near = math.asinh(1e-3 - model.rho)
    far = math.asinh(1.0 - model.rho)
    assert abs(scalar_curvature(model, near)) > 1e6 * abs(scalar_curvature(model, far))


def test_make_point_validates_chart():
    model = make_model("trig", 0.5, 0.7)
    with pytest.raises(ChartError):
        make_point(model, -0.1, 0.0, 1.0, 1.0)
    with pytest.raises(ChartError):
        make_point(model, 3.5, 0.0, 1.0, 1.0)
    model_h = make_model("h0", 0.8, 1.1)
    with pytest.raises(ChartError):
        make_point(model_h, 0.0, 0.0, 1.0, 1.0)


def test_generator_count_and_linearity_in_momenta():
    # each generator is linear in momenta: doubling p doubles the value
    for family in ("trig", "h0", "hplus", "affine"):
        model = make_model(family, 0.6 if family != "hplus" else 2.0, 0.9)
        pt = PhasePoint(1.0, 0.4, 0.7, -0.3)
        double = PhasePoint(1.0, 0.4, 1.4, -0.6)
        g1 = generators(model, pt)
        g2 = generators(model, double)
        assert len(g1) == 3
        for a, b in zip(g1, g2):
            assert b == pytest.approx(2.0 * a, rel=1e-12, abs=1e-12)

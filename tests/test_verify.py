from koenigs.verify import run_suite


def test_full_suite_has_no_failures():
    results = run_suite("all")
    assert [r for r in results if r.status == "FAIL"] == []
    assert [r.name for r in results if r.status == "XFAIL"] == ["acceptance.fig1_third_anchor"]


def test_tol_cannot_loosen_a_gate():
    results = {r.name: r for r in run_suite("quantum", tol=1.0)}
    assert "(gate 1e-08)" in results["quantum.spectrum_vs_shooting"].detail

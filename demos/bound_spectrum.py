"""Bound spectra for the two quantized families.

Lists every bound level of an Hyp0 and an Hyp+ model, shows the window
count law, and confirms one level by an independent Sturm-Liouville
eigensolve of the radial equation.

Run:  python3 demos/bound_spectrum.py
"""

import math

from koenigs import count_bound_levels, make_model, shoot_eigenvalue, spectrum


def show(model, n_max, m_max):
    rho, xi = model.rho, model.xi
    print(f"\n{model.family}  rho = {rho}, xi = {xi}")
    if model.family == "hplus":
        window = math.sqrt((xi + 0.25) / rho)
        print(f"bound window: J_tilde < {window:.4f}")
    levels = spectrum(model, n_max, m_max)
    for lv in levels:
        if lv.m < 0:
            continue  # the m and -m levels are degenerate
        print(f"  (n={lv.n}, m={lv.m})  J_tilde = {lv.J_tilde:.1f}  E = {lv.E:.10f}")
    if model.family == "hplus":
        # the window makes the count finite; the Hyp0 well holds infinitely many
        for m in range(m_max + 1):
            print(f"  m = {m}: {count_bound_levels(model, m)} bound level(s)")
    return {(lv.n, lv.m): lv for lv in levels}


def main():
    h0 = make_model("h0", 0.8, 1.1)
    levels = show(h0, 3, 2)

    # independent check: solve the (2, 1) radial problem numerically and compare
    target = levels[(2, 1)]
    shot = shoot_eigenvalue(h0, 1, 2)
    print(f"\neigensolve for (n=2, m=1): E = {shot:.10f}")
    print(f"closed form:               E = {target.E:.10f}")
    print(f"difference: {abs(shot - target.E):.2e}")

    hplus = make_model("hplus", 0.5, 7.75)
    show(hplus, 3, 3)


if __name__ == "__main__":
    main()

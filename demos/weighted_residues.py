"""Weighted projective spaces through exact univariate residues.

Lattice-point counts and the whole Hilbert function of a weighted
projective fan collapse to residues of one rational function in one
variable; form-sheaf Euler characteristics need one extra series variable.
This script walks from a bare residue up to the Hodge diamond of a
weighted hypersurface, including a quasi-smooth surface sitting inside a
singular ambient space.

Run:  python3 demos/weighted_residues.py
"""

from toric_hodge import (
    residue_infinity,
    residue_zero,
    wps_chi_all,
    wps_fan,
    wps_hilbert,
    wps_hodge,
    wps_lattice_count,
)
from toric_hodge.cli import render_diamond
from toric_hodge.fans import is_regular, is_simplicial


def main():
    # an integrand is its numerator {exponent: coeff} over prod_j (1 - x^{w_j})
    print("res_0 of x^-3/(1-x)^2 =", residue_zero({-3: 1}, (1, 1)))
    print("res_0 + res_inf of 1/x =", residue_zero({-1: 1}, ())
          + residue_infinity({-1: 1}, ()))
    print()

    print("dilated-simplex counts from residues:")
    for s in range(4):
        # {q >= -(s,s), q1+q2 <= s} is a translate of the 3s-fold unit simplex
        print(f"  simplex dilated {3 * s}-fold:",
              wps_lattice_count((1, 1, 1), (s, s, s)), "lattice points")
    print()

    print("Hilbert function of the line via residues:",
          [wps_hilbert((1, 1), (d, 0)) for d in range(-3, 4)])
    print()

    w = (1, 4, 2, 3)
    fan = wps_fan(w)
    print(f"fan of P{w}: simplicial = {is_simplicial(fan)}, "
          f"smooth = {is_regular(fan)}")
    print("chi of the p-form sheaves of the ambient space:",
          wps_chi_all(w, [], "alt", 3))
    print()

    print("degree-12 quasi-smooth surface in P(1,4,2,3):")
    print(render_diamond(wps_hodge(w, [12])))
    print()
    print("quartic surface in ordinary 3-space for comparison (K3):")
    print(render_diamond(wps_hodge((1, 1, 1, 1), [4])))


if __name__ == "__main__":
    main()

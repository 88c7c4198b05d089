"""Recovering the entire eigenfunction from the sphere whose radius
equals the eigenvalue index.

In the paper, once the ball is filled, each Fourier coefficient on the
weight-h sphere is a character-weighted sum of orthogonal-face totals,
and each total collapses to a closed form in the local distribution
inside a face the ball already covers.  reconstruct_full reaches the same
function without the ball: it divides the sphere values by the exact
spectrum of the square sphere restriction T = [chi_a(x)], whose
eigenvalues are (-1)^j q^j times the nondegeneracy sums.

Run:  python demos/06_full_reconstruction.py
"""

import numpy as np

import hamrecon as hr

q, n, h = 3, 5, 3
params = hr.SchemeParams(q, n)

truth = hr.random_eigenfunction(params, h, seed=11)
sphere = hr.SphereData.from_function(truth, h)
print(f"(q, n) = ({q}, {n}), h = {h}: {sphere.domain_ranks().size} sphere values"
      f" -> all {params.size} vertices\n")

recovered = hr.reconstruct_full(sphere, h)
print(f"max error everywhere      : {np.max(np.abs(recovered.values - truth.values)):.2e}")
print(f"output neighbor-sum check : {hr.eigen_residual(recovered, h):.2e}")

print("\nthe orthogonal-face totals behind the paper's Fourier step, spot-checked")
print("against direct summation over the orthogonal faces:")
print(f"  max closed-form vs direct discrepancy: {hr.eta_discrepancy(truth, h):.2e}")

beta = (1, 0, 2, 0, 0)
chi = hr.character(params, beta)
chi_back = hr.reconstruct_full(hr.SphereData.from_function(chi, 2), 2)
print(f"\na character comes back exactly: {np.max(np.abs(chi_back.values - chi.values)):.2e}")

zero = hr.SphereData(params, h, np.zeros(params.size, dtype=complex), eigenindex=h)
print(f"zero sphere data -> zero function (the sphere is a reconstructive set): "
      f"{np.max(np.abs(hr.reconstruct_full(zero, h).values)):.1f}")

"""Characters, the q-ary Fourier transform, and eigenspace projections.

Every character chi_b(g) = xi^<b,g> is an eigenfunction of the hypercube
with eigenvalue index wt(b); a function lies in the h-th eigenspace
exactly when its transform vanishes off the weight-h sphere.  So the
projector onto it is a Fourier mask, which the last part compares with
the scheme idempotent built from the distance operators.

Run:  python demos/02_eigenfunctions_and_fourier.py
"""

import numpy as np

import hamrecon as hr
from hamrecon.scheme import weight_table

params = hr.SchemeParams(3, 4)

beta = (1, 0, 2, 0)
chi = hr.character(params, beta)
print(f"character at beta={hr.word_text(beta)}: eigenindex {chi.eigenindex}")
print(f"  neighbor-sum residual: {hr.eigen_residual(chi, 2):.2e}")

ghat = hr.fourier_transform(chi)
peak = int(np.argmax(np.abs(ghat.values)))
print(f"  transform peaks at rank {peak} = word {hr.word_text(hr.rank_word(params, peak))}"
      f" with value {ghat.values[peak]:.1f} (= q^n), zero elsewhere")

print("\nseeded random eigenfunction, h = 2:")
f = hr.random_eigenfunction(params, 2, seed=42)
print(f"  residual            : {hr.eigen_residual(f, 2):.2e}")
off = np.abs(hr.fourier_transform(f).values[weight_table(3, 4) != 2])
print(f"  spectrum off W_2    : {off.max():.2e}")
for d in range(5):
    lam = hr.krawtchouk_value(3, d, 2, 4)
    err = np.max(np.abs(hr.apply_distance_operator(f, d).values - lam * f.values))
    print(f"  D_{d} f = {lam:4d} * f    : {err:.2e}")

print("\nthe projector onto V_h, a Fourier mask, against the scheme idempotent")
print("q^-n sum_i P_h(i; n) D_i written in the distance matrices:")
rng = np.random.default_rng(0)
g = hr.VertexFunction(params, rng.normal(size=params.size) + 1j * rng.normal(size=params.size))
spheres = [hr.apply_distance_operator(g, i).values for i in range(5)]
for h in range(5):
    a = hr.project_eigenspace(g, h)
    b = sum(hr.krawtchouk_value(3, h, i, 4) * s for i, s in enumerate(spheres)) / params.size
    print(f"  h={h}: paths agree to {np.max(np.abs(a.values - b)):.2e},"
          f" residual {hr.eigen_residual(a, h):.2e}")

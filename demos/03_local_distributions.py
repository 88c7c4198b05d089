"""Local distributions in faces and the orthogonal-face transfer.

The distance-classified sums of an eigenfunction over a face determine
the sums over the orthogonal face through exact integer coefficients.
One closed form, a Krawtchouk-type series, gives them for every face
dimension k <= h.  Dimensions k > h have no formula and are refused.

Run:  python demos/03_local_distributions.py
"""

import itertools

import numpy as np

import hamrecon as hr

q, n, h = 3, 4, 3
params = hr.SchemeParams(q, n)
f = hr.random_eigenfunction(params, h, seed=1)
anchor = (0, 1, 2, 0)

print(f"eigenfunction with h={h} on the ({q}, {n}) cube, anchor {hr.word_text(anchor)}\n")

for k in range(n + 1):
    if k > h:
        print(f"k={k}: no formula for k > h")
        continue
    positions = tuple(range(1, k + 1))
    dist = hr.local_distribution(f, positions, anchor)
    moved = hr.transfer_orthogonal(dist, h)
    direct = hr.local_distribution(f, hr.complement(positions, n), anchor)
    err = np.max(np.abs(moved.components - direct.components))
    print(f"k={k}: transfer vs direct enumeration: {err:.2e}")
    table = hr.coefficient_table(q, n, h, k)
    print(f"   coefficient columns r_ij (j down, i across): "
          + "; ".join("[" + ", ".join(str(x) for x in column) + "]" for column in table))

print("\nthe identity behind it, checked coefficientwise on cross-multiplied")
print("polynomials for every face through a random anchor:")
worst = 0.0
for k in range(n + 1):
    for positions in itertools.combinations(range(1, n + 1), k):
        worst = max(worst, hr.verify_face_relation(f, positions, anchor, h))
print(f"  max residual over all 2^{n} faces: {worst:.2e}")

broken = f.copy()
broken.values[hr.word_rank(params, anchor)] += 0.05
print(f"  same check after a point perturbation: "
      f"{hr.verify_face_relation(broken, (1, 2), anchor, h):.2e}  (identity fails)")

print("\nsplitting a distribution at a weight-k anchor by contributor weight:")
anchor2 = (1, 2, 0, 0)
sigma, delta = hr.sigma_delta_split(f, anchor2)
v = hr.local_distribution(f, (1, 2), anchor2).components
print(f"  sigma (weight-k words) : {np.round(sigma, 4)}")
print(f"  delta (lighter words)  : {np.round(delta, 4)}")
print(f"  sigma + delta == v     : {np.max(np.abs(sigma + delta - v)):.2e}")

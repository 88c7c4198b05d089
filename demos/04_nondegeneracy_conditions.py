"""The exact solvability conditions for layer-by-layer recovery.

Recovering the weight-k layer inverts M = sum_i r_{i,d-k} D_i on the
(q-1)-ary k-dimensional sub-scheme; M is invertible iff none of its k+1
eigenvalues ("nondegeneracy sums") vanish.  Both sides are exact here:
the sums are a tuple of integers, one per sub-scheme level, and
singularity of the densely built M is decided by certified modular rank
computation.

Run:  python demos/04_nondegeneracy_conditions.py
"""

import hamrecon as hr

print("scan of the desk grid (q^n <= 4096): cells whose conditions fail\n")
print("   q  n  h  d   kind      detail")
for q in (3, 4, 5):
    for n in (3, 4, 5, 6):
        if q**n > 4096:
            continue
        for h in range(n + 1):
            for d in range(h + 1):
                report = hr.check_conditions(q, n, h, d)
                if report.passed:
                    continue
                if not report.origin_ok:
                    detail = f"P_{d}({h}; {n}) = 0"
                    kind = "origin"
                else:
                    kind = "layer"
                    detail = ", ".join(f"sum(k={k}, l={l}) = 0" for k, l in report.failures)
                print(f"   {q}  {n}  {h}  {d}   {kind:6s}    {detail}")

print("\none failing layer in detail: q=3, n=4, h=3, d=2, k=1")
sums = hr.eigen_sums(3, 4, 3, 2, 1)
print(f"  nondegeneracy sums by sub-scheme level: {[str(s) for s in sums]}")
matrix = hr.dense_layer_matrix(3, 4, 3, 2, 1)
print(f"  dense layer operator: {[[str(x) for x in row] for row in matrix]}")
print(f"  exactly singular?    {hr.is_singular(matrix)}")
vec = hr.kernel_vector(matrix)
print(f"  certified kernel vector: {[str(x) for x in vec]}")

print("\nand a healthy one: q=3, n=4, h=2, d=2, k=1")
sums_ok = hr.eigen_sums(3, 4, 2, 2, 1)
print(f"  sums: {[str(s) for s in sums_ok]}; singular? "
      f"{hr.is_singular(hr.dense_layer_matrix(3, 4, 2, 2, 1))}")

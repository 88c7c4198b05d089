"""The exact solvability conditions for layer-by-layer recovery.

Recovering the weight-k layer inverts M = sum_i r_{i,d-k} D_i on the
(q-1)-ary k-dimensional sub-scheme.  M is diagonal on the characters of
that sub-scheme: a character of weight l (l nonzero frequencies) is an
eigenvector with eigenvalue sums[l], the nondegeneracy sum, an exact
integer from ``eigen_sums``.  So a zero sum means a singular layer, and
every character of that weight lies in its kernel; no matrix is built.

Run:  python demos/04_nondegeneracy_conditions.py
"""

import itertools
import math

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
q, k = 3, 1
sums = hr.eigen_sums(q, 4, 3, 2, k)
for level, value in enumerate(sums):
    count = math.comb(k, level) * (q - 2) ** level
    verdict = "in the kernel" if value == 0 else "nonzero"
    print(f"  weight {level}: {count} character(s), eigenvalue {value} -> {verdict}")
# over alphabet q - 1 = 2 a character of frequency b is (-1)^(b.x) on the
# relabeled full-support points x (digit v of the face read as v - 1)
points = list(itertools.product(range(q - 1), repeat=k))
for b in itertools.product(range(q - 1), repeat=k):
    if sums[sum(1 for x in b if x)] == 0:
        values = [(-1) ** sum(bi * xi for bi, xi in zip(b, x)) for x in points]
        print(f"  kernel character b={b}: {values} on the points {points}")

print("\nand a healthy one: q=3, n=4, h=2, d=2, k=1")
sums_ok = hr.eigen_sums(3, 4, 2, 2, 1)
print(f"  sums: {[str(s) for s in sums_ok]}; singular? {0 in sums_ok}")

"""Exact Krawtchouk values: the defining sum, its generating-polynomial
oracle, and the Hamming-graph eigenvalues P_1(h; n) among them.

Run:  python demos/01_krawtchouk_tables.py
"""

import hamrecon as hr

q, N = 3, 6

print(f"P_i(t; {N}) for alphabet q = {q} (rows i, columns t):")
for i, row in enumerate(hr.krawtchouk_table(q, N)):
    print(f"  i={i}: " + " ".join(f"{v:6d}" for v in row))

print("\nThe same numbers fall out of (x - y)^t (x + (q-1)y)^(N-t):")
for t in range(N + 1):
    assert hr.generating_coefficients(q, t, N) == [
        hr.krawtchouk_value(q, i, t, N) for i in range(N + 1)
    ]
print("  exact agreement for every t -- two independent routes, one table")

print("\nD_1 is the adjacency matrix, so the degree-1 values P_1(h; n) are the")
print("graph eigenvalues (q-1)n - qh:")
n = 5
for h in range(n + 1):
    lam = hr.krawtchouk_value(q, 1, h, n)
    assert lam == (q - 1) * n - q * h
    print(f"  h={h}: lambda = {lam}")

print("\nInteger zeros of P_d(h; n) decide whether the center value is")
print("recoverable from a sphere sum; the zeros on the desk grid (q=3):")
for n in range(3, 7):
    for h in range(n + 1):
        for d in range(h + 1):
            if hr.krawtchouk_value(q, d, h, n) == 0:
                print(f"  P_{d}({h}; {n}) = 0   -> no origin recovery at radius {d}")

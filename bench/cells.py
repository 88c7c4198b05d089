"""The cells of each workload.

Kept apart from ``workloads.py``, which imports hamrecon and numpy, so
that ``run.py`` can name the full-cap cells without importing either.
"""

FULL_CAP_CELLS = ((4, 8, 6), (3, 10, 8), (3, 10, 10), (4, 8, 8))  # (q, n, h), d = h
BALL_QN = ((3, 10), (4, 8))
BALL_RADII = (1, 2, 3)
# One cell only: with two cells of unequal cost in equal numbers, the median
# operation falls in the gap between them.
CLI_CELLS = ((4, 8, 2),)  # (q, n, h), d = h

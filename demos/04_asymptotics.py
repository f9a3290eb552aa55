"""Limiting constants and coefficient asymptotics for symmetric biases.

When the two residue classes are symmetric (b = m - a), the bias count is
asymptotically a fixed fraction of the total count.  The fraction is 1/2
for distinct partitions and a digamma-difference constant for partitions
and overpartitions.  Exact series at n up to 2000 show the ratios drifting
toward those constants, and a Tauberian main-term formula reproduces the
classical growth of p(n), q(n), and the overpartition count.
"""

import math

from qbias import (
    PROFILE_PARTITIONS,
    bias_constant,
    convergence_report,
    digamma_diff,
    tauberian_predict_log,
    total_weighted_series,
)

print("digamma difference at a/m = 1/2 (should be pi):", digamma_diff(1, 2))

for (a, m) in [(1, 3), (1, 4), (2, 5)]:
    c10 = bias_constant(a, m, "10").value
    print(f"limit constants (a={a}, m={m}): flavor 01 -> 0.5, "
          f"flavors 10/11 -> {c10:.12f}")

print("\nexact-ratio drift for (1,4), partition weights:")
rep = convergence_report(1, 4, "10", [200, 400, 800])
for (n, ratio, err) in rep.rows:
    print(f"  n={n:>4}: ratio {ratio:.6f}, distance to limit {err:.6f}")
print("strictly decreasing:", rep.trend_ok)

print("\nTauberian main term vs exact p(n):")
exact = total_weighted_series(1, 0, 400)
for n in (100, 200, 400):
    approx = math.exp(tauberian_predict_log(PROFILE_PARTITIONS, n))
    print(f"  n={n}: predicted/actual = {approx / int(exact.coeffs[n]):.4f}")

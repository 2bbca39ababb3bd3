"""The inequality harness in the classical limit.

L^p norms away from p = 2 are only available at q = 1, where they come
from Euler-angle product quadrature on the classical group; the
Fourier-side quantities stay exact at every q.
"""

import random

from qsu2.qarith import QPoint
from qsu2.algebra import random_element
from qsu2.peterweyl import PWTable
from qsu2.fourier import (
    SU2Grid, lp_norm_classical, inequality_ratio, paley_constant,
)

pw = PWTable(8)
grid = SU2Grid(48, 48, 48)
one = QPoint(1)
rng = random.Random(3)

from qsu2.algebra import A, UNIT
print("quadrature sanity: ||1||_p =", lp_norm_classical(UNIT, 3, grid))
print("||a||_2 =", lp_norm_classical(A, 2, grid), " (= sqrt(1/2))")

print("\nHausdorff-Young ratios (constant 1, so ratio <= 1):")
for p in (4 / 3, 3 / 2, 2.0):
    worst = 0.0
    for _ in range(10):
        f = random_element(rng, 3, 4)
        r = inequality_ratio("hausdorff-young", f, {"p": p}, pw, one, grid)
        worst = max(worst, r["ratio"])
    print(f"  p = {p:4.2f}: max ratio over 10 samples = {worst:.8f}")

print("\nPaley constant for phi(l) = 1/(2l+1), spins up to 2:")
phi = {tl: 1.0 / (tl + 1) for tl in range(0, 5)}
print("  M_phi =", paley_constant(phi, one))

print("\nPaley and Hardy-Littlewood ratios (reported, not asserted):")
lam = {tl: tl + 1 for tl in range(0, 8)}
f = random_element(rng, 3, 4)
for kind, params in [
        ("paley", {"p": 1.5, "phi": phi}),
        ("hy-paley", {"p": 1.5, "b": 2.0, "phi": phi}),
        ("hardy-littlewood", {"p": 1.5, "beta": 3.0, "lambda_weights": lam}),
        ("cor-5.8", {"p": 1.5, "beta": 3.0, "lambda_weights": lam})]:
    r = inequality_ratio(kind, f, params, pw, one, grid)
    print(f"  {kind:17s} lhs = {r['lhs']:.6f}  rhs = "
          f"{r['rhs_without_constant']:.6f}  ratio = {r['ratio']:.6f}")

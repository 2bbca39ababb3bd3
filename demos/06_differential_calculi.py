"""The 3D and 4D calculi, the geometric Dirac operator, the q-Laplacian.

The exterior derivative and the bimodule commutation are pinned on the
generators; the per-spin symbols are closed-form ladder compositions,
and the two computation routes agree exactly.  The geometric Dirac
block diagonalizes with q-deformed eigenvalues, and the theta-direction
partial is the q-Laplacian with eigenvalues [l][l+1].
"""

import random
from fractions import Fraction

from qsu2.qarith import QPoint, q_int, evaluate
from qsu2.algebra import A, B, random_element
from qsu2.peterweyl import PWTable
from qsu2.calculus import (
    THREE_D, FOUR_D, calculus, OneForm, geometric_dirac_eigenvalue_report,
    dirac_eigenvalues, q_laplacian, q_laplacian_metric, laplacian_eigenvalue,
    admissibility_check,
)

pw = PWTable(8)
c3 = calculus(THREE_D, pw)
c4 = calculus(FOUR_D, pw)
half = QPoint(Fraction(1, 2))

print("3D: d(a) =", c3.exterior_d(A))
print("4D: d(a) =", c4.exterior_d(A))
print("3D bimodule: e+ . a =", c3.right_multiply(OneForm({"e+": 1}), A))
print("4D bimodule: [eb, b] piece:",
      c4.right_multiply(OneForm({"eb": 1}), B))

rng = random.Random(5)
f = random_element(rng, 3, 2)
g = random_element(rng, 3, 2)
dfg = c4.exterior_d_generators(f * g)
leibniz = (c4.right_multiply(c4.exterior_d_generators(f), g)
           + c4.exterior_d_generators(g).left_multiply(f))
print("Leibniz on a random pair, exactly:", dfg == leibniz)
print("symbol route == generator route:", c4.exterior_d(f * g) == dfg)

print("\ngeometric Dirac blocks (eigenvalues of D/lambda):")
for tl in (1, 2, 3):
    rep = geometric_dirac_eigenvalue_report(tl, half)
    closed = {f"{float(evaluate(v, half)):+.6f}": m
              for v, m in dirac_eigenvalues(tl)}
    print(f"  l = {Fraction(tl,2)}: {closed}  "
          f"exact check {rep['passed']}")

print("\nq-Laplacian eigenvalues [l][l+1]:")
for tl in range(0, 5):
    t = pw.entry(tl, -tl, -tl)
    ok_theta = q_laplacian(t, pw) == t.scale(laplacian_eigenvalue(tl))
    ok_metric = q_laplacian_metric(t, pw) == t.scale(laplacian_eigenvalue(tl))
    print(f"  l = {Fraction(tl,2)}: [l][l+1] = {laplacian_eigenvalue(tl)}"
          f"   theta route {ok_theta}, metric route {ok_metric}")

print("\ngrowth exponents of the symbol families at q = 1/2 (l <= 8):")
for kind in (THREE_D, FOUR_D):
    rep = admissibility_check(kind, half, twice_l_max=16)
    for key, row in sorted(rep.items(), key=lambda t: str(t[0])):
        print(f"  {kind} {str(key):30s} slope {row['gamma_fit']:6.3f} "
              f"claim {row['claimed']}")

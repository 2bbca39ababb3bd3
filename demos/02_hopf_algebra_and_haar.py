"""The polynomial Hopf *-algebra and its Haar state.

Elements are normal-form noncommutative polynomials in the generators
a, b, c, d; multiplication rewrites to the PBW order, the coproduct is
the matrix-coalgebra rule, and the Haar state is zero off the balanced
component and the closed form h((bc)^k) = (-1)^k/[k+1]_q on it.
"""

from qsu2.qarith import Q, QPoint, q_int
from qsu2.algebra import (
    A, B, C, D, UNIT, multiply, coproduct, counit, antipode, star, haar,
    l2_inner,
)

# defining relations, normal forms
print("b a            =", multiply(B, A), "   (= q ab)")
print("a d            =", multiply(A, D), "   (determinant relation)")
print("d a            =", multiply(D, A))

# the *-structure makes the generator matrix unitary
print("a* =", star(A), "  b* =", star(B))
print("a a* + b b* = 1:", A * star(A) + B * star(B) == UNIT)

# coproduct and counit on a: the matrix-coalgebra rule
print("Delta(a) =", coproduct(A))
print("eps(a) =", counit(A), " eps(b) =", counit(B))
print("S(a) =", antipode(A), "  S(b) =", antipode(B))

# the Haar state: zero off the balanced component, exact values on it
print("h(1)    =", haar(UNIT))
print("h(a)    =", haar(A))
print("h(bc)   =", haar(B * C), "   -> at q=1:", haar(B * C).evaluate(QPoint(1)))
print("h((bc)^2) == 1/[3]_q:", haar(B * C * B * C) == 1 / q_int(6))
print("h(aa*)  =", haar(A * star(A)), "  (= q/[2]_q)")
print("h(aa*) == q/[2]:", haar(A * star(A)) == Q / q_int(4))

# the L2 inner product (f, g) = h(f g*)
print("(b, b) =", l2_inner(B, B), " (= q^-1/[2]_q)")
print("(a, a^2) =", l2_inner(A, A * A), " (distinct spins are orthogonal)")

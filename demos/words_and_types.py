"""Words with prescribed letter frequencies, and their q-analogs.

A type class is the set of words of length n using letter i exactly c_i
times. Its size is the multinomial coefficient, and replacing factorials
with q-factorials turns the same formula into a count of subspace flags
over a finite field. This script walks through both, checking the small
cases against direct enumeration.
"""

from orbit_entropy import oracle
from orbit_entropy.exact import IntPolynomial, multinomial, q_multinomial

print("== type classes ==")
for counts in ((2, 2), (1, 2, 3), (4, 1)):
    n = sum(counts)
    closed = multinomial(n, counts)
    brute = oracle.count_type_class(n, counts)
    print(f"  words of length {n} with frequencies {counts}: "
          f"{closed} (enumeration agrees: {brute == closed})")

print()
print("== the q-analog ==")
print("  replacing k! by (q^k - 1)...(q - 1) counts flags of subspaces:")
for q in (2, 3):
    for counts in ((1, 1), (2, 2), (1, 2)):
        n = sum(counts)
        print(f"  q={q}, shape {counts}: {q_multinomial(n, counts, q)}")

print()
print("  at shape (1,1,...,1) this counts complete flags; over F_2 in")
print("  dimension 3 there are", q_multinomial(3, (1, 1, 1), 2), "of them")

print()
print("== brackets as polynomials ==")
print("  each factor (q^j - 1)/(q - 1) is a polynomial 1 + q + ... + q^(j-1);")
print("  products of brackets are length generating functions later on")
for j in (2, 3, 4):
    poly = IntPolynomial((1,) * j)
    print(f"  bracket {j}: coefficients {poly.coeffs}, value at q=2 is {poly(2)}")

product = IntPolynomial((1,) * 2) * IntPolynomial((1,) * 3)
print(f"  bracket 2 times bracket 3: {product.coeffs}")

"""The LAPACK eigensolver (eigh) cross-checked by exact integer char polys."""

import numpy as np

from signedspectra import complete_signed
from signedspectra.families import extremal_cubic, extremal_graph, extremal_partition
from signedspectra.polynomial import IntPolynomial, real_roots
from signedspectra.spectra import (
    char_poly_exact,
    check_quotient_containment,
    eigenvalues_sym,
    quotient_matrix,
    root_multiplicity_exact,
)

n = 9
g = extremal_graph(n)
rep = eigenvalues_sym(g.adjacency_matrix())
print(f"extremal graph, n={n}")
print("numerical eigenvalues:", np.round(rep.eigenvalues, 6))
print("residual:", rep.residual)

p = char_poly_exact(g)
print("\nexact char poly:", p)
expected = (IntPolynomial([1, 1]) ** (n - 4)) * IntPolynomial([-1, 1]) * extremal_cubic(n)
print("factors as (x+1)^(n-4) (x-1) cubic:", p == expected)
print("multiplicity of -1:", root_multiplicity_exact(p, -1))

# the 4x4 equitable quotient carries the extremal eigenvalue
A = g.adjacency_matrix()
Q = quotient_matrix(A, extremal_partition(n)).matrix
print("\nequitable quotient:")
print(Q)
print("quotient spectrum inside the full spectrum:", check_quotient_containment(A, Q))
print("cubic roots:", real_roots(extremal_cubic(n)))

# index vs spectral radius on the all-negative complete graph
k = complete_signed(6, -1)
krep = eigenvalues_sym(k.adjacency_matrix())
print("\n(K6,-) index:", round(krep.lambda1, 6), " spectral radius:", round(max(abs(krep.eigenvalues)), 6))

"""Exact-arithmetic symmetrized decomposable tensors over the rationals.

Vanishing (Gamas) and equality (da Cruz-Dias da Silva) of symmetrized
decomposable tensors, decided two independent ways: brute-force
group-algebra computation on sparse rational tensors, and the
combinatorial column-system conditions, cross-validated against each
other.
"""

__version__ = "0.1.0"

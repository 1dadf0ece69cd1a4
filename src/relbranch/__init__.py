"""Relative branching laws for rank-one unitary families.

Exact parameter bookkeeping (half-integers, validity, characters), the
coupling predicates, period integrals in closed form and by quadrature, and
independent combinatorial and numerical oracles that cross-check the
closed-form claims at desk scale.
"""

__version__ = "0.1.0"

"""Exact Fock-space Clifford calculus, Pluecker/KP ideals, shuffle
straightening, and finite-field Grassmannian experiments."""

__version__ = "0.1.0"

DEFAULT_POINT_BUDGET = 500_000


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured budget."""

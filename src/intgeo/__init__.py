"""Exact kinematic formulas for euclidean, hermitian and constant-curvature
isotropic spaces, with Monte Carlo verification on concrete convex bodies."""

__version__ = "0.1.0"

from .scalars import Scalar, omega, alpha

__all__ = ["Scalar", "omega", "alpha"]

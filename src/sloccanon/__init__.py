"""Exact canonical forms of L x N x N tensors under local operations."""

from .errors import SloccError
from .exactmat import Matrix, Scalar
from .nilpoly import TruncPoly
from .canon import (AClassRun, CanonicalForm, ILOTriple, PartitionedForm,
                    TensorState)
from .symmetry import OrbitDecision, SymmetryParams

__all__ = [
    "SloccError", "Matrix", "Scalar", "TruncPoly",
    "AClassRun", "CanonicalForm", "ILOTriple", "PartitionedForm",
    "TensorState", "OrbitDecision", "SymmetryParams",
]

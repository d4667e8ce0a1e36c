"""Spectral-stability toolkit for matrix Herglotz functions.

Matrix-valued measures (atoms plus constant-density pieces), their
Herglotz transforms with boundary values and divergence matrices,
Hermitian-parametrized extension families with the maximum-multiplicity
criteria, a brute-force pole/residue oracle for atomic instances, and a
forbidden-energy grid scanner.
"""

from .measure import (DEFAULT_TOLS, ACPiece, Atom, CauchyKernel, Divergent, Interval,
                      IntervalUnion, MatrixMeasure, MeasureError,
                      PoissonSquareKernel, RegularizedKernel, Tolerances,
                      hermitian_part, integrate, is_divergent, matrix_rank)
from .herglotz import (BoundaryReport, HerglotzMatrix, NotConvergedError,
                       atom_mass, boundary_value, evaluate, t_matrix)
from .extensions import (ConditioningError, ExtensionParameter,
                         MaxMultEvidence, PreconditionError,
                         extension_for_point, extension_weyl,
                         mass_at_max_mult, max_mult_test, max_mult_test_via,
                         resolvent_identity_residual)
from .oracle import OracleError, PoleRecord, classify, real_poles, residue_mass
from .scan import ScanConfig, GridRecord, scan_forbidden
from .verify import run_verify

__version__ = "0.1.0"

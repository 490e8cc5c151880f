"""Geometric and spectral means of positive definite matrices, the
log-majorization relations between them, Golden-Thompson trace chains, and
a constructive solver for unitary orbit-sum problems.

The numerical kernels (LAPACK eigh with a canonical eigenvector phase,
eigvals for general spectra, SVD polar decomposition) are deterministic:
identical inputs give identical outputs across runs, which the batch
verification reports rely on.
"""

from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidMatrixFile,
    LengthMismatch,
    MaxIterReached,
    NoConvergence,
    NonPositiveEntry,
    ParamOutOfRange,
    SingularInput,
    SpdMeansError,
)
from .gtchain import (
    ChainScan,
    DEFAULT_R_GRID,
    evaluate_chain,
    phi,
    psi,
    scan_chain,
    trotter_distances,
)
from .kostant import (
    group_chain_report,
    hyperbolic_spectrum,
    kostant_leq,
    kostant_report,
)
from .linalg import (
    ComplexMatrix,
    EigenPair,
    HermitianMatrix,
    SpdMatrix,
    UnitaryMatrix,
    eig_hermitian,
    mat_exp,
    mat_log,
    mat_pow,
    polar,
    spectrum,
)
from .majorization import (
    check_compound_mean_identities,
    compound,
    log_majorization_margins,
    log_majorization_report,
    log_majorizes,
    majorization_report,
    majorizes,
)
from .matio import load_hermitian, load_matrix, load_spd, save_matrix
from .means import (
    geometric_mean,
    loewner_leq,
    spectral_mean,
    spectral_mean_unitary,
)
from .orbit import (
    OrbitProblem,
    OrbitSolution,
    build_target,
    objective,
    riemannian_grad,
    solve,
    verify_membership,
)
from .realizations import run_suites_on_realization
from .sampling import (
    random_hermitian,
    random_invertible,
    random_orthogonal,
    random_real_symmetric_traceless,
    random_spd,
    random_unitary,
)

__version__ = "0.1.0"

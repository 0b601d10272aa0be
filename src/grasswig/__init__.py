"""grasswig: principal angles between equal-rank subspaces, and recovery of
the linear or conjugate-linear isometry behind any transformation of rank-n
projections that preserves them.
"""

__version__ = "0.1.0"

from .angles import (
    PrincipalAngles,
    angles_equal,
    principal_angles,
    principal_angles_spectral,
    principal_angles_svd,
    spectrum_discrepancy,
)
from .errors import (
    BadRank,
    ConvergenceFailure,
    DimensionMismatch,
    GrasswigError,
    InternalInconsistency,
    MatrixFormatError,
    NonHermitian,
    NotAProjection,
    NotCommuting,
    NotUnit,
    RankDeficient,
    RankMismatch,
)
from .extension import (
    CombinationCertificate,
    combination_coefficients,
    extend_orthonormal,
    extend_to_hermitian,
    extend_to_rank1,
    rank1_combination,
)
from .linalg import (
    COMPLEX,
    REAL,
    haar_random_unitary,
    hermitian_eig,
    random_subspace,
    singular_values,
)
from .maps import MapSpec, RankNMap, instantiate, load_map_spec, parse_map_spec
from .matio import (
    load_matrix,
    load_projection,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    save_projection,
)
from .projections import (
    CommutingDecomposition,
    Projection,
    Subspace,
    are_orthogonal,
    decompose_commuting,
    projection_distance,
    projection_rank,
    projector_from_subspace,
    random_projection,
    sample_projection,
    sample_projections,
    subspace_from_projector,
    trace_product,
)
from .reconstruction import (
    ReconstructionConfig,
    ReconstructionResult,
    VARIANT_CONJUGATION,
    VARIANT_EXCEPTIONAL,
    VARIANT_NOT_PRESERVING,
    VARIANT_UNCLASSIFIED,
    align_phase,
    canonicalize_global_phase,
    reconstruct,
    reconstruct_via_dual,
    screen_preservation,
    verify_conjugation,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

"""Exception types shared across the package."""


class GrasswigError(Exception):
    """Base class for every error raised by this package."""


class NonHermitian(GrasswigError):
    """Matrix is not Hermitian within tolerance (or not square)."""


class ConvergenceFailure(GrasswigError):
    """An iterative backend (eigensolver / SVD) failed to converge."""


class RankDeficient(GrasswigError):
    """Columns are numerically linearly dependent."""


class BadRank(GrasswigError):
    """Requested rank is outside the legal range for the operation."""


class NotUnit(GrasswigError):
    """Vector norm deviates from 1 beyond tolerance."""


class NotAProjection(GrasswigError):
    """Matrix fails the Hermitian / idempotent / integer-trace invariants."""


class DimensionMismatch(GrasswigError):
    """Operands live in different ambient dimensions."""


class RankMismatch(GrasswigError):
    """Operands have different ranks where equal ranks are required."""


class NotCommuting(GrasswigError):
    """The two projections do not commute, so no joint splitting exists."""


class InternalInconsistency(GrasswigError):
    """Two mathematically equivalent checks disagreed; numerics are suspect."""


class MatrixFormatError(GrasswigError):
    """Malformed matrix or map-spec JSON."""


"""Dense linear-algebra kernel: Hermitian eigendecomposition, singular
values, orthonormalization, and seeded Haar-random sampling.

Every matrix in this package is a numpy ``complex128`` array.  The real
field is a constraint (imaginary parts exactly zero), not a separate
storage format; the kernels below dispatch to the real LAPACK paths
whenever the input is exactly real, so real-mode pipelines never pick up
spurious imaginary parts from eigenvectors or Q factors.
"""

from __future__ import annotations

import numpy as np

from .errors import BadRank, ConvergenceFailure, NonHermitian, RankDeficient
from .tolerances import DEFAULT_TOL, ToleranceConfig

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)


def as_complex(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
    return a


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def is_exactly_real(m) -> bool:
    return not np.asarray(m).imag.any()


def hermitian_defect(m) -> float:
    """Frobenius distance from a square matrix to its adjoint."""
    a = as_complex(m)
    return frobenius(a - a.conj().T)


def check_field(field: str) -> str:
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    return field


def hermitian_eig(m, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real ascending and ``v`` a
    matrix of orthonormal eigenvector columns, ``m ~ v @ diag(w) @ v*``.
    Degenerate clusters come back in whatever basis the backend picks;
    callers must not rely on a particular choice.
    """
    a = as_complex(m)
    if a.shape[0] != a.shape[1]:
        raise NonHermitian(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    defect = hermitian_defect(a) if np.isfinite(a).all() else np.nan  # inf - inf would warn
    if not defect <= tol.eq_tol * max(1.0, frobenius(a)):
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    try:
        if is_exactly_real(a):
            w, v = np.linalg.eigh(a.real)
            v = v.astype(np.complex128)
        else:
            w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh did not converge: {exc}") from exc
    return w, v


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, descending and nonnegative."""
    a = as_complex(m)
    try:
        return np.linalg.svd(a.real if is_exactly_real(a) else a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"svd did not converge: {exc}") from exc


def _phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Q factor of a reduced QR with the R diagonal's phases absorbed into Q,
    for one matrix or for each matrix of a stack.

    Makes the factorization unique (R diagonal real positive), which both
    keeps already-orthonormal inputs fixed and turns a Gaussian matrix into
    a Haar-distributed one.
    """
    if is_exactly_real(a):
        q, r = np.linalg.qr(a.real)
        q = q.astype(np.complex128)
        r = r.astype(np.complex128)
    else:
        q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # Zero diagonal entries only occur for rank-deficient input, which every
    # caller screens out beforehand; keep the phase neutral in that case.
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def orthonormalize(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis with the same column span as the input.

    Raises ``RankDeficient`` when the columns are numerically dependent
    relative to ``rank_tol``.  Already-orthonormal input is returned
    unchanged up to roundoff.
    """
    a = as_complex(m)
    if a.shape[1] == 0 or a.shape[1] > a.shape[0]:
        raise RankDeficient(f"{a.shape[1]} columns cannot be independent in dimension {a.shape[0]}")
    s = singular_values(a)
    if s[-1] <= tol.rank_tol * max(1.0, s[0]):
        raise RankDeficient(f"numerical rank < {a.shape[1]} (smallest singular value {s[-1]:.3e})")
    return _phase_fixed_qr(a)


def haar_frames_from_rng(rng: np.random.Generator, count: int, d: int, n: int, field: str = COMPLEX) -> np.ndarray:
    """``count`` Haar-distributed d x n orthonormal frames (real in real mode)
    drawn from ``rng``, as a ``(count, d, n)`` stack: the phase-fixed QR of
    one Gaussian block, ``(count, d, n)`` in real mode and ``(count, 2, d, n)``
    (real and imaginary parts) in complex mode, equal bit for bit to
    ``count`` successive one-frame draws.  The first n columns of a
    phase-fixed Q depend on no others, so each frame is distributed as the
    first n columns of a Haar unitary (Mezzadri, Notices AMS 54, 2007); at
    n = d the frames are the unitaries themselves.
    """
    if d < 1:
        raise BadRank(f"dimension must be positive, got {d}")
    if not 1 <= n <= d:
        raise BadRank(f"need 1 <= n <= d, got n={n}, d={d}")
    check_field(field)
    if field == COMPLEX:
        g = rng.standard_normal((count, 2, d, n))
        z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    else:
        z = rng.standard_normal((count, d, n))
    return _phase_fixed_qr(np.asarray(z, dtype=np.complex128))


def haar_random_unitary(d: int, seed: int, field: str = COMPLEX) -> np.ndarray:
    """Seeded Haar-random unitary: QR of a Gaussian matrix with the R
    diagonal's phases absorbed into Q, the n = d case of
    ``haar_frames_from_rng``.  Deterministic per ``(d, seed, field)``.
    """
    return haar_frames_from_rng(np.random.default_rng(seed), 1, d, d, field)[0]


def random_subspace(d: int, n: int, seed: int, field: str = COMPLEX) -> np.ndarray:
    """Seeded Haar-random d x n orthonormal frame: ``haar_frames_from_rng``'s
    one frame from ``default_rng(seed)``, spanning ``random_projection``'s."""
    return haar_frames_from_rng(np.random.default_rng(seed), 1, d, n, field)[0]

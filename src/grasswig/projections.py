"""Orthogonal projections: construction, rank/orthogonality/commutation
predicates, and the joint splitting of a commuting pair.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotAProjection,
    NotCommuting,
)
from .linalg import (
    COMPLEX,
    as_complex,
    frobenius,
    frobenius_stack,
    hermitian_eig,
    haar_frames_from_rng,
    scaled,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def projection_rank(m, tol: ToleranceConfig = DEFAULT_TOL, first: int = 0):
    """Rank of a projection matrix, read off its trace; for a ``(k, d, d)``
    stack, the array of the k ranks, from one pass over the whole stack.

    Validates the projection invariants (self-adjoint, idempotent, trace
    within ``rank_tol`` of an integer) and raises ``NotAProjection`` when
    any of them fails; for a stack, the message names the first matrix
    that fails the check, numbered from ``first``.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D array or a stack of them, got ndim={a.ndim}")
    stack = a if a.ndim == 3 else a[None]
    k, d = stack.shape[0], stack.shape[-1]
    if stack.shape[-2] != d:
        raise NotAProjection(f"matrix is {stack.shape[-2]}x{d}, not square")

    def fail(i: int, message: str):
        raise NotAProjection((f"matrix {first + i}: " if a.ndim == 3 else "") + message)

    def require_small(x: np.ndarray, defect: str) -> None:
        """Every matrix of x within eq_tol of 0 in Frobenius norm."""
        # the squared norms' sum bounds each one: one BLAS call clears a good stack
        if np.vdot(x, x).real <= tol.eq_tol**2:
            return
        norms = frobenius_stack(x)
        bad = np.flatnonzero(~(norms <= tol.eq_tol))
        if bad.size:
            fail(int(bad[0]), f"{defect} defect {norms[bad[0]]:.3e} exceeds {tol.eq_tol:.1e}")

    # NaN, inf and entries whose products overflow first, before arithmetic that
    # warns (a BLAS sum of squares cannot): ||P||_F^2 = rank <= d, and < 2d near P
    if not abs(np.vdot(stack, stack)) <= k * d:
        norms = frobenius_stack(stack)
        for i in np.flatnonzero(~(norms <= np.sqrt(2 * d)))[:1].tolist():
            if not np.isfinite(stack[i]).all():
                fail(i, f"Hermitian defect nan exceeds {tol.eq_tol:.1e}")
            x, scale = scaled(stack[i])  # the norm reported without overflow
            fail(i, f"Frobenius norm {scale * frobenius(x):.3e} exceeds sqrt(2d) = {np.sqrt(2 * d):.3e}")
    buf = np.empty(stack.shape, dtype=np.complex128)  # each defect in turn, in one buffer
    require_small(np.subtract(stack, np.conjugate(stack.swapaxes(1, 2), out=buf), out=buf), "Hermitian")
    require_small(np.subtract(np.matmul(stack, stack, out=buf), stack, out=buf), "idempotency")
    ranks = []
    for i, trace in enumerate(stack.trace(axis1=1, axis2=2).tolist()):
        rank = round(trace.real)
        if abs(trace - rank) > tol.rank_tol:
            fail(i, f"trace {trace!r} is not within {tol.rank_tol:.1e} of an integer")
        if rank < 0 or rank > d:
            fail(i, f"trace rounds to {rank}, outside [0, {d}]")
        ranks.append(rank)
    return np.array(ranks, dtype=int) if a.ndim == 3 else ranks[0]


@dataclass(frozen=True, eq=False)
class Subspace:
    """An n-dimensional subspace, stored as a d-by-n orthonormal basis."""

    basis: np.ndarray
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol: ToleranceConfig | None) -> None:
        t = tol or DEFAULT_TOL
        b = as_complex(self.basis)
        d, n = b.shape
        if not 1 <= n <= d:
            raise NotAProjection(f"basis shape {b.shape} does not define a subspace")
        if not abs(np.vdot(b, b)) <= 2 * n:  # ||b||_F^2 = n: NaN, inf and overflow, before matmul warns
            x, scale = scaled(b)
            raise NotAProjection(f"basis Frobenius norm {scale * frobenius(x):.3e} exceeds sqrt(2n) = {np.sqrt(2 * n):.3e}")
        gram_defect = frobenius(b.conj().T @ b - np.eye(n))
        if not gram_defect <= t.eq_tol:
            raise NotAProjection(f"basis columns not orthonormal (defect {gram_defect:.3e})")
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class Projection:
    """A self-adjoint idempotent matrix with its rank validated and stored.

    The constructor validates its matrix (``projection_rank``); rank is
    never recomputed afterwards.  Projections by construction (Haar
    samples, complements, the oracle's inputs and validated outputs) are
    wrapped without that check (``_wrap_stack``).
    """

    matrix: np.ndarray
    rank: int | None = None
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol: ToleranceConfig | None) -> None:
        t = tol or DEFAULT_TOL
        m = as_complex(self.matrix)
        rank = projection_rank(m, t)
        if self.rank is not None and self.rank != rank:
            raise NotAProjection(f"declared rank {self.rank}, trace gives {rank}")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "rank", rank)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "Projection":
        """``I - P``, of rank ``d - rank``: its idempotency defect is P's own,
        so it is wrapped without a second check."""
        d = self.ambient_dim
        return _wrap_stack((np.eye(d, dtype=np.complex128) - self.matrix)[None], [d - self.rank])[0]


def projection_distance(p: Projection, q: Projection) -> float:
    """Frobenius distance; the package's notion of projection equality."""
    return frobenius(p.matrix - q.matrix)


def projector_from_subspace(s: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Orthogonal projection onto the span of the basis: ``B @ B*``."""
    return Projection(s.basis @ s.basis.conj().T, rank=s.rank, tol=tol)


def subspace_from_projector(p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the range, from the eigenvalue-1 eigenvectors."""
    w, v = hermitian_eig(p.matrix, tol)
    strays = np.minimum(np.abs(w), np.abs(w - 1.0))
    if strays.max(initial=0.0) > tol.rank_tol:
        raise NotAProjection(f"eigenvalues stray from {{0,1}} by {strays.max():.3e}")
    if p.rank == 0:
        raise NotAProjection("rank-0 projection has no spanning subspace")
    return Subspace(v[:, -p.rank :], tol=tol)


def _wrap_stack(stack: np.ndarray, ranks) -> list[Projection]:
    """Make a complex ``(k, d, d)`` stack read-only and wrap each matrix in a
    ``Projection`` whose matrix is a view of the stack, with the given rank.
    Checks nothing: the caller vouches that each matrix is a projection of
    that rank."""
    stack.setflags(write=False)
    # bound once: a __dict__ update would be no faster and gives each
    # instance a dict of its own, 148 bytes more than inline attributes
    out, new, set_ = [], object.__new__, object.__setattr__
    for matrix, r in zip(stack, ranks):
        p = new(Projection)
        set_(p, "matrix", matrix)
        set_(p, "rank", r)
        out.append(p)
    return out


def sample_projections(
    rng: np.random.Generator,
    count: int,
    d: int,
    n: int,
    field: str = COMPLEX,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[np.ndarray, list[Projection]]:
    """``count`` projections onto Haar-random n-dimensional subspaces drawn
    from a live generator: the read-only ``(count, d, d)`` stack and a
    ``Projection`` over each of its matrices.

    The bases ``b`` are ``count`` Haar frames (``haar_frames_from_rng``),
    each from d x n Gaussians: equal, bit for bit, to ``count`` successive
    ``sample_projection`` draws.  A rank outside ``[1, d]`` raises
    ``BadRank``.  The frames are checked (``_checked_frames``), not b b*.
    """
    b = _checked_frames(rng, count, d, n, field, tol)
    stack = b @ b.conj().swapaxes(-1, -2)
    return stack, _wrap_stack(stack, [n] * count)


def _checked_frames(rng: np.random.Generator, count: int, d: int, n: int, field: str, tol: ToleranceConfig, first: int = 0):
    """``haar_frames_from_rng`` with each frame's Gram defect
    ``||b* b - I||_F`` checked: above ``eq_tol`` ``NotAProjection`` names the
    frame, numbered from ``first``.  The check bounds both invariants of
    ``b b*``, ``P^2 - P = b (b* b - I) b*`` and ``tr P = n + tr(b* b - I)``, and of
    ``I - b b*``, with the same ``P^2 - P`` and ``tr P = d - n - tr(b* b - I)``,
    so a checked frame's ``b b*`` is wrapped as a rank-n projection, and
    ``I - b b*`` as one of rank d - n, unchecked."""
    b = haar_frames_from_rng(rng, count, d, n, field)
    defects = frobenius_stack(b.conj().swapaxes(-1, -2) @ b - np.eye(n))
    bad = np.flatnonzero(~(defects <= tol.eq_tol))
    if bad.size:
        raise NotAProjection(f"frame {first + bad[0]}: Gram defect {defects[bad[0]]:.3e} exceeds {tol.eq_tol:.1e}")
    return b


def sample_projection(rng: np.random.Generator, d: int, n: int, field: str = COMPLEX, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Projection onto a Haar-random n-dimensional subspace drawn from a
    live generator."""
    return sample_projections(rng, 1, d, n, field, tol)[1][0]


def random_projection(d: int, n: int, seed: int, field: str = COMPLEX, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """Projection onto a seeded Haar-random n-dimensional subspace: exactly
    ``b b*`` for ``b = random_subspace(d, n, seed, field)``."""
    return sample_projection(np.random.default_rng(seed), d, n, field, tol)


def _check_same_dim(p: Projection, q: Projection) -> None:
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}")


def trace_product(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Real part of ``tr(PQ)``; lies in ``[0, min(rank P, rank Q)]``."""
    _check_same_dim(p, q)
    value = complex(np.einsum("ij,ji->", p.matrix, q.matrix))
    bound = min(p.rank, q.rank)
    if abs(value.imag) > tol.spec_tol or not -tol.spec_tol <= value.real <= bound + tol.spec_tol:
        raise InternalInconsistency(
            f"tr(PQ) = {value!r} outside [0, {bound}] for validated projections"
        )
    return value.real


def are_orthogonal(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Range orthogonality via the trace criterion ``tr(PQ) = 0``.

    A positive answer is cross-checked against the operator criterion
    ``PQ = 0``; the two are equivalent for projections, so a disagreement
    is reported as an internal inconsistency rather than guessed away.
    """
    t = trace_product(p, q, tol)
    if t > tol.spec_tol:
        return False
    opnorm = frobenius(p.matrix @ q.matrix)
    if opnorm > np.sqrt(tol.spec_tol) * p.ambient_dim:
        raise InternalInconsistency(
            f"tr(PQ) = {t:.3e} says orthogonal but ||PQ|| = {opnorm:.3e} does not"
        )
    return True


@dataclass(frozen=True, eq=False)
class CommutingDecomposition:
    """Splitting of a commuting pair: ``P = intersection + p_remainder``,
    ``Q = intersection + q_remainder``, all three pairwise orthogonal.
    """

    intersection: Projection
    p_remainder: Projection
    q_remainder: Projection
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol: ToleranceConfig | None) -> None:
        t = tol or DEFAULT_TOL
        parts = (self.intersection, self.p_remainder, self.q_remainder)
        for i in range(3):
            for j in range(i + 1, 3):
                overlap = trace_product(parts[i], parts[j], t)
                if overlap > t.spec_tol:
                    raise InternalInconsistency(
                        f"decomposition parts {i} and {j} overlap: tr = {overlap:.3e}"
                    )


def decompose_commuting(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> CommutingDecomposition:
    """Split a commuting pair P, Q into intersection plus disjoint remainders.

    ``QPQ`` is a projection exactly when P and Q commute; both tests are
    run and must agree, surfacing borderline numerics as
    ``InternalInconsistency`` instead of silently picking a side.
    """
    _check_same_dim(p, q)
    r = q.matrix @ p.matrix @ q.matrix
    try:
        intersection = Projection(r, tol=tol)
        idempotent_ok = True
    except NotAProjection:
        idempotent_ok = False
    commutator = frobenius(p.matrix @ q.matrix - q.matrix @ p.matrix)
    commute_ok = commutator <= tol.eq_tol
    if idempotent_ok != commute_ok:
        raise InternalInconsistency(
            f"QPQ projection test ({idempotent_ok}) disagrees with commutator "
            f"norm {commutator:.3e} at tolerance {tol.eq_tol:.1e}"
        )
    if not commute_ok:
        raise NotCommuting(f"||PQ - QP|| = {commutator:.3e} exceeds {tol.eq_tol:.1e}")
    p_rem = Projection(p.matrix - intersection.matrix, tol=tol)
    q_rem = Projection(q.matrix - intersection.matrix, tol=tol)
    out = CommutingDecomposition(intersection, p_rem, q_rem, tol=tol)
    for original, remainder in ((p, p_rem), (q, q_rem)):
        defect = frobenius(original.matrix - (intersection.matrix + remainder.matrix))
        if defect > tol.eq_tol:
            raise InternalInconsistency(f"decomposition fails to reassemble: {defect:.3e}")
    return out

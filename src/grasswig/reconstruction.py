"""Recover the isometry behind an angle-preserving projection map.

Given an oracle sending rank-n projections to rank-n projections, the
pipeline (1) pushes the basis dyads ``e_i e_i*`` and one reference frame
through the real-linear extension as one query plan
(``extend_orthonormal``): in the complex field the first n+1 columns
``f_k`` of the unitary DFT matrix, in the real field
``f_0 = (1/sqrt(d)) sum e_j`` alone, (2) reads each basis image as a
rank-1 projection ``v v*`` and keeps its vector ``v`` as a column of the
candidate unitary (one stack of images at a time, by power steps from each
image's largest-diagonal column, with no eigendecomposition); at d = 2n
with n > 1, when basis image 0 is no rank-1 projection, every image is
read through ``ext_{I - phi}(uu*) = I/n - ext_phi(uu*)`` instead, for the
complement-composed family (an image cannot be both, since
``I/n - v v*`` has the eigenvalue ``1/n - 1 < 0``); phase assembly then
fixes every column's phase against the reference frame, whose image of
``f_1`` also decides linear vs conjugate-linear, (3) verifies the
candidate on fresh random samples and returns it when it passes, and
(4) only when no candidate passes, screens the map for angle preservation
on random pairs to explain the failure.  Verification is the sole
authority for acceptance: a map that matches ``V tau(P) V*``, or its
complement, on fresh samples preserves angles, so screening it first
would certify nothing more.

Anything that passes screening but fits neither family is reported as
``preserving_unclassified`` rather than guessed at: at d = 2n with n > 1 a
full classification of angle preservers is an open problem, and refusing
to label the leftovers is the honest output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .angles import qpq_spectrum
from .errors import BadRank
from .extension import RankNMap, extend_orthonormal
from .linalg import REAL, as_complex, frobenius, is_exactly_real
from .projections import Projection, sample_projections
from .tolerances import DEFAULT_TOL, ToleranceConfig

VARIANT_CONJUGATION = "conjugation"
VARIANT_EXCEPTIONAL = "exceptional_complement"
VARIANT_NOT_PRESERVING = "not_angle_preserving"
VARIANT_UNCLASSIFIED = "preserving_unclassified"

# Gate for structural sanity during assembly (rank-1 reference images, phase
# magnitudes, the probe).  Deliberately loose: the verification pass at
# accept_tol is the authority, this only decides how a failure is reported.
ASSEMBLY_GATE = 1e-3

# Screening and verification draw, evaluate and compare their samples in
# stacks of at most this many bytes of d x d matrices (256 matrices at
# d = 8, 4 at d = 64): larger stacks save no time at large d but raise the
# peak memory.
_BLOCK_BYTES = 256 * 1024


def _block_size(d: int) -> int:
    """Samples per stack at dimension d."""
    return max(1, _BLOCK_BYTES // (16 * d * d))


@dataclass(frozen=True)
class ReconstructionConfig:
    accept_tol: float = 1e-7
    screen_samples: int = 20
    verify_samples: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.screen_samples < 1 or self.verify_samples < 1:
            raise ValueError("sample counts must be positive")
        if not 0.0 < self.accept_tol < float("inf"):
            raise ValueError(f"accept_tol must be positive and finite, got {self.accept_tol!r}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Tagged outcome of a reconstruction attempt.

    ``conjugation``: phi(P) = V tau(P) V* with tau = conj when antiunitary.
    ``exceptional_complement``: phi(P) = I - V tau(P) V* (only at d = 2n, n > 1).
    ``not_angle_preserving``: carries a witness pair, the map's images of
    it and its discrepancy.
    ``preserving_unclassified``: screening passed but neither family fits.
    """

    variant: str
    v: np.ndarray | None = None
    antiunitary: bool | None = None
    residual: float | None = None
    witness_p: Projection | None = None
    witness_q: Projection | None = None
    witness_phi_p: Projection | None = None
    witness_phi_q: Projection | None = None
    discrepancy: float | None = None
    notes: str = ""

    @property
    def accepted(self) -> bool:
        return self.variant in (VARIANT_CONJUGATION, VARIANT_EXCEPTIONAL)

    def to_obj(self) -> dict:
        from .matio import matrix_to_obj

        obj: dict = {"variant": self.variant}
        if self.v is not None:
            obj["V"] = matrix_to_obj(self.v)
            obj["antiunitary"] = bool(self.antiunitary)
        if self.residual is not None:
            obj["residual"] = float(self.residual)
        if self.discrepancy is not None:
            obj["discrepancy"] = float(self.discrepancy)
        if self.notes:
            obj["notes"] = self.notes
        return obj


@dataclass(frozen=True, eq=False)
class ScreenReport:
    """Worst angle/trace-form discrepancy over the sampled pairs, with the
    pair attaining it and the map's images of that pair.  ``reconstruct``
    screens only a map it could not classify, to tell a non-preserver
    (with this witness) from an unclassified preserver."""

    max_discrepancy: float
    witness_p: Projection | None
    witness_q: Projection | None
    witness_phi_p: Projection | None
    witness_phi_q: Projection | None


def screen_preservation(
    phi: RankNMap,
    num_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ScreenReport:
    """Compare angles and trace form before and after the map on random pairs.

    The discrepancy per pair is the larger of the trace-form deviation and
    the max entrywise gap between the sorted full spectra of QPQ and its
    image; both vanish exactly for an angle preserver.  The trace form is
    read off the same spectra: ``tr PQ = tr QPQ`` is the spectrum's sum.
    The witness is the last pair attaining the maximum.  Pairs are drawn,
    evaluated and compared in stacks.  Fewer than one pair raises
    ``ValueError``: an empty screen certifies nothing.
    """
    if num_samples < 1:
        raise ValueError(f"screening needs at least 1 sample pair, got {num_samples}")
    rng = np.random.default_rng(seed)
    d, pairs = phi.ambient_dim, max(1, _block_size(phi.ambient_dim) // 2)
    worst, witness = 0.0, (None, None, None, None)
    for start in range(0, num_samples, pairs):
        count = min(pairs, num_samples - start)
        stack, samples = sample_projections(rng, 2 * count, d, phi.rank, phi.field, tol)
        images = phi.evaluate_many(samples)
        mapped = np.stack([image.matrix for image in images])
        before = qpq_spectrum(stack[0::2], stack[1::2])
        after = qpq_spectrum(mapped[0::2], mapped[1::2])
        trace_dev = np.abs(after.sum(axis=-1) - before.sum(axis=-1))
        spec_dev = np.max(np.abs(before - after), axis=-1)
        discrepancy = np.maximum(trace_dev, spec_dev)
        i = count - 1 - int(np.argmax(discrepancy[::-1]))
        if discrepancy[i] >= worst:
            worst = float(discrepancy[i])
            witness = (samples[2 * i], samples[2 * i + 1], images[2 * i], images[2 * i + 1])
    return ScreenReport(worst, *witness)


def _conjugate(v, antiunitary: bool, m: np.ndarray) -> np.ndarray:
    """``V m V*`` (linear) or ``V conj(m) V*`` (antiunitary, conjugation in
    the standard basis), as a raw matrix; for a stack ``m``, of each matrix."""
    v = as_complex(v)
    inner = m.conj() if antiunitary else m
    return v @ inner @ v.conj().T


def apply_conjugation(v, antiunitary: bool, p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """``V P V*`` (linear) or ``V conj(P) V*`` (antiunitary, conjugation in
    the standard basis)."""
    return Projection(_conjugate(v, antiunitary, p.matrix), rank=p.rank, tol=tol)


def verify_conjugation(
    phi: RankNMap,
    v,
    antiunitary: bool,
    num_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    complement: bool = False,
) -> float:
    """Max Frobenius residual of ``phi(P) - V tau(P) V*`` over random samples,
    or of ``phi(P) - (I - V tau(P) V*)`` with ``complement``.

    The prediction stays a raw matrix: a candidate V that is unitary only to
    within the acceptance tolerance does not map P to an exact projection,
    and the residual, not projection validation, is the test it must pass.
    Samples are drawn, evaluated and compared in stacks.  Fewer than one
    sample raises ``ValueError``: an empty verification certifies nothing.
    """
    if num_samples < 1:
        raise ValueError(f"verification needs at least 1 sample, got {num_samples}")
    rng = np.random.default_rng(seed)
    d, size = phi.ambient_dim, _block_size(phi.ambient_dim)
    worst = 0.0
    for start in range(0, num_samples, size):
        stack, samples = sample_projections(rng, min(size, num_samples - start), d, phi.rank, phi.field, tol)
        predicted = _conjugate(v, antiunitary, stack)
        if complement:
            predicted = np.eye(d, dtype=np.complex128) - predicted
        mapped = np.stack([image.matrix for image in phi.evaluate_many(samples)])
        worst = max(worst, float(np.max(np.linalg.norm(mapped - predicted, axis=(-2, -1)))))
    return worst


def _canonical_phase(vectors: np.ndarray):
    """Unimodular scalar making the largest-magnitude entry positive real,
    for one vector or for each vector (last axis) of a stack.

    numpy's argmax takes the first maximum, which implements the
    lowest-row-index tie break.
    """
    pivot = np.take_along_axis(vectors, np.argmax(np.abs(vectors), axis=-1)[..., None], axis=-1)[..., 0]
    return np.abs(pivot) / pivot


def canonicalize_global_phase(v: np.ndarray) -> np.ndarray:
    """Fix the global phase of a unitary via its first column."""
    return v * _canonical_phase(v[:, 0])


def align_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """Unimodular c minimizing ``||a - c b||`` (for same-shape arrays)."""
    t = complex(np.vdot(b, a))
    return t / abs(t) if t != 0 else 1.0 + 0j


def _rank1_vectors(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each image of a ``(k, d, d)`` stack, a unit vector ``v`` near the
    image's top eigenvector and the residual ``||image - v v*||_F``.

    ``v`` starts as the image's column with the largest diagonal entry,
    which for ``v v* + E`` is ``v`` scaled by an entry of modulus at least
    ``1/sqrt(d)``, so it is off by at most ``sqrt(d) ||E||``.  Two power
    steps ``v <- image v / ||image v||`` each shrink that error by a factor
    of about ``||E||``, which puts it at roundoff for every image a gate
    can accept.  The largest entry of ``v`` is made positive real.  The
    reader never raises: a NaN or zero image gets an infinite residual, and
    a non-Hermitian or far-from-rank-1 one a residual at least its distance
    from every dyad (at least its anti-Hermitian part), so each fails its
    gate instead.
    """
    rows = np.arange(images.shape[0])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        pivots = np.argmax(np.diagonal(images, axis1=-2, axis2=-1).real, axis=-1)
        v = images[rows, :, pivots]
        for _ in range(2):
            v = (images @ (v / np.linalg.norm(v, axis=-1, keepdims=True))[..., None])[..., 0]
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        v = v * _canonical_phase(v)[:, None]
        residuals = np.linalg.norm(images - v[:, :, None] * v.conj()[:, None, :], axis=(-2, -1))
    residuals[~np.isfinite(residuals)] = np.inf
    return v, residuals


def _unclassified(notes: str) -> ReconstructionResult:
    return ReconstructionResult(VARIANT_UNCLASSIFIED, notes=notes)


def _reference_sets(d: int, n: int, field: str) -> list[np.ndarray]:
    """The reference frame that fixes the column phases, as orthonormal sets.

    Complex field: the first n+1 columns ``f_k = (w^{jk})_j / sqrt(d)`` of
    the unitary DFT matrix, ``w = exp(2 pi i / d)``; at d = 2 these are
    real, so a second set ``(e_0 +- i e_1)/sqrt(2)`` follows for the probe.
    Real field: ``f_0 = (1/sqrt(d)) sum e_j`` alone.
    """
    if field == REAL:
        return [np.full((d, 1), 1.0 / np.sqrt(d), dtype=np.complex128)]
    jk = np.outer(np.arange(d), np.arange(n + 1)) % d
    sets = [np.exp(2j * np.pi * jk / d) / np.sqrt(d)]
    if d == 2:
        sets.append(np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0))
    return sets


def _phases(u: np.ndarray, g: np.ndarray, x: np.ndarray, residual: float, k: int) -> tuple[np.ndarray | None, str]:
    """``c_j = (u_j* x) / g_j``, each of modulus 1, from the image ``x x*`` of
    ``g g*`` (read off within ``residual``): ``V e_j = c_j u_j`` up to one
    phase common to all j."""
    c = (u.conj().T @ x) / g
    if not (residual <= ASSEMBLY_GATE and np.max(np.abs(np.abs(c) - 1.0)) <= ASSEMBLY_GATE):
        return None, f"reference dyad {k} fixes no phase (no rank-1 image or a |c_j| off 1 by > {ASSEMBLY_GATE:.0e})"
    return c, ""


def _assemble_candidate(
    u: np.ndarray, refs: np.ndarray, images: np.ndarray, probe: int | None
) -> tuple[np.ndarray | None, bool | None, str]:
    """Wigner phase assembly against one reference frame (Bargmann's proof).

    The columns ``u_j`` of the basis images are fixed only up to phase.  The
    image of ``f_0 f_0*`` fixes every phase at once, for both alternatives
    (``f_0`` is real).  The image of reference ``probe`` then decides between
    ``V g`` (linear) and ``V conj(g)`` (conjugate-linear), orthogonal.  The
    estimates of all reference images, with ``g = f_k`` or ``conj(f_k)``, are
    aligned on the first and averaged, and the columns, orthonormal only to
    within their noise, are replaced by their polar factor.
    """
    xs, residuals = _rank1_vectors(images)
    c0, notes = _phases(u, refs[:, 0], xs[0], residuals[0], 0)
    if c0 is None:
        return None, None, notes
    antiunitary = False
    if probe is not None:
        v0 = u * (c0 / np.abs(c0))
        lin, con = v0 @ refs[:, probe], v0 @ refs[:, probe].conj()
        r_lin = frobenius(images[probe] - np.outer(lin, lin.conj()))
        r_con = frobenius(images[probe] - np.outer(con, con.conj()))
        if min(r_lin, r_con) > ASSEMBLY_GATE:
            return None, None, (
                f"probe reference dyad {probe} matches neither alternative "
                f"(residuals {r_lin:.3e}, {r_con:.3e} > {ASSEMBLY_GATE:.0e})"
            )
        antiunitary = r_con < r_lin
    g = refs.conj() if antiunitary else refs
    estimates = [_phases(u, g[:, k], x, r, k) for k, (x, r) in enumerate(zip(xs, residuals))]
    notes = next((notes for c, notes in estimates if c is None), "")
    if notes:
        return None, None, notes
    total = sum(c / align_phase(c, c0) for c, _ in estimates)
    v = u * (total / np.abs(total))
    w, _, zh = np.linalg.svd(v.real if is_exactly_real(v) else v)
    return canonicalize_global_phase(as_complex(w @ zh)), antiunitary, ""


def _classify(phi: RankNMap, cfg: ReconstructionConfig, tol: ToleranceConfig) -> ReconstructionResult:
    """Rank-1 basis images -> phase assembly and probe -> verification.

    The basis frames and the reference frame are extended as one query
    plan, and the d basis images are read as one stack.  At d = 2n with
    n > 1 basis image 0 decides the family: when it is no rank-1
    projection, every image is read as one under ``I - phi``,
    ``I/n - ext_phi(uu*)``, and the candidate is verified in the complement
    form ``I - V tau(P) V*``.
    """
    d, n = phi.ambient_dim, phi.rank
    sets = _reference_sets(d, n, phi.field)
    images = np.stack(extend_orthonormal(phi, [np.eye(d, dtype=np.complex128), *sets], tol))
    vectors, residuals = _rank1_vectors(images[:d])
    complement = d == 2 * n and n > 1 and not residuals[0] <= cfg.accept_tol
    if complement:
        images = np.eye(d, dtype=np.complex128) / n - images
        vectors, residuals = _rank1_vectors(images[:d])

    failed = np.flatnonzero(~(residuals <= cfg.accept_tol))
    if failed.size:
        i = int(failed[0])
        if not complement:
            reason = "is not a rank-1 projection"
        elif i == 0:
            reason = "is neither a rank-1 projection nor I/n minus one"
        else:
            reason = "is not I/n minus a rank-1 projection, as image 0 is"
        return _unclassified(f"extension image of basis dyad {i} {reason}")
    # Real field: conjugation is invisible, so the answer is always linear.
    # At d = 2, f_1 is real and the probe is the first vector of the second set.
    probe = None if phi.field == REAL else 1 if d > 2 else n + 1
    v, antiunitary, notes = _assemble_candidate(vectors.T, np.hstack(sets), images[d:], probe)
    if v is None:
        return _unclassified(notes)
    if complement:
        variant, label, seed = VARIANT_EXCEPTIONAL, "complement-composed candidate", cfg.seed + 2
    else:
        variant, label, seed = VARIANT_CONJUGATION, "candidate conjugation", cfg.seed + 1
    residual = verify_conjugation(phi, v, antiunitary, cfg.verify_samples, seed, tol, complement=complement)
    if residual > cfg.accept_tol:
        return _unclassified(f"{label} fails verification (residual {residual:.3e} > {cfg.accept_tol:.1e})")
    return ReconstructionResult(variant, v=v, antiunitary=antiunitary, residual=residual)


def reconstruct(
    phi: RankNMap,
    cfg: ReconstructionConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReconstructionResult:
    """Classify an angle-preserving map and recover its inducing isometry.

    Classification and verification run first, and an accepted result is
    returned as it comes, without screening.  Otherwise the map is
    screened on ``cfg.screen_samples`` pairs from ``cfg.seed``: a
    discrepancy above ``accept_tol`` returns ``not_angle_preserving`` with
    the screen's witness, and else the classification's
    ``preserving_unclassified`` result stands.

    Requires ``accept_tol >= 10 * spec_tol`` so structural checks sit well
    above the spectral comparison noise floor.
    """
    cfg = cfg or ReconstructionConfig()
    if cfg.accept_tol < 10.0 * tol.spec_tol:
        raise ValueError(
            f"accept_tol {cfg.accept_tol:.1e} must be >= 10x spec_tol {tol.spec_tol:.1e}"
        )
    d, n = phi.ambient_dim, phi.rank
    if not 1 <= n < d:
        raise BadRank(f"reconstruction needs 1 <= n < d, got n={n}, d={d}")

    result = _classify(phi, cfg, tol)
    if result.accepted:
        return result
    report = screen_preservation(phi, cfg.screen_samples, cfg.seed, tol)
    if report.max_discrepancy > cfg.accept_tol:
        return ReconstructionResult(
            VARIANT_NOT_PRESERVING,
            witness_p=report.witness_p,
            witness_q=report.witness_q,
            witness_phi_p=report.witness_phi_p,
            witness_phi_q=report.witness_phi_q,
            discrepancy=report.max_discrepancy,
        )
    return result


def dualize(phi: RankNMap, tol: ToleranceConfig = DEFAULT_TOL) -> RankNMap:
    """Complement-conjugated map on the complementary rank:
    ``psi(P) = I - phi(I - P)`` acting on rank d - n.  Each query returns
    the raw ``I - phi(I - P)``, so the dual's ``evaluate_many`` validates
    the outputs of a whole stack of queries at once: ``I - M`` has the
    Hermitian and idempotency defects of ``M``."""
    d, n = phi.ambient_dim, phi.rank
    m = d - n
    if not 1 <= m <= d - 1:
        raise BadRank(f"dual rank d - n = {m} is outside [1, {d - 1}]")

    def fn(p: Projection) -> np.ndarray:
        # the complement of a validated input is a projection by construction
        out = phi._fn(p.complement())
        out = out.matrix if isinstance(out, Projection) else as_complex(out)
        return np.eye(d, dtype=np.complex128) - out if out.shape == (d, d) else out

    return RankNMap(d, m, fn, descriptor=f"dual({phi.descriptor})", field=phi.field, tol=tol)


def reconstruct_via_dual(
    phi: RankNMap,
    cfg: ReconstructionConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReconstructionResult:
    """Reconstruct through the dual map on rank d - n.

    A conjugation inducing the dual induces the original map as well, so a
    positive result carries over; it is still re-verified against the
    original map directly before being returned.  A witness from dual
    screening lives at rank d - n.
    """
    cfg = cfg or ReconstructionConfig()
    inner = reconstruct(dualize(phi, tol), cfg, tol)
    if inner.accepted:
        complement = inner.variant == VARIANT_EXCEPTIONAL
        residual = verify_conjugation(
            phi, inner.v, inner.antiunitary, cfg.verify_samples, cfg.seed + 3, tol, complement=complement
        )
        if residual <= cfg.accept_tol:
            return replace(inner, residual=residual)
        return _unclassified(
            f"dual candidate fails direct verification (residual {residual:.3e} > {cfg.accept_tol:.1e})"
        )
    if inner.variant == VARIANT_NOT_PRESERVING:
        return replace(inner, notes=f"witness pair has dual rank {phi.ambient_dim - phi.rank}")
    return inner

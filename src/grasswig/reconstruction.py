"""Recover the isometry behind an angle-preserving projection map.

Given an oracle sending rank-n projections to rank-n projections, the
pipeline (1) reads the map at rank ``k = min(n, d - n)``, through
``dualize`` when n > d/2, from one ``evaluate_many`` stack of
``ceil(d/k) + 3`` queries: the coordinate projections of every k-block
but the last, whose range is the complement of the others, and four fixed
seeded reference frames (five at d = 2k, k > 1), (2) picks the reading,
linear or antiunitary and, at d = 2k, plain or complement-composed, by
comparing Bargmann's invariant ``tr phi(A) phi(B) phi(C)`` of three
reference images with what each reading predicts, (3) fits
``V = Y blockdiag(U_j)`` to those outputs (block ranges ``Y``, one phase
synchronisation across references, a Procrustes step per block), gates
the fit on its own queries and polishes it by least squares, (4) verifies
the candidate on fresh random samples and returns it when it passes, and
(5) only when no candidate passes, screens the map for angle preservation
on random pairs to explain the failure.  Verification is the sole
authority for acceptance: a map that matches ``V tau(P) V*``, or its
complement, on fresh samples preserves angles, so screening it first
would certify nothing more.  An accepted map costs
``ceil(d/k) - 1 + 4 (+1 at d = 2n, n > 1)`` reading calls plus the
verification samples: ``7 + 4 + 50 = 61`` at d = 64, n = 8.

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
from .extension import RankNMap
from .linalg import REAL, as_complex, frobenius, is_exactly_real
from .projections import Projection, _checked_frames, _wrap_stack, sample_projections
from .tolerances import DEFAULT_TOL, ToleranceConfig

VARIANT_CONJUGATION = "conjugation"
VARIANT_EXCEPTIONAL = "exceptional_complement"
VARIANT_NOT_PRESERVING = "not_angle_preserving"
VARIANT_UNCLASSIFIED = "preserving_unclassified"

# The unpolished fit must match its own query outputs within this many
# accept_tol, in verification's Frobenius norm, to be polished and
# verified.  It carries the oracle's noise amplified a few times, so the
# gate is looser than verification, which stays the only authority; a map
# that fails it goes straight to the screen.
FIT_GATE = 10.0

# The polish stops once a step moves V by at most this many accept_tol
# (after one step on an exact map), or after _POLISH_STEPS steps.
_POLISH_STOP = 1e-3
_POLISH_STEPS = 64

# Seed of the reading's fixed reference frames and range-finder matrix.
_READING_SEED = 2000

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
        # seeds feed numpy generators, which refuse negative seeds
        for name, least in (("screen_samples", 1), ("verify_samples", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
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


def canonicalize_global_phase(v: np.ndarray) -> np.ndarray:
    """Fix the global phase of a unitary so that the largest-magnitude entry
    of its first column is positive real (the first such entry on a tie)."""
    pivot = v[np.argmax(np.abs(v[:, 0])), 0]
    return v * (abs(pivot) / pivot)


def align_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """Unimodular c minimizing ``||a - c b||`` (for same-shape arrays)."""
    t = complex(np.vdot(b, a))
    return t / abs(t) if t != 0 else 1.0 + 0j


def _unclassified(notes: str) -> ReconstructionResult:
    return ReconstructionResult(VARIANT_UNCLASSIFIED, notes=notes)


def _query_frames(rng: np.random.Generator, d: int, k: int, field: str, tol: ToleranceConfig) -> np.ndarray:
    """The reading's query plan, as a ``(q, d, k)`` stack of frames ``b``
    whose projections ``b b*`` are the queries: the coordinate frames of
    the k-blocks ``[jk, jk + k)`` of all ``ceil(d/k)`` blocks but the last,
    whose range is the complement of the others, then four Haar reference
    frames drawn from ``rng``, five at d = 2k with k > 1, where the
    complement family is read as well."""
    m = -(-d // k)
    i = np.arange((m - 1) * k)
    blocks = np.zeros((m - 1, d, k), dtype=np.complex128)
    blocks[i // k, i, i % k] = 1.0
    return np.concatenate([blocks, _checked_frames(rng, 5 if d == 2 * k > 2 else 4, d, k, field, tol)])


def _reading(images: np.ndarray, frames: np.ndarray, field: str) -> tuple[bool, bool]:
    """``(complement, antiunitary)`` of the reading that Bargmann's invariant
    ``tr(ABC)`` picks from the images of three reference queries.

    For queries A, B, C with ``T = tr(ABC)``, ``P -> V P V*`` keeps T,
    ``P -> V conj(P) V*`` conjugates it, and the complement of either turns
    it into ``d - 3k + tr AB + tr BC + tr CA - T`` (or its conjugate); the
    reading closest to the images' own invariant is taken.  Only the linear
    readings exist in the real field, and the complement ones only at
    d = 2k with k > 1.
    """
    f0, f1, f2 = frames
    d, k = f0.shape
    a, b, c = f0.conj().T @ f1, f1.conj().T @ f2, f2.conj().T @ f0
    t = complex(np.trace(a @ b @ c))
    pairs = frobenius(a) ** 2 + frobenius(b) ** 2 + frobenius(c) ** 2
    invariant = complex(np.einsum("ij,jk,ki->", *images))
    readings = [(False, False, t)]
    if field != REAL:
        readings.append((False, True, t.conjugate()))
    if d == 2 * k > 2:
        readings += [(True, anti, d - 3 * k + pairs - x) for _, anti, x in readings]
    complement, antiunitary, _ = min(readings, key=lambda r: abs(invariant - r[2]))
    return complement, antiunitary


def _polar(a: np.ndarray) -> np.ndarray:
    """The nearest unitary (polar factor) of a matrix, or of each of a stack."""
    w, _, zh = np.linalg.svd(a)
    return w @ zh


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _ranges(images: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the ranges of a stack of rank-k images: one QR of
    ``image @ omega`` (omega is d x k) and one subspace step, for all at once."""
    return np.linalg.qr(images @ np.linalg.qr(images @ omega)[0])[0]


def _fit(images: np.ndarray, frames: np.ndarray, omega: np.ndarray, k: int) -> np.ndarray:
    """V with ``images[q] = V b_q b_q* V*`` for the query frames ``b_q``
    (``_query_frames``, already conjugated for an antiunitary reading).

    The ranges of the images are read by ``_ranges``.  One complete QR of
    the block images' ranges gives a unitary ``Y`` whose k-column blocks
    span ``V``'s, so ``V = Y blockdiag(U_j)``.  A reference frame ``g`` has
    ``V g = z S`` for its image's range ``z`` and an unknown unitary S;
    matching the SVDs of block 0 of ``g`` and ``Y* z`` leaves S a diagonal
    of phases in their right singular bases, ``V g' = z' D``.  The phases
    of all references are synchronised at once: ``<g'_a, g'_b>`` must equal
    ``conj(D_a) D_b <z'_a, z'_b>`` for every pair of columns, so the
    phases are those of the top singular vector of
    ``(z'* z') o conj(g'* g')``.  With ``x = z' D ~ V g'``, each ``U_j`` is
    the polar factor of block j of ``Y* x g'*``; the last, partial block
    is padded with an identity so that all blocks are solved as one stack.
    """
    d = images.shape[-1]
    m = -(-d // k)
    ranges = _ranges(images, omega)
    y = np.linalg.qr(np.concatenate(ranges[: m - 1], axis=1), mode="complete")[0]
    g, z = frames[m - 1 :], ranges[m - 1 :]
    right = _adjoint(np.linalg.svd(np.concatenate([g[:, :k], y[:, :k].conj().T @ z]))[2])
    g, z = np.concatenate(g @ right[: len(g)], axis=1), np.concatenate(z @ right[len(g) :], axis=1)
    top = np.linalg.svd((_adjoint(z) @ z) * (_adjoint(g) @ g).conj())[0][:, 0]
    x = z * (top / np.maximum(np.abs(top), np.finfo(float).tiny))  # no division by 0
    padded = np.zeros((m * k, m * k), dtype=x.dtype)
    padded[:d, :d] = y.conj().T @ x @ g.conj().T
    padded[d:, d:] = np.eye(m * k - d)
    u = _polar(padded.reshape(m, k, m, k)[np.arange(m), :, np.arange(m), :])  # the diagonal blocks
    y = np.concatenate([y, np.zeros((d, m * k - d))], axis=1).reshape(d, m, k).swapaxes(0, 1)
    return (y @ u).swapaxes(0, 1).reshape(d, m * k)[:, :d]


def _polish(images: np.ndarray, v: np.ndarray, frames: np.ndarray, stop: float) -> np.ndarray:
    """Least-squares polish over the query images: ``V <- polar(sum_q
    image_q V b_q b_q*)`` raises ``sum_q Re tr(image_q V b_q b_q* V*)`` at
    every step (the sum is convex in V), until V moves by at most ``stop``
    in Frobenius norm, or for ``_POLISH_STEPS`` steps."""
    for _ in range(_POLISH_STEPS):
        moved = _polar(((images @ (v @ frames)) @ _adjoint(frames)).sum(axis=0))
        step, v = frobenius(moved - v), moved
        if step <= stop:
            break
    return v


def _classify(phi: RankNMap, cfg: ReconstructionConfig, tol: ToleranceConfig) -> ReconstructionResult:
    """Block query plan -> Bargmann reading -> fit, gate, polish -> verification.

    The map is read at rank ``k = min(n, d - n)``, through ``dualize`` when
    n > d/2 (a conjugation inducing the dual induces the map).  The
    ``ceil(d/k) - 1`` block queries and the reference queries reach the
    oracle as one stack.  The outputs, or their complements ``I - M`` for
    the complement family, are fitted once in the reading ``_reading``
    picks; the fit must match its own queries within ``FIT_GATE``
    accept_tol before it is polished and verified on fresh samples against
    the map itself.
    """
    d, n = phi.ambient_dim, phi.rank
    psi = dualize(phi, tol) if 2 * n > d else phi
    k = psi.rank
    rng = np.random.default_rng(_READING_SEED)
    frames = _query_frames(rng, d, k, phi.field, tol)
    omega = rng.standard_normal((d, k))
    inputs = frames @ _adjoint(frames)
    outputs = np.stack([p.matrix for p in psi.evaluate_many(_wrap_stack(inputs, [k] * len(inputs)))])
    if phi.field == REAL and is_exactly_real(outputs):
        outputs, frames = outputs.real, frames.real
    m = -(-d // k)
    complement, antiunitary = _reading(outputs[m - 1 : m + 2], frames[m - 1 : m + 2], phi.field)
    images = np.eye(d) - outputs if complement else outputs
    frames = frames.conj() if antiunitary else frames
    v = _fit(images, frames, omega, k)
    if complement:
        variant, label, seed = VARIANT_EXCEPTIONAL, "complement-composed", cfg.seed + 2
    else:
        variant, label, seed = VARIANT_CONJUGATION, "conjugation", cfg.seed + 1
    label = f"{'antiunitary' if antiunitary else 'linear'} {label} reading"
    w = v @ frames  # the fit's own predictions, V b b* V* = w w*
    residual = float(np.max(np.linalg.norm(images - w @ _adjoint(w), axis=(-2, -1))))
    if not residual <= FIT_GATE * cfg.accept_tol:
        return _unclassified(f"{label} fits its own queries only to {residual:.3e} > {FIT_GATE:g} x accept_tol")
    v = canonicalize_global_phase(as_complex(_polish(images, v, frames, _POLISH_STOP * cfg.accept_tol)))
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
        raise ValueError(f"accept_tol {cfg.accept_tol:.1e} must be >= 10x spec_tol {tol.spec_tol:.1e}")
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
        return _unclassified(f"dual candidate fails direct verification (residual {residual:.3e} > {cfg.accept_tol:.1e})")
    if inner.variant == VARIANT_NOT_PRESERVING:
        return replace(inner, notes=f"witness pair has dual rank {phi.ambient_dim - phi.rank}")
    return inner

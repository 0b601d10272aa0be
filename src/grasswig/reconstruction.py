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
``V = Y blockdiag(U_j)`` to those outputs, gates the fit on its own
queries and polishes it by least squares, (4) verifies the candidate on
fresh samples, each predicted from its Haar frame at d^2 n, where a
residual within ``eq_tol / 4`` stands in for validating the output, and
(5) only when no candidate passes, screens the map on random pairs to
explain the failure; (4) and (5) share one sampled loop.  Verification is
the sole authority for acceptance: a map that matches ``V tau(P) V*``, or
its complement, on fresh samples preserves angles.  An accepted map costs
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
from .projections import Projection, _checked_frames, _wrap_stack
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

# Random pairs a rejected map is screened on, fresh samples a candidate is
# verified on, and accept_tol in units of spec_tol: 1e-7 at the defaults,
# well above the spectral comparison noise floor.
_SCREEN_PAIRS = 20
_VERIFY_SAMPLES = 50
_ACCEPT_FACTOR = 10.0


@dataclass(frozen=True)
class ReconstructionConfig:
    seed: int = 0

    def __post_init__(self) -> None:
        # seeds feed numpy generators, which refuse negative seeds
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


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


def _sampled(phi: RankNMap, count: int, seed: int, tol: ToleranceConfig, group: int = 1):
    """The loop screening and verification share: draw ``group * count``
    Haar frames ``b`` from ``seed`` in stacks of at most ``_BLOCK_BYTES`` of
    d x d matrices (a multiple of ``group``), and yield ``(first, b, inputs,
    samples, outputs, mapped)``: the stack's first index in the run, then
    ``RankNMap._outputs`` of the samples ``b b*``.  Fewer than one sample
    raises ``ValueError``: an empty sample certifies nothing."""
    if count < 1:
        raise ValueError(f"a sampled check needs at least 1 sample{' pair' if group == 2 else ''}, got {count}")
    d, n, rng = phi.ambient_dim, phi.rank, np.random.default_rng(seed)
    size = group * max(1, _BLOCK_BYTES // (16 * d * d) // group)
    for first in range(0, group * count, size):
        b = _checked_frames(rng, min(size, group * count - first), d, n, phi.field, tol)
        inputs = b @ _adjoint(b)
        samples = _wrap_stack(inputs, [n] * len(b))
        yield (first, b, inputs, samples, *phi._outputs(samples, first))


def screen_preservation(phi: RankNMap, num_samples: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL) -> ScreenReport:
    """Compare angles and trace form before and after the map on random pairs.

    The discrepancy per pair is the larger of the trace-form deviation and
    the max entrywise gap between the sorted full spectra of QPQ and its
    image; both vanish exactly for an angle preserver.  The trace form is
    read off the same spectra: ``tr PQ = tr QPQ`` is the spectrum's sum.
    The witness is the last pair attaining the maximum.  Pairs are drawn,
    evaluated and compared in stacks (``_sampled``), and every output is
    validated, since the witness images must be ``Projection``s; a failure
    names the sample's index in the run (pair i is samples 2i, 2i + 1).
    Fewer than one pair raises ``ValueError``: it would certify nothing.
    """
    worst, witness = 0.0, (None, None, None, None)
    for first, _, inputs, samples, outputs, mapped in _sampled(phi, num_samples, seed, tol, group=2):
        images = phi._validated(outputs, mapped, first)
        before = qpq_spectrum(inputs[0::2], inputs[1::2])
        after = qpq_spectrum(mapped[0::2], mapped[1::2])
        trace_dev = np.abs(after.sum(axis=-1) - before.sum(axis=-1))
        spec_dev = np.max(np.abs(before - after), axis=-1)
        discrepancy = np.maximum(trace_dev, spec_dev)
        i = len(discrepancy) - 1 - int(np.argmax(discrepancy[::-1]))
        if discrepancy[i] >= worst:
            worst = float(discrepancy[i])
            witness = (samples[2 * i], samples[2 * i + 1], images[2 * i], images[2 * i + 1])
    return ScreenReport(worst, *witness)


def apply_conjugation(v, antiunitary: bool, p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """``V P V*`` (linear) or ``V conj(P) V*`` (antiunitary, conjugation in
    the standard basis)."""
    v = as_complex(v)
    return Projection(v @ (p.matrix.conj() if antiunitary else p.matrix) @ v.conj().T, rank=p.rank, tol=tol)


def verify_conjugation(
    phi: RankNMap, v, antiunitary: bool, num_samples: int, seed: int,
    tol: ToleranceConfig = DEFAULT_TOL, complement: bool = False,
) -> float:
    """Max Frobenius residual of ``phi(P) - V tau(P) V*`` over random samples,
    or of ``phi(P) - (I - V tau(P) V*)`` with ``complement``.

    Each sample ``P = b b*`` is predicted from its frame as ``Q = W W*``
    (or ``I - W W*``), ``W = V tau(b)``, at d^2 n.  Q stays a raw matrix: a
    V unitary only to within the acceptance tolerance maps P to no exact
    projection, and the residual is the test it must pass.

    The residual also stands in for the output's d^3 validation.  For an
    output M let ``E = M - Q``, ``r = ||E||_F``, ``g = ||W* W - I||_F``.
    ``W W*`` has eigenvalues in ``{0} u [1 - g, 1 + g]``, so
    ``||Q - I/2||_2 <= 1/2 + g``; ``Q^2 - Q = W (W* W - I) W*`` in both
    forms, and ``M^2 - M = Q^2 - Q + (Q - I/2) E + E (Q - I/2) + E^2``.  So
    ``||M - M*||_F <= 2r``, ``||M^2 - M||_F <= (1 + g) g + (1 + 2g) r + r^2``
    and, where Q has rank n (the complement only at d = 2n),
    ``|tr M - n| <= sqrt(d) r + sqrt(n) g``: with ``r, g <= eq_tol / 4``
    both defects are at most ``eq_tol / 2 + eq_tol^2 / 4`` and, while
    ``(sqrt(d) + sqrt(n)) eq_tol <= 4 rank_tol`` (d < 1.6e7 by default),
    M passes ``projection_rank`` with rank n.  A stack with any other
    output (NaN and inf fail ``<=``) is validated whole, naming a failing
    sample by its index in the run (samples come from ``_sampled``).
    Fewer than one sample raises ``ValueError``: it would certify nothing.
    """
    d, n = phi.ambient_dim, phi.rank
    v, eye, cover = as_complex(v), np.eye(d, dtype=np.complex128), tol.eq_tol / 4
    vouches = (not complement or d == 2 * n) and (np.sqrt(d) + np.sqrt(n)) * cover <= tol.rank_tol
    worst = 0.0
    for first, b, _, _, outputs, mapped in _sampled(phi, num_samples, seed, tol):
        w = v @ (b.conj() if antiunitary else b)
        predicted = w @ _adjoint(w)
        with np.errstate(invalid="ignore"):  # a non-finite output's residual is NaN or inf
            residuals = np.linalg.norm(mapped - (eye - predicted if complement else predicted), axis=(-2, -1))
        gram = np.linalg.norm(_adjoint(w) @ w - np.eye(n), axis=(-2, -1))
        if not (vouches and np.all(residuals <= cover) and np.all(gram <= cover)):
            phi._validated(outputs, mapped, first)
        worst = np.maximum(worst, np.max(residuals))  # a NaN residual stays NaN
    return float(worst)


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


def _classify(phi: RankNMap, cfg: ReconstructionConfig, tol: ToleranceConfig, accept_tol: float) -> ReconstructionResult:
    """Block query plan -> Bargmann reading -> fit, gate, polish -> verification.

    The map is read at rank ``k = min(n, d - n)``, through ``dualize`` when
    n > d/2 (a conjugation inducing the dual induces the map), from one
    stack of queries, and fitted once, in the reading ``_reading`` picks;
    the fit must match its queries within ``FIT_GATE`` accept_tol before
    it is polished and verified on fresh samples against the map itself.
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
    if not residual <= FIT_GATE * accept_tol:
        return _unclassified(f"{label} fits its own queries only to {residual:.3e} > {FIT_GATE:g} x accept_tol")
    v = canonicalize_global_phase(as_complex(_polish(images, v, frames, _POLISH_STOP * accept_tol)))
    residual = verify_conjugation(phi, v, antiunitary, _VERIFY_SAMPLES, seed, tol, complement=complement)
    if not residual <= accept_tol:
        return _unclassified(f"{label} fails verification (residual {residual:.3e} > {accept_tol:.1e})")
    return ReconstructionResult(variant, v=v, antiunitary=antiunitary, residual=residual)


def reconstruct(
    phi: RankNMap,
    cfg: ReconstructionConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReconstructionResult:
    """Classify an angle-preserving map and recover its inducing isometry.

    Classification and verification (on 50 fresh samples) run first, and
    an accepted result is returned as it comes, without screening.
    Otherwise the map is screened on 20 pairs from ``cfg.seed``: a
    discrepancy above ``accept_tol = 10 spec_tol`` returns
    ``not_angle_preserving`` with the screen's witness, and else the
    classification's ``preserving_unclassified`` result stands.
    """
    cfg = cfg or ReconstructionConfig()
    d, n = phi.ambient_dim, phi.rank
    if not 1 <= n < d:
        raise BadRank(f"reconstruction needs 1 <= n < d, got n={n}, d={d}")

    accept_tol = _ACCEPT_FACTOR * tol.spec_tol
    result = _classify(phi, cfg, tol, accept_tol)
    if result.accepted:
        return result
    report = screen_preservation(phi, _SCREEN_PAIRS, cfg.seed, tol)
    if report.max_discrepancy > accept_tol:
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

    A conjugation inducing the dual induces the original map, in the same
    family, and the dual's verification settles both: it queries phi on
    ``I - P`` for Haar samples P of rank d - n, so on Haar samples of rank
    n, validating phi's outputs under the same rules, and its residual is
    the direct one, since ``||(I - M) - (I - Q)|| = ||M - Q||`` (up to the
    polar factor's ``||I - V V*||``).  So a result is returned as the dual
    gives it, a witness from dual screening at rank d - n.
    """
    inner = reconstruct(dualize(phi, tol), cfg, tol)
    if inner.variant == VARIANT_NOT_PRESERVING:
        return replace(inner, notes=f"witness pair has dual rank {phi.ambient_dim - phi.rank}")
    return inner

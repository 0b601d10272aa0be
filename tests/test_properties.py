"""Property-based tests over random (d, n, field) with d <= 8, and d <= 12
for the reconstruction's block query plan."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasswig import (
    InternalInconsistency,
    NotAProjection,
    Projection,
    RankNMap,
    ReconstructionConfig,
    VARIANT_CONJUGATION,
    VARIANT_EXCEPTIONAL,
    VARIANT_NOT_PRESERVING,
    align_phase,
    dualize,
    haar_random_unitary,
    Subspace,
    principal_angles,
    principal_angles_spectral,
    principal_angles_svd,
    projection_rank,
    reconstruct,
    sample_projection,
    sample_projections,
    screen_preservation,
    spectrum_discrepancy,
    verify_conjugation,
)
import grasswig.maps
import grasswig.reconstruction
from grasswig.extension import extend_orthonormal
from grasswig.linalg import haar_frames_from_rng
from grasswig.maps import MapSpec, instantiate
from grasswig.reconstruction import _ACCEPT_FACTOR, _SCREEN_PAIRS
from grasswig.tolerances import DEFAULT_TOL

# Few examples each: the suite's wall time stays within a few seconds.  The
# examples are drawn by the profile conftest.py loads: the same ones on every
# run by default, fresh ones under --hypothesis-profile=random.
SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def shapes(draw, min_d=2):
    """(d, n, field, antiunitary, seed) with 1 <= n < d <= 8."""
    d = draw(st.integers(min_d, 8))
    n = draw(st.integers(1, d - 1))
    field = draw(st.sampled_from(("real", "complex")))
    antiunitary = field == "complex" and draw(st.booleans())
    return d, n, field, antiunitary, draw(st.integers(0, 2**32 - 1))


def conjugate(v, antiunitary, m):
    return v @ (m.conj() if antiunitary else m) @ v.conj().T


@SETTINGS
@given(shapes(), st.integers(1, 12), st.data())
def test_stacked_validator_accepts_haar_samples_and_rejects_a_perturbed_one(shape, count, data):
    d, n, field, _, seed = shape
    stack, samples = sample_projections(np.random.default_rng(seed), count, d, n, field)
    assert list(projection_rank(stack)) == [n] * count
    assert all(p.rank == n for p in samples)
    i = data.draw(st.integers(0, count - 1))
    bad = np.array(stack)
    bad[i] = bad[i] * (1.0 + 1e-6)  # Hermitian, but no longer idempotent
    with pytest.raises(NotAProjection, match=f"matrix {i}: "):
        projection_rank(bad)


def extension_inputs(d, n, field, sets):
    """The projections ``extend_orthonormal`` sends to the oracle, recorded
    by an identity oracle."""
    inputs = []

    def record(p):
        inputs.append(p)
        return p.matrix

    for columns in sets:
        extend_orthonormal(RankNMap(d, n, record, field=field), columns)
    return inputs


def assert_rank_n_projections(projections, n):
    # what the package wraps without a check must pass the check
    assert list(projection_rank(np.array([p.matrix for p in projections]))) == [n] * len(projections)
    assert all(p.rank == n for p in projections)


@SETTINGS
@given(shapes())
def test_unchecked_extension_inputs_pass_the_validator(shape):
    # sampled stacks: test_stacked_validator_accepts_haar_samples_and_rejects_a_perturbed_one
    d, n, field, _, seed = shape
    haar = haar_random_unitary(d, seed, field)[:, : min(d, 2 * n + 1)]
    assert_rank_n_projections(extension_inputs(d, n, field, [np.eye(d), haar]), n)


@pytest.mark.parametrize("n", [8, 16])
def test_unchecked_samples_and_extension_inputs_pass_the_validator_at_d_64(n):
    _, samples = sample_projections(np.random.default_rng(n), 4, 64, n)
    assert_rank_n_projections(samples, n)
    haar = haar_random_unitary(64, n)[:, : 2 * n + 1]
    assert_rank_n_projections(extension_inputs(64, n, "complex", [np.eye(64), haar]), n)


@SETTINGS
@given(shapes())
def test_angles_are_invariant_under_unitary_and_antiunitary_conjugation(shape):
    d, n, field, antiunitary, seed = shape
    rng = np.random.default_rng(seed)
    p, q = sample_projection(rng, d, n, field), sample_projection(rng, d, n, field)
    v = haar_random_unitary(d, seed, field)
    before = principal_angles(p, q)
    after = principal_angles(
        Projection(conjugate(v, antiunitary, p.matrix)), Projection(conjugate(v, antiunitary, q.matrix))
    )
    assert np.max(np.abs(before.angles - after.angles)) <= 1e-6
    assert np.max(np.abs(before.cos2_spectrum - after.cos2_spectrum)) <= 1e-10


@SETTINGS
@given(st.integers(1, 8), st.data())
def test_projection_and_basis_routes_give_the_same_angles(d, data):
    n = data.draw(st.integers(1, d))
    field = data.draw(st.sampled_from(("real", "complex")))
    bp, bq = haar_frames_from_rng(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), 2, d, n, field)
    p, q = Projection(bp @ bp.conj().T, rank=n), Projection(bq @ bq.conj().T, rank=n)
    from_projections = principal_angles(p, q).angles
    from_bases = principal_angles_svd(Subspace(bp), Subspace(bq)).angles
    assert np.max(np.abs(from_projections - from_bases)) <= 1e-12
    spectral = principal_angles_spectral(p, q).angles
    assert np.max(np.abs(from_projections - spectral)) <= 1e-7
    assert np.max(np.abs(from_bases - spectral)) <= 1e-7


@SETTINGS
@given(shapes())
def test_dualize_is_an_involution(shape):
    d, n, field, antiunitary, seed = shape
    v = haar_random_unitary(d, seed, field)
    phi = instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field)
    twice = dualize(dualize(phi))
    assert (twice.ambient_dim, twice.rank) == (d, n)
    _, samples = sample_projections(np.random.default_rng(seed + 1), 3, d, n, field)
    for p in samples:
        assert np.max(np.abs(twice.evaluate(p).matrix - phi.evaluate(p).matrix)) <= 1e-12


@SETTINGS
@given(shapes())
def test_reconstruct_recovers_a_planted_conjugation(shape):
    d, n, field, antiunitary, seed = shape
    v = haar_random_unitary(d, seed, field)
    phi = instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field)
    result = reconstruct(phi, ReconstructionConfig(seed=seed % 1000))
    assert result.variant == VARIANT_CONJUGATION
    assert result.antiunitary is antiunitary
    assert np.max(np.abs(result.v - align_phase(result.v, v) * v)) <= 1e-7


@SETTINGS
@given(st.integers(2, 4), st.sampled_from(("real", "complex")), st.booleans(), st.integers(0, 2**32 - 1))
def test_reconstruct_recovers_a_planted_complement_of_a_conjugation(n, field, anti, seed):
    d, antiunitary = 2 * n, field == "complex" and anti
    v = haar_random_unitary(d, seed, field)
    conjugation = MapSpec("conjugation", matrix=v, antiunitary=antiunitary)
    phi = instantiate(MapSpec("compose", parts=(MapSpec("complement"), conjugation)), d, n, field)
    result = reconstruct(phi, ReconstructionConfig(seed=seed % 1000))
    assert result.variant == VARIANT_EXCEPTIONAL
    assert result.antiunitary is antiunitary
    assert np.max(np.abs(result.v - align_phase(result.v, v) * v)) <= 1e-7


def counted(phi):
    """phi behind an oracle that records each input it is called with."""
    calls = []

    def fn(p):
        calls.append((p.matrix + 0.0).tobytes())  # -0.0 and +0.0 count as one input
        return phi.evaluate(p)

    return RankNMap(phi.ambient_dim, phi.rank, fn, field=phi.field), calls


def assert_block_plan_recovers(d, n, field, antiunitary, complement, seed):
    """The planted V is recovered, with ceil(d/k) - 1 block queries, three
    reference queries (four at d = 2n, n > 1) and 50 verification
    evaluations, k = min(n, d - n), and no input twice."""
    v = haar_random_unitary(d, seed, field)
    spec = MapSpec("conjugation", matrix=v, antiunitary=antiunitary)
    if complement:
        spec = MapSpec("compose", parts=(MapSpec("complement"), spec))
    phi, calls = counted(instantiate(spec, d, n, field))
    result = reconstruct(phi, ReconstructionConfig(seed=seed % 1000))
    assert result.variant == (VARIANT_EXCEPTIONAL if complement else VARIANT_CONJUGATION)
    assert result.antiunitary is antiunitary
    assert np.max(np.abs(result.v - align_phase(result.v, v) * v)) <= 1e-7
    k = min(n, d - n)
    assert len(calls) == -(-d // k) - 1 + (4 if d == 2 * n > 2 else 3) + 50
    assert len(set(calls)) == len(calls)


@SETTINGS
@given(st.integers(2, 12), st.data())
def test_block_plan_recovers_a_planted_isometry_at_its_exact_budget(d, data):
    # partial last blocks, n > d/2 (read through complement queries) and both d = 2n families
    n = data.draw(st.integers(1, d - 1))
    field = data.draw(st.sampled_from(("real", "complex")))
    antiunitary = field == "complex" and data.draw(st.booleans())
    complement = d == 2 * n > 2 and data.draw(st.booleans())
    assert_block_plan_recovers(d, n, field, antiunitary, complement, data.draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("n", [8, 16, 60])
def test_block_plan_recovers_a_planted_isometry_at_large_dimension(d, n):
    assert_block_plan_recovers(d, n, "complex", n == 16, False, d + n)


@st.composite
def map_families(draw):
    """(phi, seed): a conjugation, its d = 2n complement, or either with noise."""
    d, n, field, antiunitary, seed = draw(shapes())
    complement = d % 2 == 0 and draw(st.booleans())
    n = d // 2 if complement else n
    spec = MapSpec("conjugation", matrix=haar_random_unitary(d, seed, field), antiunitary=antiunitary)
    if complement:
        spec = MapSpec("compose", parts=(MapSpec("complement"), spec))
    sigma = draw(st.sampled_from((None, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3)))
    if sigma is not None:
        spec = MapSpec("noisy", base=spec, sigma=sigma, seed=seed)
    return instantiate(spec, d, n, field), seed


@SETTINGS
@given(map_families())
def test_a_rejection_carries_the_screen_witness_bit_for_bit(family):
    # a rejection's witness replays: its four matrices rescore to the
    # reported discrepancy exactly.  It is the worst of the reading's scored
    # pairs when that pair clears accept_tol, and otherwise the fallback
    # screen's witness, bit for bit
    phi, seed = family
    cfg = ReconstructionConfig(seed=seed % 1000)
    with mock.patch.object(grasswig.reconstruction, "screen_preservation", wraps=screen_preservation) as screen:
        result = reconstruct(phi, cfg)
    if result.accepted:
        assert result.residual <= _ACCEPT_FACTOR * DEFAULT_TOL.spec_tol
    if result.variant != VARIANT_NOT_PRESERVING:
        return
    witness = (result.witness_p, result.witness_q, result.witness_phi_p, result.witness_phi_q)
    assert result.discrepancy == spectrum_discrepancy(*witness) > _ACCEPT_FACTOR * DEFAULT_TOL.spec_tol
    if not screen.called:
        return
    report = screen_preservation(phi, _SCREEN_PAIRS, cfg.seed)
    assert result.discrepancy == report.max_discrepancy
    pairs = zip(witness, (report.witness_p, report.witness_q, report.witness_phi_p, report.witness_phi_q))
    for got, expected in pairs:
        assert np.array_equal(got.matrix, expected.matrix)


@SETTINGS
@given(
    shapes(),
    st.sampled_from(("plain", "complement", "complement off d = 2n")),
    st.sampled_from(("random", "skew", "aligned")),
    st.floats(0.0, 0.98),
    st.floats(0.0, 0.98),
    st.sampled_from(("residual", "gram")),
    st.floats(1.02, 4.0),
)
# n > d/2 samples I - b b* with d x (d - n) frames b: the Gram defect near
# its limit, predicted as I - W W* (plain) and as W W* (off d = 2n)
@example((3, 2, "complex", False, 3), "plain", "aligned", 0.98, 0.98, "gram", 1.02)
@example((3, 2, "complex", True, 11), "plain", "random", 0.5, 0.98, "residual", 1.02)
@example((3, 2, "real", False, 5), "plain", "skew", 0.98, 0.98, "residual", 1.02)
@example((3, 2, "complex", False, 7), "complement off d = 2n", "aligned", 0.98, 0.98, "gram", 1.02)
def test_a_residual_within_a_quarter_eq_tol_vouches_for_a_projection_of_rank_n(
    shape, prediction, kind, r_scale, g_scale, outside, scale
):
    # verification skips projection_rank for an output M whose residual r
    # against W W* (or I - W W*), W = V tau(b), and W's Gram defect g are
    # both within eq_tol / 4.  Such an M must pass projection_rank with
    # rank n; with r or g just past eq_tol / 4 the output must reach it.
    d, n, field, anti, seed = shape
    complement = prediction != "plain"
    if prediction == "complement":
        d = 2 * n
    elif complement and d == 2 * n:
        d, n = (3, 1) if d == 2 else (d, n - 1)
    rng = np.random.default_rng(seed)
    quarter = DEFAULT_TOL.eq_tol / 4
    u = haar_random_unitary(d, seed % 997, field)

    k = min(n, d - n)  # the width of verification's frames b

    def run(r_scale, g_scale):
        # V = sqrt(1 + t) U: W* W - I = t I_k, so g = t sqrt(k)
        v = np.sqrt(1.0 + g_scale * quarter / np.sqrt(k)) * u
        outputs = []

        def fn(p):
            q = v @ (p.matrix.conj() if anti else p.matrix) @ v.conj().T
            if k < n:  # P = I - b b*, predicted as I - W W* = V tau(P) V* + I - V V*
                q = q + np.eye(d) - v @ v.conj().T
            q = np.eye(d) - q if complement else q
            x = {
                "random": rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if field == "complex" else 0),
                "skew": (lambda g: g - g.conj().T)(rng.standard_normal((d, d)) + 0j),
                "aligned": q,  # moves the trace and the idempotency defect most
            }[kind]
            outputs.append(q + r_scale * quarter * x / np.linalg.norm(x))
            return outputs[-1]

        phi = RankNMap(d, n, fn, field=field)
        with mock.patch.object(grasswig.maps, "projection_rank", wraps=grasswig.maps.projection_rank) as validate:
            try:
                verify_conjugation(phi, v, anti, 5, seed=1, complement=complement)
            except NotAProjection:
                pass
        return outputs, validate.call_args_list

    if prediction == "complement off d = 2n":
        # I - W W* has rank d - n there: the residual vouches for nothing
        with pytest.raises(InternalInconsistency, match=f"rank {d - n} for input 0"):
            run(r_scale, g_scale)
        return
    outputs, validated = run(r_scale, g_scale)
    assert validated == []
    assert all(projection_rank(m) == n for m in outputs)
    outputs, validated = run(scale if outside == "residual" else r_scale, scale if outside == "gram" else g_scale)
    assert len(validated) == 1 and validated[0].args[0].shape == (5, d, d)

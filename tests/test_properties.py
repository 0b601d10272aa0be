"""Property-based tests over random (d, n, field) with d <= 8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasswig import (
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
)
from grasswig.extension import extend_orthonormal
from grasswig.linalg import haar_frames_from_rng
from grasswig.maps import MapSpec, instantiate

# Few examples each: the suite's wall time stays within a few seconds.
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

    extend_orthonormal(RankNMap(d, n, record, field=field), sets)
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
    # reconstruct screens only after classification fails; the witness it
    # returns must be the one the screen alone finds
    phi, seed = family
    cfg = ReconstructionConfig(seed=seed % 1000)
    result = reconstruct(phi, cfg)
    if result.accepted:
        assert result.residual <= cfg.accept_tol
    if result.variant != VARIANT_NOT_PRESERVING:
        return
    report = screen_preservation(phi, cfg.screen_samples, cfg.seed)
    assert result.discrepancy == report.max_discrepancy > cfg.accept_tol
    pairs = zip(
        (result.witness_p, result.witness_q, result.witness_phi_p, result.witness_phi_q),
        (report.witness_p, report.witness_q, report.witness_phi_p, report.witness_phi_q),
    )
    for got, expected in pairs:
        assert np.array_equal(got.matrix, expected.matrix)

import numpy as np
import pytest

from grasswig import (
    BadRank,
    DimensionMismatch,
    NotAProjection,
    NotCommuting,
    Projection,
    Subspace,
    are_orthogonal,
    decompose_commuting,
    haar_random_unitary,
    projection_distance,
    projection_rank,
    projector_from_subspace,
    random_projection,
    sample_projection,
    sample_projections,
    subspace_from_projector,
    trace_product,
)
from grasswig.linalg import frobenius, haar_frames_from_rng


def diag_projection(bits):
    return Projection(np.diag(np.asarray(bits, dtype=np.complex128)))


def line(t):
    """Rank-1 projection onto span{(cos t, sin t)} in d = 2."""
    v = np.array([np.cos(t), np.sin(t)], dtype=np.complex128)
    return Projection(np.outer(v, v.conj()))


def test_projector_from_standard_basis():
    s = Subspace(np.eye(4, dtype=complex)[:, :2])
    p = projector_from_subspace(s)
    assert p.rank == 2
    assert np.allclose(p.matrix, np.diag([1, 1, 0, 0]))


def test_projector_full_rank_is_identity():
    s = Subspace(haar_random_unitary(3, 1))
    p = projector_from_subspace(s)
    assert frobenius(p.matrix - np.eye(3)) < 1e-12


def test_projector_dyad_formula():
    s = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    p = projector_from_subspace(s)
    assert np.allclose(p.matrix, np.full((2, 2), 0.5))


def test_subspace_round_trip():
    p = random_projection(6, 3, seed=5)
    s = subspace_from_projector(p)
    assert s.rank == 3
    assert projection_distance(projector_from_subspace(s), p) <= 1e-9


def test_subspace_validates_orthonormality():
    with pytest.raises(NotAProjection):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_projection_rank_examples():
    assert projection_rank(np.diag([1.0, 1.0, 0.0])) == 2
    assert projection_rank(np.zeros((3, 3))) == 0
    assert projection_rank(np.eye(5)) == 5


def test_projection_rank_rejections():
    with pytest.raises(NotAProjection):
        projection_rank(np.diag([0.5, 1.0]))  # not idempotent
    with pytest.raises(NotAProjection):
        projection_rank(np.array([[1.0, 1e-3], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(NotAProjection):
        Projection(np.diag([1.0, 1.0]), rank=1)  # declared rank contradicts the trace


def test_trace_product_equal_and_orthogonal():
    p = random_projection(5, 2, seed=1)
    assert abs(trace_product(p, p) - 2.0) <= 1e-12
    a = diag_projection([1, 1, 0, 0])
    b = diag_projection([0, 0, 1, 1])
    assert abs(trace_product(a, b)) <= 1e-15


def test_trace_product_lines_at_30_degrees():
    assert abs(trace_product(line(0.0), line(np.pi / 6)) - 0.75) <= 1e-12


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_product(diag_projection([1, 0]), diag_projection([1, 0, 0]))


def test_are_orthogonal():
    a = diag_projection([1, 0, 0, 0])
    b = diag_projection([0, 0, 1, 1])
    assert are_orthogonal(a, b)
    assert not are_orthogonal(a, diag_projection([1, 0, 1, 0]))
    assert not are_orthogonal(line(0.0), line(np.pi / 6))


def test_orthogonality_criteria_agree_on_samples():
    # trace criterion vs operator criterion, on orthogonal and generic pairs
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        k = int(rng.integers(1, d))
        p = Projection(basis[:, :k] @ basis[:, :k].conj().T)
        q = Projection(basis[:, k:] @ basis[:, k:].conj().T)
        assert are_orthogonal(p, q)
        assert frobenius(p.matrix @ q.matrix) <= 1e-10
        g = sample_projection(rng, d, k)
        assert are_orthogonal(p, g) == (trace_product(p, g) <= 1e-8)


def test_decompose_commuting_diagonal_case():
    p = diag_projection([1, 1, 0, 0])
    q = diag_projection([0, 1, 1, 0])
    dec = decompose_commuting(p, q)
    assert np.allclose(dec.intersection.matrix, np.diag([0, 1, 0, 0]))
    assert np.allclose(dec.p_remainder.matrix, np.diag([1, 0, 0, 0]))
    assert np.allclose(dec.q_remainder.matrix, np.diag([0, 0, 1, 0]))


def test_decompose_commuting_equal_inputs():
    p = random_projection(5, 2, seed=8)
    dec = decompose_commuting(p, p)
    assert projection_distance(dec.intersection, p) <= 1e-12
    assert dec.p_remainder.rank == 0
    assert dec.q_remainder.rank == 0


def test_decompose_commuting_rejects_45_degree_lines():
    # QPQ = Q/2 there: eigenvalue one half, nowhere near idempotent
    p, q = line(0.0), line(np.pi / 4)
    r = q.matrix @ p.matrix @ q.matrix
    assert np.allclose(r, q.matrix / 2.0)
    with pytest.raises(NotCommuting):
        decompose_commuting(p, q)


def test_decompose_commuting_random_conjugated_pairs():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        mask_p = rng.integers(0, 2, size=d)
        mask_q = rng.integers(0, 2, size=d)
        p = Projection(u @ np.diag(mask_p.astype(complex)) @ u.conj().T)
        q = Projection(u @ np.diag(mask_q.astype(complex)) @ u.conj().T)
        dec = decompose_commuting(p, q)
        reassembled_p = dec.intersection.matrix + dec.p_remainder.matrix
        reassembled_q = dec.intersection.matrix + dec.q_remainder.matrix
        assert frobenius(reassembled_p - p.matrix) <= 1e-9
        assert frobenius(reassembled_q - q.matrix) <= 1e-9


def test_decompose_commuting_matches_commutator_on_generic_pairs():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        p = sample_projection(rng, d, int(rng.integers(1, d)))
        q = sample_projection(rng, d, int(rng.integers(1, d)))
        commutes = frobenius(p.matrix @ q.matrix - q.matrix @ p.matrix) <= 1e-9
        try:
            decompose_commuting(p, q)
            outcome = True
        except NotCommuting:
            outcome = False
        assert outcome == commutes


def test_subspace_from_projector_rejects_stray_eigenvalues():
    from grasswig import ToleranceConfig

    loose = ToleranceConfig(eq_tol=1e-4)
    # trace is exactly 2 but two eigenvalues sit 3e-6 away from {0, 1},
    # beyond the default rank_tol of 1e-6
    m = np.diag([1.0 + 3e-6, 1.0 - 3e-6, 0.0]).astype(complex)
    p = Projection(m, tol=loose)
    with pytest.raises(NotAProjection):
        subspace_from_projector(p)


def test_projection_matrices_are_immutable():
    p = random_projection(3, 1, seed=0)
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 5.0


def test_projection_rank_validates_a_stack_and_names_the_failure():
    stack, samples = sample_projections(np.random.default_rng(4), 5, 6, 2)
    assert list(projection_rank(stack)) == [2] * 5
    assert not stack.flags.writeable
    for i, p in enumerate(samples):
        assert p.rank == 2 and np.shares_memory(p.matrix, stack)
        assert np.array_equal(p.matrix, stack[i])
    bad = np.array(stack)
    bad[3] = bad[3] + 1e-6 * np.eye(6)
    with pytest.raises(NotAProjection, match="matrix 3: idempotency"):
        projection_rank(bad)
    bad[3] = stack[3]
    bad[1, 0, 1] += 1e-6
    with pytest.raises(NotAProjection, match="matrix 1: Hermitian"):
        projection_rank(bad)
    with pytest.raises(NotAProjection, match="Hermitian defect nan"):
        projection_rank(np.full((3, 3), np.nan))


def test_sample_projection_is_the_first_of_a_stack():
    for field in ("real", "complex"):
        stack, _ = sample_projections(np.random.default_rng(8), 4, 5, 3, field)
        rng = np.random.default_rng(8)
        singles = [sample_projection(rng, 5, 3, field) for _ in range(4)]
        assert all(np.array_equal(p.matrix, m) for p, m in zip(singles, stack))
        assert np.array_equal(random_projection(5, 3, 8, field).matrix, stack[0])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_sample_projections_span_the_first_columns_of_haar_unitaries(field):
    # each basis is a Haar frame, the phase-fixed QR of d x n Gaussians
    # (pinned in test_linalg), distributed as the first n columns of a Haar
    # unitary; the generator advances by exactly 3 d n normals (x2 complex)
    for d, n in ((1, 1), (5, 1), (5, 3), (8, 8), (40, 8)):
        rng = np.random.default_rng(11)
        stack, _ = sample_projections(rng, 3, d, n, field)
        b = haar_frames_from_rng(np.random.default_rng(11), 3, d, n, field)
        assert np.array_equal(stack, b @ b.conj().swapaxes(-1, -2))
        reference = np.random.default_rng(11)
        reference.standard_normal(3 * d * n * (2 if field == "complex" else 1))
        assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("n", [0, -1, 5])
def test_sample_projections_refuse_a_rank_outside_1_to_d(n):
    with pytest.raises(BadRank, match=f"n={n}, d=4"):
        sample_projections(np.random.default_rng(0), 2, 4, n)


def test_sample_projections_refuse_a_frame_that_is_not_orthonormal(monkeypatch):
    # the samples are checked on their d x n frames, not as d x d products
    import grasswig.projections as projections

    draw = projections.haar_frames_from_rng

    def skewed(*args):
        b = draw(*args)
        b[2, :, 0] *= np.sqrt(1.0 + 1e-6)  # Gram defect 1e-6 in frame 2
        return b

    monkeypatch.setattr(projections, "haar_frames_from_rng", skewed)
    for field in ("real", "complex"):
        with pytest.raises(NotAProjection, match="frame 2: Gram defect 1.000e-06"):
            sample_projections(np.random.default_rng(0), 4, 6, 2, field)


def test_complement_is_wrapped_with_the_complementary_rank():
    for d, n in ((6, 2), (5, 5), (4, 1)):
        p = random_projection(d, n, seed=3)
        c = p.complement()
        assert c.rank == d - n and projection_rank(c.matrix) == d - n
        assert np.array_equal(c.matrix, np.eye(d) - p.matrix)
        assert not c.matrix.flags.writeable

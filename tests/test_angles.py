import numpy as np
import pytest

from grasswig import (
    DimensionMismatch,
    InternalInconsistency,
    PrincipalAngles,
    Projection,
    RankMismatch,
    Subspace,
    angles_equal,
    haar_random_unitary,
    principal_angles,
    principal_angles_spectral,
    principal_angles_svd,
    random_projection,
    random_subspace,
    sample_projection,
    spectrum_discrepancy,
    subspace_from_projector,
    trace_product,
)
from grasswig.linalg import frobenius


def line(t, d=2):
    v = np.zeros(d, dtype=np.complex128)
    v[0], v[1] = np.cos(t), np.sin(t)
    return Projection(np.outer(v, v.conj()))


def test_spectral_equal_projections():
    p = random_projection(6, 3, seed=0)
    pa = principal_angles_spectral(p, p)
    assert np.allclose(pa.angles, 0.0, atol=1e-7)
    assert len(pa.angles) == 3
    assert len(pa.cos2_spectrum) == 6


def test_spectral_orthogonal_lines():
    p = Projection(np.diag([1.0, 0.0]).astype(complex))
    q = Projection(np.diag([0.0, 1.0]).astype(complex))
    pa = principal_angles_spectral(p, q)
    assert np.allclose(pa.angles, [np.pi / 2])


def test_spectral_line_at_30_degrees():
    pa = principal_angles_spectral(line(0.0), line(np.pi / 6))
    assert abs(pa.angles[0] - np.pi / 6) <= 1e-9


def test_svd_identical_bases():
    s = Subspace(random_subspace(5, 2, seed=1))
    pa = principal_angles_svd(s, s)
    assert np.allclose(pa.angles, 0.0, atol=1e-7)


def test_svd_orthogonal_complements_in_dim_2():
    a = Subspace(np.array([[1.0], [0.0]]))
    b = Subspace(np.array([[0.0], [1.0]]))
    pa = principal_angles_svd(a, b)
    assert np.allclose(pa.angles, [np.pi / 2])


def test_spectral_svd_cross_agreement():
    rng = np.random.default_rng(5)
    for _ in range(30):
        sp = Subspace(np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0])
        sq = Subspace(np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0])
        via_svd = principal_angles_svd(sp, sq)
        via_spec = principal_angles_spectral(
            Projection(sp.basis @ sp.basis.conj().T), Projection(sq.basis @ sq.basis.conj().T)
        )
        assert np.max(np.abs(via_svd.angles - via_spec.angles)) <= 1e-7


def test_angles_equal_reflexive_and_under_complement():
    rng = np.random.default_rng(6)
    p = sample_projection(rng, 4, 2)
    q = sample_projection(rng, 4, 2)
    assert angles_equal(p, q, p, q, 1e-12)
    assert angles_equal(p, q, p.complement(), q.complement(), 1e-9)


def test_angles_equal_detects_difference():
    rng = np.random.default_rng(7)
    while True:
        p = sample_projection(rng, 4, 2)
        q = sample_projection(rng, 4, 2)
        if principal_angles_spectral(p, q).angles.max() > 0.1:
            break
    assert not angles_equal(p, q, p, p, 1e-8)


def test_angles_equal_input_validation():
    p2 = random_projection(4, 2, seed=1)
    q2 = random_projection(4, 2, seed=2)
    p3 = random_projection(5, 2, seed=3)
    with pytest.raises(DimensionMismatch):
        angles_equal(p2, q2, p3, p3, 1e-8)
    with pytest.raises(RankMismatch):
        angles_equal(p2, q2, random_projection(4, 1, seed=4), q2, 1e-8)
    with pytest.raises(RankMismatch):
        principal_angles_spectral(p2, random_projection(4, 1, seed=5))


def test_conjugation_invariance():
    rng = np.random.default_rng(8)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d))
        p = sample_projection(rng, d, n)
        q = sample_projection(rng, d, n)
        u = haar_random_unitary(d, int(rng.integers(0, 10_000)))
        up = Projection(u @ p.matrix @ u.conj().T, rank=n)
        uq = Projection(u @ q.matrix @ u.conj().T, rank=n)
        assert spectrum_discrepancy(p, q, up, uq) <= 1e-9


def test_cos2_sum_matches_trace_identity():
    rng = np.random.default_rng(9)
    for _ in range(40):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(1, d))
        p = sample_projection(rng, d, n)
        q = sample_projection(rng, d, n)
        pa = principal_angles_spectral(p, q)
        assert abs(pa.cos2_spectrum.sum() - trace_product(p, q)) <= 1e-10


def test_angle_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(40):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(1, d))
        p = sample_projection(rng, d, n)
        q = sample_projection(rng, d, n)
        forward = principal_angles_spectral(p, q)
        backward = principal_angles_spectral(q, p)
        # spectra of QPQ and PQP share their nonzero part exactly
        assert np.max(np.abs(forward.cos2_spectrum - backward.cos2_spectrum)) <= 1e-10
        if 2 * n <= d:
            # away from forced-zero angles the arccos route is well conditioned
            assert np.max(np.abs(forward.angles - backward.angles)) <= 1e-8


def test_complement_preserves_angles_at_half_dimension():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = sample_projection(rng, 2 * n, n)
        q = sample_projection(rng, 2 * n, n)
        before = principal_angles_spectral(p, q).angles
        after = principal_angles_spectral(p.complement(), q.complement()).angles
        assert np.max(np.abs(before - after)) <= 1e-8


SMALL_THETAS = (1e-6, 1e-9, 1e-12)


def relative_errors(p, q, bp, bq, thetas):
    return [
        float(np.max(np.abs(route.angles - thetas) / thetas))
        for route in (principal_angles(p, q), principal_angles_svd(Subspace(bp), Subspace(bq)))
    ]


def test_small_angles_remain_accurate():
    b0 = np.array([[1.0], [0.0]], dtype=np.complex128)
    for theta in SMALL_THETAS:
        b1 = np.array([[np.cos(theta)], [np.sin(theta)]], dtype=np.complex128)
        assert max(relative_errors(line(0.0), line(theta), b0, b1, np.array([theta]))) <= 1e-9, theta


def planted_pair(rng, d, thetas, field):
    """Bases of two subspaces at the given angles, in permuted coordinate
    planes with random phases.

    The phases are fourth (real field: second) roots of unity, so every
    stored entry is exact and the bases are orthonormal to the last bit.  A
    generic unit phase is stored with ``|phase|^2`` off 1 by about 1e-16,
    which moves a 1e-12 rad angle by a relative 3e-8 on every route, as
    any rounding of the basis does.
    """
    n = thetas.size
    perm = rng.permutation(d)
    roots = [1.0, -1.0, 1j, -1j] if field == "complex" else [1.0, -1.0]
    phases = rng.choice(np.array(roots, dtype=np.complex128), d)
    bp = np.zeros((d, n), dtype=np.complex128)
    bq = np.zeros((d, n), dtype=np.complex128)
    for k, theta in enumerate(thetas):
        i, j = perm[k], perm[n + k]
        bp[i, k] = phases[i]
        bq[i, k] = np.cos(theta) * phases[i]
        bq[j, k] = np.sin(theta) * phases[j]
    return bp, bq


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("theta", SMALL_THETAS)
def test_small_planted_angles_remain_accurate(field, theta):
    rng = np.random.default_rng([13, int(-np.log10(theta))])
    for _ in range(20):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, d // 2 + 1))
        thetas = theta * (1.0 + np.arange(n))
        bp, bq = planted_pair(rng, d, thetas, field)
        p, q = Projection(bp @ bp.conj().T, rank=n), Projection(bq @ bq.conj().T, rank=n)
        assert max(relative_errors(p, q, bp, bq, thetas)) <= 1e-9, (d, n)


def test_angles_near_a_right_angle_are_accurate():
    rng = np.random.default_rng(14)
    for delta in (1e-5, 1e-9):
        theta = np.pi / 2 - delta
        u = haar_random_unitary(6, int(rng.integers(0, 10_000)))
        bp = u[:, :2]
        bq = np.column_stack([np.cos(theta) * u[:, 0] + np.sin(theta) * u[:, 2], u[:, 3]])
        p, q = Projection(bp @ bp.conj().T), Projection(bq @ bq.conj().T)
        for route in (principal_angles(p, q), principal_angles_svd(Subspace(bp), Subspace(bq))):
            assert abs(route.angles[0] - theta) <= 1e-14


def test_a_rounded_basis_moves_a_tiny_angle_by_about_its_defect():
    # the routes trust a basis or projection accepted at eq_tol: a column of
    # norm 1 + 1e-10 has Gram and idempotency defect 2e-10, and a 1e-12 rad
    # pair built from it reads 2.0e-10 rad on both routes
    theta = 1e-12
    bp, bq = np.array([[1.0 + 1e-10], [0.0]]), np.array([[np.cos(theta)], [np.sin(theta)]])
    p, q = Projection(bp @ bp.T), Projection(bq @ bq.T)
    gram, idempotency = frobenius(bp.T @ bp - 1.0), frobenius(p.matrix @ p.matrix - p.matrix)
    assert 1.9e-10 <= min(gram, idempotency)
    routes = ((principal_angles_svd(Subspace(bp), Subspace(bq)), gram), (principal_angles(p, q), idempotency))
    for route, defect in routes:
        assert abs(route.angles[0] - theta) <= 1.1 * defect


def test_angle_check_accepts_a_tiny_angle_taken_from_its_sine():
    # cos^2 is flat at 0: the check catches 1e-3 here, but not 5e-5
    PrincipalAngles(np.array([1e-12]), np.array([1.0 - 4.4e-16, 0.0]))
    with pytest.raises(InternalInconsistency):
        PrincipalAngles(np.array([1e-3]), np.array([1.0, 0.0]))


def test_spectrum_excursion_is_an_error():
    with pytest.raises(InternalInconsistency):
        PrincipalAngles(np.array([0.0]), np.array([1.1, 0.0]))


def test_nan_in_angles_or_spectrum_is_an_error():
    for angles, cos2 in (([0.3], [np.nan, 0.0]), ([0.3], [np.cos(0.3) ** 2, np.nan]), ([np.nan], [0.5, 0.0])):
        with pytest.raises(InternalInconsistency):
            PrincipalAngles(np.array(angles), np.array(cos2))


def test_angles_pair_with_subspace_round_trip():
    p = random_projection(7, 3, seed=12)
    q = random_projection(7, 3, seed=13)
    sp, sq = subspace_from_projector(p), subspace_from_projector(q)
    assert np.max(np.abs(principal_angles_svd(sp, sq).angles - principal_angles_spectral(p, q).angles)) <= 1e-7

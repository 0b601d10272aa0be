import warnings

import numpy as np
import pytest

import grasswig as gw
from grasswig import (
    BadRank,
    ConvergenceFailure,
    NonHermitian,
    haar_random_unitary,
    hermitian_eig,
    random_projection,
    random_subspace,
    singular_values,
)
from grasswig.linalg import REAL, _phase_fixed_qr, frobenius, frobenius_stack, haar_frames_from_rng, scaled
from grasswig.maps import MapSpec, instantiate


def gaussian(rng, rows, cols, field):
    """Standard-Gaussian matrix over the field, as complex128."""
    z = rng.standard_normal((rows, cols))
    if field != REAL:
        z = (z + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
    return np.asarray(z, dtype=np.complex128)


def random_hermitian(rng, d, real=False):
    g = gaussian(rng, d, d, REAL if real else "complex")
    return (g + g.conj().T) / 2.0


def test_eig_identity():
    w, v = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eig_diagonal():
    w, v = hermitian_eig(np.diag([0.0, 1.0]))
    assert np.allclose(w, [0.0, 1.0])
    # eigenvectors are the standard basis up to phase
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_eig_symmetric_offdiagonal():
    w, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonHermitian):
        hermitian_eig(np.ones((2, 3)))


def test_eig_of_entries_too_large_to_square_without_a_warning():
    # the Hermitian defect is tested on the matrix over its largest entry,
    # at the unchanged bound eq_tol max(1, ||a||), so no product overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, _ = hermitian_eig(np.diag([1e200, 0.0]))
        assert w.tolist() == [0.0, 1e200]
        for entry in (1.0, 1e160, 1e200):
            hermitian_eig(np.array([[entry, 1e-10 * entry], [0.0, 0.0]]))
            with pytest.raises(NonHermitian):
                hermitian_eig(np.array([[entry, 1e-8 * entry], [0.0, 0.0]]))


def test_scaled_divides_by_the_largest_real_or_imaginary_part():
    # the scale is the largest |Re| or |Im|, so products of the scaled
    # entries cannot overflow; a zero or non-finite matrix comes back as it is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = np.array([[1e200, -3e200j], [0.0, 2e199]])
        x, scale = scaled(a)
        assert scale == 3e200 and np.array_equal(x, a / 3e200)
        assert np.abs(x).max() == 1.0 and np.isfinite(np.vdot(x, x))
        for special in (np.zeros((2, 2)), np.diag([np.inf, 0.0]), np.diag([np.nan, 1.0]), np.diag([complex(0.0, np.inf), 0.0])):
            x, scale = scaled(special)
            assert scale == 1.0 and x is special


def test_eig_ascending_and_reconstruction():
    rng = np.random.default_rng(7)
    for trial in range(200):
        d = int(rng.integers(1, 17))
        m = random_hermitian(rng, d, real=bool(trial % 2))
        w, v = hermitian_eig(m)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(m - v @ np.diag(w) @ v.conj().T) <= 1e-10 * max(1.0, frobenius(m))
        assert frobenius(v.conj().T @ v - np.eye(d)) <= 1e-12


def test_svd_zero_matrix():
    s = singular_values(np.zeros((3, 2)))
    assert s.shape == (2,) and np.allclose(s, 0.0)


def test_svd_identity():
    assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])


def test_svd_unit_dyad():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    s = singular_values(np.outer(x, y.conj()))
    assert abs(s[0] - 1.0) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_singular_values_are_descending_and_square_to_the_gram_spectrum():
    rng = np.random.default_rng(11)
    for trial in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        m = gaussian(rng, rows, cols, REAL if trial % 2 else "complex")
        s = singular_values(m)
        assert s.shape == (min(rows, cols),)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        gram = np.linalg.eigvalsh(m.conj().T @ m)[::-1][: s.size]
        assert np.max(np.abs(s**2 - gram)) <= 1e-10 * max(1.0, frobenius(m) ** 2)


def test_singular_values_raise_convergence_failure(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverge)
    with pytest.raises(ConvergenceFailure):
        singular_values(np.eye(2))


def test_haar_scalar_case():
    u = haar_random_unitary(1, 0)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_haar_determinism():
    a = haar_random_unitary(5, 123)
    b = haar_random_unitary(5, 123)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, haar_random_unitary(5, 124))


def test_haar_unitarity_d4_seed7():
    u = haar_random_unitary(4, 7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_haar_real_field_is_orthogonal():
    u = haar_random_unitary(6, 2, REAL)
    assert np.all(u.imag == 0.0)
    assert frobenius(u.T @ u - np.eye(6)) <= 1e-12


def test_haar_first_entry_statistics():
    # E|U_11|^2 = 1/d for Haar measure
    total = 0.0
    for seed in range(2000):
        total += abs(haar_random_unitary(4, seed)[0, 0]) ** 2
    assert abs(total / 2000 - 0.25) <= 0.02


def test_random_subspace_full_and_single():
    full = random_subspace(3, 3, 5)
    assert np.array_equal(full, haar_random_unitary(3, 5))
    col = random_subspace(3, 1, 5)
    assert abs(np.linalg.norm(col) - 1.0) < 1e-12
    # a frame is drawn from d x n Gaussians, not cut from the d x d unitary
    assert np.array_equal(col, reference_frame(np.random.default_rng(5), 3, 1, "complex"))
    for field in (REAL, "complex"):
        for d, n in ((3, 1), (6, 2), (9, 9)):
            b = random_subspace(d, n, 4, field)
            assert np.array_equal(b @ b.conj().T, random_projection(d, n, 4, field).matrix)


def test_random_subspace_determinism_and_bounds():
    assert np.array_equal(random_subspace(4, 2, 9), random_subspace(4, 2, 9))
    with pytest.raises(BadRank):
        random_subspace(3, 4, 0)


def reference_frame(rng, d, n, field):
    """QR of one d x n Gaussian draw, the R diagonal's phases moved into Q."""
    g = gaussian(rng, d, n, field)
    q, r = np.linalg.qr(g.real if field == REAL else g)
    diag = np.diagonal(r).astype(np.complex128)
    return q.astype(np.complex128) * (diag / np.abs(diag))


def test_haar_stack_equals_single_draws_bit_for_bit():
    for field in (REAL, "complex"):
        for d, n in ((1, 1), (3, 3), (8, 8), (17, 17), (3, 1), (8, 3), (17, 5)):
            rng_stack = np.random.default_rng(d)
            stack = haar_frames_from_rng(rng_stack, 6, d, n, field)
            rng = np.random.default_rng(d)
            singles = np.stack([haar_frames_from_rng(rng, 1, d, n, field)[0] for _ in range(6)])
            assert np.array_equal(stack, singles)
            rng = np.random.default_rng(d)
            assert np.array_equal(stack, np.stack([reference_frame(rng, d, n, field) for _ in range(6)]))
            # the generator advanced by exactly 6 d n normals (twice that in complex)
            reference = np.random.default_rng(d)
            reference.standard_normal(6 * d * n * (1 if field == REAL else 2))
            assert rng_stack.bit_generator.state == reference.bit_generator.state
            assert frobenius(stack[-1].conj().T @ stack[-1] - np.eye(n)) <= 1e-12
            if field == REAL:
                assert np.all(stack.imag == 0.0)


def non_finite_cases():
    nan, inf = np.nan, np.inf
    identity = instantiate(MapSpec("identity"), 4, 2)
    for x in (nan, inf):
        v = np.eye(4, dtype=np.complex128)
        v[0, 1] = x
        yield pytest.param(gw.NonHermitian, lambda x=x: hermitian_eig(np.diag([x, 1.0])), id=f"hermitian_eig-{x}")
        yield pytest.param(gw.NotAProjection, lambda x=x: gw.Subspace(np.array([[x], [0.0]])), id=f"Subspace-{x}")
        yield pytest.param(gw.MatrixFormatError, lambda v=v: instantiate(MapSpec("conjugation", matrix=v), 4, 2), id=f"conjugation-{x}")
        yield pytest.param(gw.NotUnit, lambda x=x: gw.rank1_combination(np.array([x, 0, 0, 0]), 2), id=f"rank1_combination-{x}")
        yield pytest.param(gw.NotUnit, lambda x=x: gw.extend_to_rank1(identity, np.array([x, 0, 0, 0])), id=f"extend_to_rank1-{x}")
    yield pytest.param(gw.NonHermitian, lambda: hermitian_eig(np.diag([1 + inf * 1j, 1.0])), id="hermitian_eig-imaginary-inf")
    yield pytest.param(gw.NonHermitian, lambda: gw.extend_to_hermitian(identity, np.diag([nan, 1, 0, 0])), id="extend_to_hermitian-nan")


@pytest.mark.parametrize("error, call", non_finite_cases())
def test_non_finite_input_raises_its_typed_error_without_a_warning(error, call):
    # NaN fails every `x > tol` gate, and inf - inf warns: each trust
    # boundary tests finiteness first, then passes only `x <= tol`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_frobenius_stack_matches_numpy_norm_without_a_warning():
    rng = np.random.default_rng(8)
    for field in (REAL, "complex"):
        a = np.array([gaussian(rng, 7, 7, field) for _ in range(5)])
        a = a.real if field == REAL else a
        # contiguous, strided, transposed and a stack of views
        for stack in (a, a[:, ::2, 1:], a.swapaxes(1, 2), a[::2]):
            reference = np.linalg.norm(stack, axis=(-2, -1))
            assert np.allclose(frobenius_stack(stack), reference, rtol=1e-14, atol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry, expected in ((np.inf, np.inf), (complex(0.0, -np.inf), np.inf), (np.nan, np.nan), (1e200, np.inf)):
            stack = np.zeros((3, 4, 4), dtype=np.complex128)
            stack[1, 2, 3] = entry
            norms = frobenius_stack(stack)
            assert norms[0] == norms[2] == 0.0
            assert np.isnan(norms[1]) if np.isnan(expected) else norms[1] == expected


@pytest.mark.parametrize("field", [REAL, "complex"])
def test_haar_frames_scale_the_gaussians_as_the_quotient_does_bit_for_bit(field):
    # the complex block is scaled in place; numpy divides by a real scalar as
    # a multiply by its reciprocal, so the frames are those of (g0 + 1j g1) / sqrt(2)
    for count, d, n in ((4, 64, 8), (50, 8, 4), (3, 5, 5), (1, 1, 1)):
        g = np.random.default_rng(count + d).standard_normal((count, d, n) if field == REAL else (count, 2, d, n))
        z = g if field == REAL else (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
        expected = _phase_fixed_qr(np.asarray(z, dtype=np.complex128))
        got = haar_frames_from_rng(np.random.default_rng(count + d), count, d, n, field)
        assert got.dtype == np.complex128 and got.tobytes() == expected.tobytes()

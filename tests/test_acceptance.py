"""Acceptance suite: one test per criterion, at the stated sample counts and
tolerances, each printing a PASS/FAIL line (visible under ``pytest -s``).
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import grasswig as gw
from grasswig.cli import main as cli_main
from grasswig.linalg import frobenius
from grasswig.maps import MapSpec, instantiate
from conftest import local_dual


@contextmanager
def criterion(num, name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.monotonic() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS [{time.monotonic() - start:.1f}s]")


def conjugation_map(d, n, seed, antiunitary=False, field="complex"):
    v = gw.haar_random_unitary(d, seed, field)
    return instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field), v


def planted_deviation(recovered, planted):
    c = gw.align_phase(recovered, planted)
    return float(np.max(np.abs(recovered - c * planted)))


def test_criterion_1_forward_angle_preservation():
    # conjugation maps preserve principal angles: 300 random triples
    with criterion(1, "forward angle preservation"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        worst = 0.0
        for trial in range(300):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d))
            field = "real" if trial % 2 == 0 else "complex"
            anti = field == "complex" and trial % 4 == 1
            phi, _ = conjugation_map(d, n, seed=trial, antiunitary=anti, field=field)
            p = gw.sample_projection(rng, d, n, field)
            q = gw.sample_projection(rng, d, n, field)
            dev = gw.spectrum_discrepancy(p, q, phi.evaluate(p), phi.evaluate(q))
            worst = max(worst, dev)
        assert worst <= 1e-9, f"max discrepancy {worst:.3e}"
        assert time.monotonic() - start <= 30.0


def test_criterion_2_round_trip_reconstruction(tmp_path, capsys):
    # grid d in 3..8, n in 1..d-1, field x antiunitary, 10 planted unitaries
    # per cell; for n > d/2 the dual I - phi(I - P), read at rank d - n < d/2,
    # must agree
    with criterion(2, "round-trip reconstruction"):
        start = time.monotonic()
        seed_counter = 0
        for d in range(3, 9):
            for n in range(1, d):
                for field, anti in (("real", False), ("complex", False), ("complex", True)):
                    for plant in range(10):
                        seed_counter += 1
                        v = gw.haar_random_unitary(d, seed_counter, field)
                        phi = instantiate(
                            MapSpec("conjugation", matrix=v, antiunitary=anti), d, n, field
                        )
                        cfg = gw.ReconstructionConfig(seed=plant)
                        result = gw.reconstruct(phi, cfg)
                        assert result.variant == gw.VARIANT_CONJUGATION, (
                            d, n, field, anti, result.variant, result.notes,
                        )
                        assert result.antiunitary == anti
                        assert result.residual <= 1e-7
                        assert planted_deviation(result.v, v) <= 1e-7, (d, n, field, anti)
                        if 2 * n > d:
                            via = gw.reconstruct(local_dual(phi), cfg)
                            assert via.variant == gw.VARIANT_CONJUGATION, (d, n, field, anti)
                            assert via.residual <= 1e-7
                            assert planted_deviation(via.v, result.v) <= 1e-7

        # a rank above d/2 through the CLI
        v = gw.haar_random_unitary(4, 20_000)
        gw.save_matrix(tmp_path / "v.json", v)
        (tmp_path / "spec.json").write_text(
            json.dumps({"type": "conjugation", "matrix": "v.json"})
        )
        code = cli_main(
            ["reconstruct", "--map", str(tmp_path / "spec.json"), "--dim", "4", "--rank", "3"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["variant"] == "conjugation"
        recovered = np.array([complex(re, im) for re, im in payload["V"]["data"]]).reshape(4, 4)
        assert planted_deviation(recovered, v) <= 1e-7

        elapsed = time.monotonic() - start
        assert elapsed <= 180.0, f"grid took {elapsed:.1f}s"


def test_criterion_3_exceptional_complement_family():
    with criterion(3, "exceptional case at d = 2n"):
        rng = np.random.default_rng(103)
        for n in (2, 3):
            d = 2 * n
            phi = instantiate(MapSpec("complement"), d, n)

            # (a) the complement preserves angles
            worst = 0.0
            for _ in range(200):
                p = gw.sample_projection(rng, d, n)
                q = gw.sample_projection(rng, d, n)
                worst = max(worst, gw.spectrum_discrepancy(p, q, phi.evaluate(p), phi.evaluate(q)))
            assert worst <= 1e-8, f"n={n}: discrepancy {worst:.3e}"

            # (b) the extension sends e1 e1* to (1/n) I - e1 e1*
            e1 = np.zeros(d, dtype=complex)
            e1[0] = 1.0
            image = gw.extend_to_rank1(phi, e1)
            expected = np.eye(d) / n - np.outer(e1, e1.conj())
            assert frobenius(image - expected) <= 1e-9
            eigenvalues = np.linalg.eigvalsh(image)
            assert abs(eigenvalues[0] - (-(n - 1) / n)) <= 1e-9

            # (c) the plain complement classifies as the exceptional family
            result = gw.reconstruct(phi)
            assert result.variant == gw.VARIANT_EXCEPTIONAL
            assert planted_deviation(result.v, np.eye(d)) <= 1e-7

            # (d) complement composed with a conjugation, inner V recovered
            for anti in (False, True):
                w = gw.haar_random_unitary(d, 400 + n + (7 if anti else 0))
                spec = MapSpec(
                    "compose",
                    parts=(MapSpec("complement"), MapSpec("conjugation", matrix=w, antiunitary=anti)),
                )
                composed = gw.reconstruct(instantiate(spec, d, n))
                assert composed.variant == gw.VARIANT_EXCEPTIONAL
                assert composed.antiunitary == anti
                assert planted_deviation(composed.v, w) <= 1e-7


def test_criterion_4_rank1_combination_certificates():
    with criterion(4, "rank-1 combination certificates"):
        rng = np.random.default_rng(104)
        seen_ranks = set()
        for trial in range(100):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d))
            u = rng.standard_normal(d) + (0 if trial % 3 == 0 else 1j) * rng.standard_normal(d)
            u = np.asarray(u, dtype=complex) / np.linalg.norm(u)
            cert = gw.rank1_combination(u, n)
            assert cert.residual() <= 1e-12
            seen_ranks.add(n)
        for n in sorted(seen_ranks):
            closed = gw.combination_coefficients(n)
            expected = np.full(n + 1, 1.0 / n)
            expected[0] = (1.0 - n) / n
            assert np.array_equal(closed, expected)
            system = np.ones((n + 1, n + 1)) - np.eye(n + 1)
            rhs = np.zeros(n + 1)
            rhs[0] = 1.0
            solved = np.linalg.solve(system, rhs)
            assert np.max(np.abs(closed - solved)) <= 1e-15


def test_criterion_5_commuting_decomposition_equivalence():
    with criterion(5, "commuting decomposition equivalence"):
        rng = np.random.default_rng(105)
        # 500 genuinely commuting pairs: diagonal 0/1 patterns conjugated by
        # a shared random unitary
        for _ in range(500):
            d = int(rng.integers(2, 9))
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            p = gw.Projection(u @ np.diag(rng.integers(0, 2, size=d).astype(complex)) @ u.conj().T)
            q = gw.Projection(u @ np.diag(rng.integers(0, 2, size=d).astype(complex)) @ u.conj().T)
            dec = gw.decompose_commuting(p, q)
            assert frobenius(dec.intersection.matrix + dec.p_remainder.matrix - p.matrix) <= 1e-9
            assert frobenius(dec.intersection.matrix + dec.q_remainder.matrix - q.matrix) <= 1e-9
        # 500 generic pairs: the commutator test and the splitting must agree
        disagreements = 0
        for _ in range(500):
            d = int(rng.integers(2, 9))
            p = gw.sample_projection(rng, d, int(rng.integers(1, d)))
            q = gw.sample_projection(rng, d, int(rng.integers(1, d)))
            commutes = frobenius(p.matrix @ q.matrix - q.matrix @ p.matrix) <= 1e-9
            try:
                gw.decompose_commuting(p, q)
                split = True
            except gw.NotCommuting:
                split = False
            disagreements += split != commutes
        assert disagreements == 0


def test_criterion_6_extension_properties():
    with criterion(6, "extension well-definedness and isometry"):
        rng = np.random.default_rng(106)
        pair_budget = 100
        pairs_done = 0
        while pairs_done < pair_budget:
            d = int(rng.integers(3, 8))
            n = int(rng.integers(1, d))
            anti = bool(rng.integers(0, 2))
            phi, _ = conjugation_map(d, n, seed=600 + pairs_done, antiunitary=anti)

            # well-definedness: same degenerate operator, two eigenbases
            basis = gw.random_subspace(d, min(n, d - 1), seed=700 + pairs_done)
            a = basis @ basis.conj().T
            route_one = gw.extend_to_hermitian(phi, a)
            w = gw.haar_random_unitary(basis.shape[1], 800 + pairs_done)
            rotated = basis @ w
            route_two = np.zeros_like(a)
            for k in range(rotated.shape[1]):
                route_two = route_two + gw.extend_to_rank1(phi, rotated[:, k])
            assert frobenius(route_one - route_two) <= 1e-8

            # Hilbert-Schmidt isometry and trace preservation on random
            # Hermitian pairs drawn from the projection span
            for _ in range(5):
                a = sum(
                    rng.standard_normal() * gw.sample_projection(rng, d, n).matrix for _ in range(3)
                )
                b = sum(
                    rng.standard_normal() * gw.sample_projection(rng, d, n).matrix for _ in range(3)
                )
                fa = gw.extend_to_hermitian(phi, a)
                fb = gw.extend_to_hermitian(phi, b)
                assert abs(complex(fa.trace()) - complex(a.trace())) <= 1e-9
                before = complex(np.einsum("ij,ji->", a, b)).real
                after = complex(np.einsum("ij,ji->", fa, fb)).real
                assert abs(after - before) <= 1e-8
                pairs_done += 1


def test_criterion_7_angle_cross_oracle():
    with criterion(7, "angle computation cross-oracle"):
        rng = np.random.default_rng(107)
        for _ in range(300):
            d = int(rng.integers(2, 13))
            n = int(rng.integers(1, max(2, d // 2 + 1)))
            sp = gw.Subspace(np.linalg.qr(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))[0])
            sq = gw.Subspace(np.linalg.qr(rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))[0])
            p = gw.projector_from_subspace(sp)
            q = gw.projector_from_subspace(sq)
            spectral = gw.principal_angles_spectral(p, q)
            stable = gw.principal_angles_svd(sp, sq)
            assert np.max(np.abs(spectral.angles - stable.angles)) <= 1e-7
            assert abs(spectral.cos2_spectrum.sum() - gw.trace_product(p, q)) <= 1e-10
            # orthogonality criteria agree: trace form vs operator product
            trace_zero = gw.trace_product(p, q) <= 1e-8
            operator_zero = frobenius(p.matrix @ q.matrix) <= 1e-4
            assert gw.are_orthogonal(p, q) == trace_zero == operator_zero
        # constructed orthogonal pairs exercise the affirmative branch
        for _ in range(50):
            d = int(rng.integers(2, 9))
            basis = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            k = int(rng.integers(1, d))
            p = gw.Projection(basis[:, :k] @ basis[:, :k].conj().T)
            q = gw.Projection(basis[:, k:] @ basis[:, k:].conj().T)
            assert gw.are_orthogonal(p, q)
            assert frobenius(p.matrix @ q.matrix) <= 1e-4


def test_criterion_8_noisy_rejection_with_replayable_witness(tmp_path, capsys):
    with criterion(8, "rejection completeness with witness replay"):
        trial = 0
        for sigma in (1e-2, 1e-3):
            for k in range(20):
                trial += 1
                d = 4 + (trial % 3)
                n = 2
                spec = MapSpec("noisy", base=MapSpec("identity"), sigma=sigma, seed=trial)
                phi = instantiate(spec, d, n)
                result = gw.reconstruct(phi, gw.ReconstructionConfig(seed=trial))
                assert result.variant == gw.VARIANT_NOT_PRESERVING, (sigma, k)
                assert result.discrepancy > 1e-7

                # replay through the CLI angle command, as a user would
                files = {}
                for name, proj in (
                    ("p", result.witness_p),
                    ("q", result.witness_q),
                    ("phi_p", phi.evaluate(result.witness_p)),
                    ("phi_q", phi.evaluate(result.witness_q)),
                ):
                    files[name] = tmp_path / f"t{trial}_{name}.json"
                    gw.save_projection(files[name], proj)
                spectra = {}
                for tag, (first, second) in {
                    "before": ("p", "q"),
                    "after": ("phi_p", "phi_q"),
                }.items():
                    code = cli_main(
                        ["angles", "--p", str(files[first]), "--q", str(files[second]), "--json"]
                    )
                    assert code == 0
                    spectra[tag] = np.array(json.loads(capsys.readouterr().out)["cos2_spectrum"])
                replayed = np.max(np.abs(spectra["before"] - spectra["after"]))
                assert replayed > 1e-7, f"sigma={sigma}, trial {k}: replay {replayed:.3e}"


def test_criterion_9_scope_statement_documented():
    with criterion(9, "scope statement"):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text(encoding="utf-8").lower().split())
        assert "finite-dimensional" in text
        assert "infinite" in text and "out of scope" in text

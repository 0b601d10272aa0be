import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grasswig
from grasswig import (
    Projection,
    instantiate,
    load_map_spec,
    load_matrix,
    load_projection,
    random_projection,
    save_matrix,
    save_projection,
)
from grasswig.cli import main
from grasswig.linalg import haar_random_unitary


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_projection(tmp_path, name, d, n, seed, field="complex"):
    path = tmp_path / name
    save_projection(path, random_projection(d, n, seed=seed, field=field), field)
    return path


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_angles_identical_projections(tmp_path, capsys):
    p = write_projection(tmp_path, "p.json", 4, 2, seed=1)
    code, out, _ = run_cli(capsys, "angles", "--p", p, "--q", p, "--json")
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["angles_radians"], 0.0, atol=1e-7)
    assert len(payload["cos2_spectrum"]) == 4


def test_angles_orthogonal_lines_print_90_degrees(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_projection(a, Projection(np.diag([1.0, 0.0]).astype(complex)))
    save_projection(b, Projection(np.diag([0.0, 1.0]).astype(complex)))
    code, out, _ = run_cli(capsys, "angles", "--p", a, "--q", b)
    assert code == 0
    assert "90.0" in out and "rad" in out


def test_angles_rank_mismatch_names_both_ranks(tmp_path, capsys):
    p = write_projection(tmp_path, "p.json", 4, 2, seed=1)
    q = write_projection(tmp_path, "q.json", 4, 3, seed=2)
    code, _, err = run_cli(capsys, "angles", "--p", p, "--q", q)
    assert code == 2
    assert "2" in err and "3" in err


def test_angles_bases_route(tmp_path, capsys):
    from grasswig import random_subspace

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_matrix(a, random_subspace(5, 2, seed=3))
    save_matrix(b, random_subspace(5, 2, seed=4))
    code, out, _ = run_cli(capsys, "angles", "--p", a, "--q", b, "--bases", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["angles_radians"]) == 2


def test_angles_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    p = write_projection(tmp_path, "p.json", 2, 1, seed=1)
    code, _, err = run_cli(capsys, "angles", "--p", bad, "--q", p)
    assert code == 2
    assert "error" in err


def test_check_conjugation_passes(tmp_path, capsys):
    v = tmp_path / "v.json"
    save_matrix(v, haar_random_unitary(4, 7))
    spec = write_spec(tmp_path, "spec.json", {"type": "conjugation", "matrix": "v.json"})
    code, out, _ = run_cli(capsys, "check", "--map", spec, "--dim", 4, "--rank", 2)
    assert code == 0
    assert "max discrepancy" in out


def test_check_complement_passes_at_half_dimension(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"type": "complement"})
    code, _, _ = run_cli(capsys, "check", "--map", spec, "--dim", 6, "--rank", 3)
    assert code == 0


def test_check_refuses_an_empty_screen_and_a_bad_tolerance(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.01, "seed": 1}
    )
    base = ["check", "--map", spec, "--dim", 6, "--rank", 2, "--witness-dir", tmp_path / "witness"]
    for extra in (["--samples", 0], ["--samples", -3], ["--tol", 0], ["--tol=-1e-7"], ["--tol", "nan"], ["--tol", "inf"]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 2, extra
        assert "holds" not in out and "error" in err
    code, out, err = run_cli(capsys, "demo-exceptional", "--n", 2, "--samples", 0)
    assert code == 2 and "at least 1" in err


@pytest.mark.parametrize("seed", [1e20, 2.7])
def test_check_refuses_a_noisy_seed_that_is_no_64_bit_integer(tmp_path, capsys, seed):
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "sigma": 1e-3, "seed": seed, "base": {"type": "complement"}}
    )
    code, out, err = run_cli(capsys, "check", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", tmp_path / "w")
    assert code == 2
    assert "seed" in err and "discrepancy" not in out


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_check_refuses_a_noisy_sigma_that_is_not_finite(tmp_path, capsys, sigma):
    spec = write_spec(tmp_path, "spec.json", {"type": "noisy", "sigma": sigma, "base": {"type": "identity"}})
    assert "NaN" in spec.read_text() or "Infinity" in spec.read_text()
    code, out, err = run_cli(capsys, "check", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", tmp_path / "w")
    assert code == 2
    assert "sigma" in err and "Hermitian" not in err


def test_check_noisy_fails_with_replayable_witness(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.01, "seed": 1}
    )
    wdir = tmp_path / "witness"
    code, out, _ = run_cli(
        capsys, "check", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", wdir
    )
    assert code == 1
    # replay the witness through the angles command
    names = {}
    for line in out.splitlines():
        line = line.strip()
        for key in ("p:", "q:", "phi_p:", "phi_q:"):
            if line.startswith(key):
                names[key[:-1]] = line.split(": ", 1)[1]
    before_code, before_out, _ = run_cli(capsys, "angles", "--p", names["p"], "--q", names["q"], "--json")
    after_code, after_out, _ = run_cli(capsys, "angles", "--p", names["phi_p"], "--q", names["phi_q"], "--json")
    assert before_code == after_code == 0
    before = np.array(json.loads(before_out)["cos2_spectrum"])
    after = np.array(json.loads(after_out)["cos2_spectrum"])
    assert np.max(np.abs(before - after)) > 1e-7


def test_reconstruct_conjugation(tmp_path, capsys):
    v_path = tmp_path / "v.json"
    v = haar_random_unitary(4, 11)
    save_matrix(v_path, v)
    spec = write_spec(tmp_path, "spec.json", {"type": "conjugation", "matrix": "v.json"})
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2, "--out", out_path
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "conjugation"
    assert payload["residual"] <= 1e-7
    assert json.loads(out_path.read_text()) == payload


@pytest.mark.parametrize("flag", ["false", 1])
def test_reconstruct_refuses_an_antiunitary_flag_that_is_no_boolean(tmp_path, capsys, flag):
    save_matrix(tmp_path / "v.json", haar_random_unitary(4, 11))
    spec = write_spec(tmp_path, "spec.json", {"type": "conjugation", "matrix": "v.json", "antiunitary": flag})
    code, out, err = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2)
    assert code == 2
    assert "antiunitary" in err and out == ""


@pytest.mark.parametrize("flag", [True, False, None])
def test_reconstruct_reads_a_boolean_or_absent_antiunitary_flag(tmp_path, capsys, flag):
    save_matrix(tmp_path / "v.json", haar_random_unitary(4, 11))
    obj = {"type": "conjugation", "matrix": "v.json"}
    if flag is not None:
        obj["antiunitary"] = flag
    code, out, _ = run_cli(capsys, "reconstruct", "--map", write_spec(tmp_path, "spec.json", obj), "--dim", 4, "--rank", 2)
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "conjugation"
    assert payload["antiunitary"] is bool(flag)


def test_reconstruct_accepts_near_preserving_map(tmp_path, capsys):
    save_matrix(tmp_path / "v.json", haar_random_unitary(6, 3))
    base = {"type": "conjugation", "matrix": "v.json"}
    spec = write_spec(tmp_path, "spec.json", {"type": "noisy", "base": base, "sigma": 1e-9, "seed": 5})
    code, out, _ = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 6, "--rank", 2)
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "conjugation"
    assert payload["residual"] <= 1e-7


def test_reconstruct_complement_reports_exceptional(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"type": "complement"})
    code, out, _ = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2)
    assert code == 0
    assert json.loads(out)["variant"] == "exceptional_complement"


def test_reconstruct_identity_via_dual(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"type": "identity"})
    code, out, _ = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 5, "--rank", 3, "--via-dual")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "conjugation"
    v = np.array([complex(re, im) for re, im in payload["V"]["data"]]).reshape(5, 5)
    phase = v[0, 0] / abs(v[0, 0])
    assert np.max(np.abs(v - phase * np.eye(5))) <= 1e-9


def test_reconstruct_noisy_writes_witness(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.001, "seed": 2}
    )
    wdir = tmp_path / "w"
    code, out, _ = run_cli(
        capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", wdir
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["variant"] == "not_angle_preserving"
    assert payload["discrepancy"] > 1e-7
    assert set(payload["witness_files"]) == {"p", "q", "phi_p", "phi_q"}
    for path in payload["witness_files"].values():
        assert json.loads(Path(path).read_text())["kind"] == "projection"


@pytest.mark.parametrize("base", [{"type": "identity"}, {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.001, "seed": 2}])
def test_reconstruct_refuses_a_negative_seed(tmp_path, capsys, base):
    spec = write_spec(tmp_path, "spec.json", base)
    code, out, err = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2, "--seed", -1)
    assert code == 2 and out == ""
    assert "seed must be an integer >= 0, got -1" in err


def test_reconstruct_via_dual_writes_the_dual_witness(tmp_path, capsys):
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.001, "seed": 2}
    )
    wdir = tmp_path / "w"
    code, out, _ = run_cli(
        capsys, "reconstruct", "--map", spec, "--dim", 5, "--rank", 2, "--via-dual", "--witness-dir", wdir
    )
    assert code == 1
    files = json.loads(out)["witness_files"]
    p, _ = load_projection(files["p"])
    phi_p, _ = load_projection(files["phi_p"])
    assert p.rank == phi_p.rank == 3
    # the dual map's image of p: I - phi(I - p)
    phi = instantiate(load_map_spec(spec), 5, 2)
    eye = np.eye(5)
    expected = eye - phi.evaluate(Projection(eye - p.matrix)).matrix
    assert np.max(np.abs(phi_p.matrix - expected)) <= 1e-12


def test_demo_exceptional(capsys):
    code, out, _ = run_cli(capsys, "demo-exceptional", "--n", 2)
    assert code == 0
    assert "-0.500000" in out  # the -(n-1)/n eigenvalue at n = 2
    assert "exceptional_complement" in out


def test_demo_exceptional_rejects_n1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo-exceptional", "--n", "1"])
    assert exc.value.code == 2


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--what", "unitary", "--dim", 4, "--seed", 9, "--out", out)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    m, field = load_matrix(a)
    assert field == "complex"
    assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-12


def test_gen_projection_and_subspace(tmp_path, capsys):
    p_path = tmp_path / "p.json"
    code, _, _ = run_cli(
        capsys, "gen", "--what", "projection", "--dim", 5, "--rank", 2, "--seed", 3,
        "--out", p_path, "--field", "real",
    )
    assert code == 0
    obj = json.loads(p_path.read_text())
    assert obj["kind"] == "projection" and obj["rank"] == 2 and obj["field"] == "real"

    s_path = tmp_path / "s.json"
    code, _, _ = run_cli(capsys, "gen", "--what", "subspace", "--dim", 5, "--rank", 2, "--seed", 3, "--out", s_path)
    assert code == 0
    basis, _ = load_matrix(s_path)
    assert basis.shape == (5, 2)

    code, _, err = run_cli(capsys, "gen", "--what", "subspace", "--dim", 5, "--seed", 3, "--out", s_path)
    assert code == 2 and "rank" in err


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gen_subspace_and_projection_with_one_seed_describe_one_subspace(tmp_path, capsys, field):
    for what in ("subspace", "projection"):
        args = ("--dim", 7, "--rank", 3, "--seed", 5, "--field", field, "--out", tmp_path / f"{what}.json")
        assert run_cli(capsys, "gen", "--what", what, *args)[0] == 0
    basis, _ = load_matrix(tmp_path / "subspace.json")
    p, _ = load_projection(tmp_path / "projection.json")
    assert np.array_equal(basis @ basis.conj().T, p.matrix)


@pytest.mark.parametrize("rank", [0, -1, 5])
def test_gen_projection_refuses_a_rank_outside_1_to_dim(tmp_path, capsys, rank):
    out = tmp_path / "p.json"
    code, _, err = run_cli(capsys, "gen", "--what", "projection", "--dim", 4, "--rank", rank, "--seed", 3, "--out", out)
    assert code == 2 and f"n={rank}, d=4" in err
    assert not out.exists()


def test_gw_tol_env_override(tmp_path, capsys, monkeypatch):
    # idempotency defect ~2.3e-9: rejected at the default eq_tol of 1e-9,
    # accepted once GW_TOL loosens it (spectrum checks still pass)
    eps = 4e-5
    m = np.array([[1.0, eps], [eps, 0.0]], dtype=complex)
    path = tmp_path / "near.json"
    from grasswig import matrix_to_obj

    obj = matrix_to_obj(m)
    obj.update({"kind": "projection", "rank": 1})
    path.write_text(json.dumps(obj))

    code, _, err = run_cli(capsys, "angles", "--p", path, "--q", path)
    assert code == 2

    monkeypatch.setenv("GW_TOL", "1e-8")
    code, out, _ = run_cli(capsys, "angles", "--p", path, "--q", path, "--json")
    assert code == 0

    monkeypatch.setenv("GW_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "angles", "--p", path, "--q", path)
    assert code == 2


@pytest.mark.parametrize("theta", [0.3, 0.0])
def test_angles_accept_the_defects_a_loose_gw_tol_lets_through(tmp_path, capsys, monkeypatch, theta):
    # a basis of norm 1 + 1e-7 (projection of trace 1 + 2e-7) passes at
    # eq_tol = 1e-6, and its defect moves sin^2 + cos^2 and cos^2 past 1
    from grasswig import matrix_to_obj

    monkeypatch.setenv("GW_TOL", "1e-6")
    bp, bq = np.array([[1.0 + 1e-7], [0.0]]), np.array([[np.cos(theta)], [np.sin(theta)]])
    paths = {}
    for name, m in (("bp", bp), ("bq", bq), ("p", bp @ bp.T), ("q", bq @ bq.T)):
        obj = matrix_to_obj(m.astype(complex))
        if name in ("p", "q"):
            obj.update({"kind": "projection", "rank": 1})
        paths[name] = write_spec(tmp_path, f"{name}.json", obj)
    for argv in (("--p", paths["bp"], "--q", paths["bq"], "--bases"), ("--p", paths["p"], "--q", paths["q"])):
        code, out, err = run_cli(capsys, "angles", *argv, "--json")
        assert code == 0, err
        assert abs(json.loads(out)["angles_radians"][0] - theta) <= 1e-6


def test_console_entry_point_runs():
    # the child imports the same grasswig as the suite, installed or not
    src = os.path.dirname(os.path.dirname(grasswig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "grasswig.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "grasswig" in proc.stdout


def test_the_cli_imports_no_scipy():
    # numpy is the only dependency: scipy alone doubled the import time
    src = os.path.dirname(os.path.dirname(grasswig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys, grasswig.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

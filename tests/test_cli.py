import json
import os
import subprocess
import sys

import numpy as np
import pytest

import grasswig
from grasswig import Projection, load_matrix, save_matrix, save_projection, random_projection
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
        assert json.loads(open(path).read())["kind"] == "projection"


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


def test_console_entry_point_runs():
    # the child imports the same grasswig as the suite, installed or not
    src = os.path.dirname(os.path.dirname(grasswig.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "grasswig.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "grasswig" in proc.stdout

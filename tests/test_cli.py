import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grasswig
from grasswig import (
    MatrixFormatError,
    Projection,
    load_map_spec,
    load_matrix,
    load_projection,
    random_projection,
    save_matrix,
    save_projection,
    spectrum_discrepancy,
)
from grasswig.cli import build_parser, main
from grasswig.linalg import haar_random_unitary
from grasswig.reconstruction import _ACCEPT_FACTOR
from grasswig.tolerances import DEFAULT_TOL


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


@pytest.mark.parametrize("content", [b'{"type": "identity"\xff}', b"[" * 100_000], ids=["not-utf8", "too-deep"])
def test_an_unreadable_json_file_is_named_in_the_error(tmp_path, capsys, content):
    # a stray 0xff byte, or nesting past the parser's recursion limit, is an
    # input error naming its file (exit 2), for every reader
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    p = write_projection(tmp_path, "p.json", 2, 1, seed=1)
    for argv in (("angles", "--p", bad, "--q", p), ("check", "--map", bad, "--dim", 4, "--rank", 2)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: {bad}: not valid UTF-8 JSON" in err and "Traceback" not in err
    for load in (load_matrix, load_projection, load_map_spec):
        with pytest.raises(MatrixFormatError, match="not valid UTF-8 JSON"):
            load(bad)


def test_a_malformed_conjugation_matrix_file_is_named_in_the_error(tmp_path, capsys):
    matrix = tmp_path / "V.json"
    matrix.write_text('{"rows" 2}')
    spec = write_spec(tmp_path, "spec.json", {"type": "conjugation", "matrix": "V.json"})
    with pytest.raises(MatrixFormatError, match="V.json: not valid UTF-8 JSON"):
        load_map_spec(spec)
    code, out, err = run_cli(capsys, "check", "--map", spec, "--dim", 2, "--rank", 1)
    assert code == 2 and out == ""
    assert f"error: {matrix}: not valid UTF-8 JSON" in err


@pytest.mark.parametrize("part", [0, 1])
def test_angles_refuses_an_integer_entry_too_large_for_a_float(tmp_path, capsys, part):
    # Python's JSON reader keeps a 400-digit integer exact; float() of it
    # overflows, which is an input error (exit 2), not a negative finding
    p = write_projection(tmp_path, "p.json", 2, 1, seed=1)
    obj = json.loads(p.read_text())
    obj["data"][1][part] = 10**400
    p.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "angles", "--p", p, "--q", p)
    assert code == 2 and out == ""
    assert "data[1] is too large for a float" in err and "Traceback" not in err


def test_check_refuses_an_integer_sigma_too_large_for_a_float(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"type": "noisy", "sigma": 10**400, "base": {"type": "identity"}})
    code, out, err = run_cli(capsys, "check", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", tmp_path / "w")
    assert code == 2 and out == ""
    assert "sigma" in err and "too large for a float" in err


def test_check_conjugation_passes(tmp_path, capsys):
    v = tmp_path / "v.json"
    save_matrix(v, haar_random_unitary(4, 7))
    spec = write_spec(tmp_path, "spec.json", {"type": "conjugation", "matrix": "v.json"})
    code, out, _ = run_cli(capsys, "check", "--map", spec, "--dim", 4, "--rank", 2)
    assert code == 0
    assert "max discrepancy" in out


def test_check_holds_the_screen_to_reconstructions_accept_threshold(tmp_path, capsys, monkeypatch):
    # with no --tol the screen passes at reconstruct's accept_tol for the
    # run's tolerance, 10 spec_tol = 1e-7 (GW_TOL moves only eq_tol); a
    # discrepancy of about 3e-9 fails a tighter --tol
    save_matrix(tmp_path / "v.json", haar_random_unitary(6, 3))
    spec = write_spec(
        tmp_path, "spec.json", {"type": "noisy", "base": {"type": "conjugation", "matrix": "v.json"}, "sigma": 1e-9, "seed": 2}
    )
    argv = ["check", "--map", spec, "--dim", 6, "--rank", 3, "--witness-dir", tmp_path / "w"]
    assert build_parser().parse_args([str(a) for a in argv]).tol is None
    limit = f"{_ACCEPT_FACTOR * DEFAULT_TOL.spec_tol:.1e}"
    assert limit == "1.0e-07"
    for gw_tol in (None, "1e-6"):
        if gw_tol:
            monkeypatch.setenv("GW_TOL", gw_tol)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and f"holds at tolerance {limit}" in out
    code, out, _ = run_cli(capsys, *argv, "--tol", 1e-9)
    assert code == 1 and "NOT angle preserving at tolerance 1.0e-09" in out


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


def test_reconstruct_identity_above_half_rank(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"type": "identity"})
    code, out, _ = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 5, "--rank", 3)
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
    # the reloaded witness rescores to the printed discrepancy exactly
    witness = [load_projection(payload["witness_files"][name])[0] for name in ("p", "q", "phi_p", "phi_q")]
    assert spectrum_discrepancy(*witness) == payload["discrepancy"]


@pytest.mark.parametrize("base", [{"type": "identity"}, {"type": "noisy", "base": {"type": "identity"}, "sigma": 0.001, "seed": 2}])
def test_reconstruct_refuses_a_negative_seed(tmp_path, capsys, base):
    spec = write_spec(tmp_path, "spec.json", base)
    code, out, err = run_cli(capsys, "reconstruct", "--map", spec, "--dim", 4, "--rank", 2, "--seed", -1)
    assert code == 2 and out == ""
    assert "seed must be an integer >= 0, got -1" in err


def test_reconstruct_refuses_the_retired_via_dual_flag(tmp_path, capsys):
    # every rank is read by reconstruct itself: --via-dual is an unknown flag
    spec = write_spec(tmp_path, "spec.json", {"type": "identity"})
    code, out, err = in_process(capsys, ["reconstruct", "--map", spec, "--dim", 5, "--rank", 3, "--via-dual"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --via-dual" in err


def nested_spec(kind, depth):
    """A spec ``depth`` levels deep: a chain of one-map composes, or of
    zero-noise wrappers, around the identity."""
    spec = {"type": "identity"}
    for _ in range(depth - 1):
        spec = {"type": "compose", "maps": [spec]} if kind == "compose" else {"type": "noisy", "base": spec, "sigma": 0.0}
    return spec


@pytest.mark.parametrize("kind", ["compose", "noisy"])
def test_a_map_spec_nested_too_deep_is_an_input_error(tmp_path, capsys, kind):
    # 340 levels once ran past the recursion limit, a traceback and exit 1;
    # the parser now refuses more than 100 levels, naming the limit (exit 2)
    deep = write_spec(tmp_path, "deep.json", nested_spec(kind, 340))
    for argv in (("check", "--map", deep, "--dim", 4, "--rank", 2), ("reconstruct", "--map", deep, "--dim", 4, "--rank", 2)):
        code, out, err = run_cli(capsys, *argv, "--witness-dir", tmp_path)
        assert code == 2 and out == ""
        assert "error: map spec nests deeper than 100 levels" in err and "Traceback" not in err
    deepest = write_spec(tmp_path, "deepest.json", nested_spec(kind, 100))
    code, out, _ = run_cli(capsys, "reconstruct", "--map", deepest, "--dim", 4, "--rank", 2)
    assert code == 0 and json.loads(out)["variant"] == "conjugation"


def test_demo_exceptional(capsys):
    code, out, _ = run_cli(capsys, "demo-exceptional", "--n", 2)
    assert code == 0
    assert "-0.500000" in out  # the -(n-1)/n eigenvalue at n = 2
    assert "exceptional_complement" in out


def test_demo_exceptional_rejects_n1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo-exceptional", "--n", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["check", "gen", "demo-exceptional"])
def test_a_negative_seed_is_refused_by_name_before_any_output(tmp_path, capsys, command):
    spec = write_spec(tmp_path, "spec.json", {"type": "identity"})
    out_file = tmp_path / "u.json"
    argv = {
        "check": ["check", "--map", spec, "--dim", 4, "--rank", 2, "--witness-dir", tmp_path / "w"],
        "gen": ["gen", "--what", "unitary", "--dim", 3, "--out", out_file],
        "demo-exceptional": ["demo-exceptional", "--n", 2],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", -1)
    assert code == 2 and out == ""
    assert "--seed must be an integer >= 0, got -1" in err
    assert not out_file.exists() and not (tmp_path / "w").exists()


@pytest.mark.parametrize("samples", [0, -3])
def test_demo_exceptional_refuses_an_empty_screen_before_any_output(capsys, samples):
    code, out, err = run_cli(capsys, "demo-exceptional", "--n", 2, "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples" in err and "at least 1" in err


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


def test_gen_unitary_refuses_a_rank(tmp_path, capsys):
    # a unitary is dim x dim: a --rank would be silently ignored
    out = tmp_path / "u.json"
    code, stdout, err = run_cli(capsys, "gen", "--what", "unitary", "--dim", 3, "--rank", 2, "--seed", 3, "--out", out)
    assert code == 2 and stdout == ""
    assert "--rank" in err and "unitary" in err
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


def child_env(**extra):
    """This environment plus ``extra``, with the suite's grasswig first on
    PYTHONPATH: a child imports the same grasswig, installed or not."""
    src = os.path.dirname(os.path.dirname(grasswig.__file__))
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "grasswig.cli", "--version"], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0
    assert "grasswig" in proc.stdout


def test_the_cli_imports_no_scipy():
    # numpy is the only dependency: scipy alone doubled the import time
    script = "import sys, grasswig.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fresh_process(argv, **env):
    """``python -m grasswig.cli argv`` in a new process, with ``env`` added to
    this environment: (code, out, err)."""
    argv = [sys.executable, "-m", "grasswig.cli", *map(str, argv)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(**env))
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, argv):
    """``main(argv)`` in this process, an argparse exit read as its code."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    import argparse

    from grasswig import cli

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli._parser.cache_clear()
    assert in_process(capsys, ["--version"])[0] == 0
    assert in_process(capsys, ["demo-exceptional"])[0] == 2
    assert len(built) == 6  # the top-level parser and its 5 subcommands, once
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import grasswig.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_repeated_in_process_calls_answer_as_a_fresh_process_does(tmp_path, capsys, monkeypatch):
    # --version, usage errors and a GW_TOL change, each called twice through
    # one cached parser, print and exit as a new process does; help text is
    # wrapped at COLUMNS, fixed on both sides
    near = tmp_path / "near.json"
    eps = 4e-5
    from grasswig import matrix_to_obj

    obj = matrix_to_obj(np.array([[1.0, eps], [eps, 0.0]], dtype=complex))
    obj.update({"kind": "projection", "rank": 1})
    near.write_text(json.dumps(obj))
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GW_TOL", raising=False)
    cases = [
        (["--version"], None),
        (["check", "--dim", 4], None),
        (["reconstruct", "--map", near, "--dim", 0, "--rank", 1], None),
        (["angles", "--p", near, "--q", near, "--json"], None),
        (["angles", "--p", near, "--q", near, "--json"], "1e-8"),
        (["angles", "--p", near, "--q", near, "--json"], None),
    ]
    expected = [fresh_process(argv, **({"GW_TOL": gw_tol} if gw_tol else {})) for argv, gw_tol in cases]
    assert [e[0] for e in expected] == [0, 2, 2, 2, 0, 2]
    for _ in range(2):
        for (argv, gw_tol), want in zip(cases, expected):
            if gw_tol:
                monkeypatch.setenv("GW_TOL", gw_tol)
            else:
                monkeypatch.delenv("GW_TOL", raising=False)
            assert in_process(capsys, argv) == want, argv

import json

import numpy as np
import pytest

from grasswig import (
    MatrixFormatError,
    load_matrix,
    load_projection,
    matrix_from_obj,
    matrix_to_obj,
    random_projection,
    save_matrix,
    save_projection,
)
from grasswig.matio import canonical_keys, projection_to_obj


def test_round_trip_complex(tmp_path):
    m = np.array([[1.0 + 2.0j, 0.5], [-1.5j, 3.0]])
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back, field = load_matrix(path)
    assert field == "complex"
    assert np.array_equal(back, m)


def test_round_trip_real(tmp_path):
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "m.json"
    save_matrix(path, m, "real")
    back, field = load_matrix(path)
    assert field == "real"
    assert np.array_equal(back, m.astype(np.complex128))


def test_save_real_rejects_complex_entries():
    with pytest.raises(MatrixFormatError):
        matrix_to_obj(np.array([[1.0j]]), "real")


def test_reject_wrong_data_length():
    obj = {"rows": 2, "cols": 2, "field": "real", "data": [[1.0, 0.0]] * 3}
    with pytest.raises(MatrixFormatError):
        matrix_from_obj(obj)


def test_reject_nonzero_imag_in_real_mode():
    obj = {"rows": 1, "cols": 1, "field": "real", "data": [[1.0, 1e-300]]}
    with pytest.raises(MatrixFormatError):
        matrix_from_obj(obj)


def test_reject_missing_keys_bad_entries_and_nonfinite():
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[1.0, 0.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "field": "real", "data": [[1.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"rows": 1, "cols": 1, "field": "real", "data": [[float("nan"), 0.0]]})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj({"rows": 0, "cols": 1, "field": "real", "data": []})
    with pytest.raises(MatrixFormatError):
        matrix_from_obj([1, 2, 3])


def test_projection_round_trip(tmp_path):
    p = random_projection(4, 2, seed=3)
    path = tmp_path / "p.json"
    save_projection(path, p)
    back, _ = load_projection(path)
    assert back.rank == 2
    assert np.max(np.abs(back.matrix - p.matrix)) < 1e-15


def test_projection_load_validates_kind_and_rank(tmp_path):
    p = random_projection(4, 2, seed=3)
    path = tmp_path / "p.json"
    save_projection(path, p)
    obj = json.loads(path.read_text())

    obj["rank"] = 3
    bad = tmp_path / "bad_rank.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(MatrixFormatError):
        load_projection(bad)

    obj["rank"] = 2
    del obj["kind"]
    bad2 = tmp_path / "no_kind.json"
    bad2.write_text(json.dumps(obj))
    with pytest.raises(MatrixFormatError):
        load_projection(bad2)


def test_projection_load_rejects_non_projection(tmp_path):
    path = tmp_path / "half.json"
    obj = matrix_to_obj(np.diag([0.5, 0.5]).astype(complex))
    obj.update({"kind": "projection", "rank": 1})
    path.write_text(json.dumps(obj))
    with pytest.raises(Exception):
        load_projection(path)


def test_canonical_keys_round_float_noise():
    m = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    noisy = m + 1e-14
    key, noisy_key, far_key = canonical_keys(np.stack([m, noisy, m + 1e-9]))
    assert key == noisy_key
    assert key != far_key


def test_canonical_keys_fold_negative_zero():
    a = np.array([[0.0]], dtype=complex)
    b = np.array([[-0.0]], dtype=complex)
    key_a, key_b = canonical_keys(np.stack([a, b]))
    assert key_a == key_b


@pytest.mark.parametrize("field", ["real", "complex"])
def test_saved_files_equal_the_streaming_encoders_bytes(tmp_path, field):
    # files are written through json.dumps: byte for byte what json.dump
    # and a newline wrote, signed zeros and extreme exponents included
    p = random_projection(6, 2, seed=5, field=field)
    m = np.array([[complex(-0.0, 1e-17), complex(1e-300, -0.0)], [complex(1.0 / 3.0, 7.0), -2.5e17]])
    m = m if field == "complex" else m.real
    save_matrix(tmp_path / "m.json", m, field)
    save_projection(tmp_path / "p.json", p, field)
    for name, obj in (("m.json", matrix_to_obj(m, field)), ("p.json", projection_to_obj(p, field))):
        with open(tmp_path / f"old-{name}", "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
            fh.write("\n")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"old-{name}").read_bytes()

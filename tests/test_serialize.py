import csv
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, sqrt_scalar, ONE, Q,
)
from qsu2.algebra import AlgebraElement, random_element
from qsu2.peterweyl import PWTable
from qsu2.algebra import _haar_bc
from qsu2.fourier import FourierArray, fourier_transform
from qsu2.cli import main
from qsu2.spectral import DiracSpec, boundedness_scan
from qsu2.serialize import (
    scalar_to_json, scalar_from_json, element_to_json, element_from_json,
    fourier_array_to_json, fourier_array_from_json,
    pw_entry_to_json, pw_entry_from_json, dump_json, load_json, write_csv,
)


def test_scalar_roundtrip():
    samples = [ONE, Q, q_int(6), (Q ** 3 - 2) / (Q ** 2 + 1),
               sqrt_scalar(q_int(4)),
               sqrt_scalar(q_int(4)) + sqrt_scalar(q_int(6)).square() * 0 +
               sqrt_scalar(q_int(10)), 3, Fraction(-1, 3)]
    for x in samples:
        data = scalar_to_json(x)
        # serializable to a real JSON string and back
        back = scalar_from_json(json.loads(json.dumps(data)))
        assert back == x


def test_float_scalar_roundtrip():
    x = 0.1 + 0.2
    assert scalar_from_json(scalar_to_json(x)) == x


def test_element_roundtrip_bit_exact():
    rng = random.Random(77)
    for _ in range(25):
        f = random_element(rng, 4, 5)
        back = element_from_json(json.loads(json.dumps(element_to_json(f))))
        assert back == f
        assert back.terms == f.terms


def test_fourier_array_roundtrip(tmp_path):
    pw = PWTable(6)
    rng = random.Random(78)
    f = random_element(rng, 3, 4)
    arr = fourier_transform(f, pw)
    data = fourier_array_to_json(arr)
    back = fourier_array_from_json(json.loads(json.dumps(data)))
    assert back == arr
    # through a file as well
    path = tmp_path / "arr.json"
    dump_json(data, path)
    assert fourier_array_from_json(load_json(path)) == arr


def test_pw_entry_roundtrip():
    pw = PWTable(4)
    data = pw_entry_to_json(pw, 2)
    back = pw_entry_from_json(json.loads(json.dumps(data)))
    assert back["entries"] == pw.entries(2)
    assert back["norm_sq"] == pw.norm_sq(2)


def test_json_files_deterministic(tmp_path):
    pw = PWTable(4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(pw_entry_to_json(pw, 2), p1)
    dump_json(pw_entry_to_json(pw, 2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_deterministic(tmp_path):
    rows = [{"a": 1.5, "b": Fraction(1, 3), "c": "x"},
            {"a": 0.1 + 0.2, "b": Fraction(2), "c": "y"}]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_csv(p1, ["a", "b", "c"], rows)
    write_csv(p2, ["a", "b", "c"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert "0.30000000000000004" in text   # repr round-trip floats
    assert "1/3" in text


def test_csv_bytes_match_dictwriter(tmp_path):
    # the plain writer gives the bytes csv.DictWriter gives, missing keys
    # and extra keys included, on a README-scale scan
    rows = [{"a": 1.5, "b": Fraction(1, 3), "c": "x,y", "extra": 1},
            {"a": None, "b": Fraction(-2), "c": 'say "q"'},
            {"b": 0.1 + 0.2}]
    rows += boundedness_scan(3, DiracSpec("q-deformed"), PWTable(3),
                             QPoint(Fraction(1, 2)))
    fieldnames = ["k", "s", "i", "j", "p", "r", "lambda_family", "q",
                  "ratio", "a", "b", "c"]
    write_csv(tmp_path / "plain.csv", fieldnames, rows)
    with open(tmp_path / "dict.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    assert (tmp_path / "plain.csv").read_bytes() \
        == (tmp_path / "dict.csv").read_bytes()


def test_csv_numpy_float_cell_is_its_value(tmp_path):
    # a numpy float is written as the number, not as its numpy 2 repr
    write_csv(tmp_path / "np.csv", ["x"], [{"x": np.float64(0.1)}])
    assert (tmp_path / "np.csv").read_bytes() == b"x\r\n0.1\r\n"


def _coefficients(x):
    if isinstance(x, QRadical):
        return [c for r, v in x.terms.items()
                for c in _coefficients(r) + _coefficients(v)]
    return list(x.num.values()) + list(x.den.values())


def test_loaded_symbol_has_int_coefficients(tmp_path):
    # a symbol loads back equal, with equal hashes and with its integral
    # coefficients as ints, and dumps back to the same bytes; so does the
    # symbol that multiplier --extract writes
    built = FourierArray({
        0: {(0, 0): q_int(6)},
        2: {(0, 0): _haar_bc(3) / q_int(5), (2, -2): QScalar.promote(-3),
            (-2, 2): (Q ** 3 - 2) / (2 * Q ** 2 + 1),
            (2, 2): QScalar.promote(Fraction(5, 4))}})
    dump_json(fourier_array_to_json(built), tmp_path / "built.json")
    assert main(["--output", str(tmp_path), "--lmax", "1", "multiplier",
                 "--extract"]) == 0
    for name in ("built.json", "multiplier_symbol.json"):
        path = tmp_path / name
        loaded = fourier_array_from_json(load_json(path))
        dump_json(fourier_array_to_json(loaded), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        for mat in loaded.coeffs.values():
            for x in mat.values():
                assert all(type(c) is int or c.denominator != 1
                           for c in _coefficients(x)), (name, x)
    loaded = fourier_array_from_json(load_json(tmp_path / "built.json"))
    assert loaded == built
    for tl, mat in built.coeffs.items():
        for key, x in mat.items():
            assert hash(loaded.coeffs[tl][key]) == hash(x)

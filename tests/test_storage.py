import json

import numpy as np
import pytest

from peskine_lab.rng import Rng
from peskine_lab.storage import (
    load_trivector,
    store_trivector,
    trivector_from_dict,
    trivector_to_dict,
)
from peskine_lab.trivector import Trivector, triples


def zero_trivector(n, p):
    return Trivector.from_coeffs([0] * len(triples(n)), n, p)


def test_roundtrip(tmp_path, rng):
    tri = Trivector.random(rng, 6, 7)
    path = tmp_path / "t.json"
    store_trivector(tri, path)
    again = load_trivector(path)
    assert again == tri
    # A second store of the loaded value is byte-identical.
    path2 = tmp_path / "t2.json"
    store_trivector(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_zero_coefficients_omitted(rng):
    tri = zero_trivector(6, 7)
    assert trivector_to_dict(tri) == {"p": 7, "n": 6, "coeffs": []}


def test_rejects_bad_documents(tmp_path):
    cases = [
        {"p": 7, "n": 6},  # missing key
        {"p": 7, "n": 6, "coeffs": [], "extra": 1},
        {"p": 8, "n": 6, "coeffs": []},  # not prime
        {"p": 7, "n": 6, "coeffs": [[2, 1, 3, 1]]},  # unsorted triple
        {"p": 7, "n": 6, "coeffs": [[0, 1, 2, 0]]},  # zero coefficient
        {"p": 7, "n": 6, "coeffs": [[0, 1, 2, 7]]},  # out of range
        {"p": 7, "n": 6, "coeffs": [[0, 1, 2, 3], [0, 1, 2, 3]]},  # duplicate
        {"p": 7, "n": 6, "coeffs": [[0, 2, 3, 1], [0, 1, 2, 1]]},  # out of order
        {"p": 7, "n": 6, "coeffs": [[0, 1, 6, 1]]},  # index out of range
        {"p": 7, "n": 6, "coeffs": [[0, 1, 2.0, 1]]},  # non-integer
        {"p": 7, "n": 6, "coeffs": [[0, 1, 2, True]]},  # bool, not coefficient 1
        {"p": 7, "n": 6, "coeffs": [[False, 1, 2, 3]]},  # bool index
        [1, 2, 3],  # not an object
    ]
    for doc in cases:
        with pytest.raises(ValueError):
            trivector_from_dict(doc)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_trivector(path)


def test_load_rejects_bool_fields(tmp_path):
    # bool is an int subclass; the prime check still throws it out.
    with pytest.raises(ValueError):
        trivector_from_dict({"p": True, "n": 6, "coeffs": []})

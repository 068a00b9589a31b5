"""Golden report bytes: refactors of the scan layer must not move a byte.

Each hash is the SHA-256 of `run_check(id, CheckConfig(**overrides))
.stable_bytes()` at the default seed.  The first three were recorded
before the rank-drop scan was unified, at their default configs; the
reduced configs of the chart-scan and K3-search checks were recorded
before those searches were batched; `lem-3.13`, `lem-3.4` and
`lem-3.8-unique` before the Pfaffian and polynomial product kernels
delayed their reduction mod p; `determinism` and `lem-3.8-default` (the
lem-3.8 check at its default config, p = 7) before the chart scan went
through the rank-drop cascade; the remaining nine (prop-3.17 and
low-dim-peskine at reduced configs) before the family Pfaffians, the
form interpolation and the Jacobians each went down one path; and
`lem-3.8-unique-default` before the rank-drop locus was listed through
its incidence variety, when one run took minutes.  A key
ending in `-default` names the check without that suffix, and every
registered check has a key.
"""

import hashlib

import pytest

from peskine_lab.checks import REGISTRY, CheckConfig, run_check

GOLDEN = {
    "pfaffian-det": ({}, "5f065a3fd75ad1e18b5101fdf23d5d0a009bee27b8bb3336daeede0e78324133"),
    "thm-2.1": ({}, "e4a55de7c240e5659b7dedddc62523fc3fe2acae0cf6054bc4d9bf8f942d2e0f"),
    "gl-equivariance": ({}, "57daf5368a5a71c956b3f802cd24689d0c1aa5b9624034c937bbab29880dd62c"),
    "prop-3.1": (
        {"trials": 10},
        "b455a055c31bad21697187fdd3f4a7c88ad182bc5f2d76dd25414ebc20867a1a",
    ),
    "prop-3.2": (
        {"p": 3, "trials": 6},
        "4ed4a39c70db2718aa32609e80f3f2b17d20ff1042a26a60d76f4e405007a30e",
    ),
    "lem-3.8": (
        {"p": 5, "trials": 1},
        "f592b622f9743f01c2ff96ebb4e0ca53e3352ce8edca8b8b5a08b048d15eec94",
    ),
    "prop-3.18": (
        {"p": 5, "trials": 1},
        "b9beb49c651db9aff823ae191b1740fe2bb3b205b1aa04733c0bb2214e44fa6e",
    ),
    "lem-3.13": ({}, "be2853e82439bbdb87ac9c42a6f94ce50e9fc3ff1814e673a9fc7971adef2e17"),
    "lem-3.4": ({}, "1e2677d2f8ffb017dcbe31a479a726a89dac22c50230aa971e88226c3865e337"),
    "lem-3.8-unique": (
        {"trials": 2},
        "3e78b79f948d9ae45357c0f5f7ca13bcebd8a6092de353c22cf02455c49dfef0",
    ),
    "lem-3.8-unique-default": (
        {},
        "12939da6f26fdbb26bcfc0f5fa2becab00de2716d2bfd4c8c4effccb6dc721fc",
    ),
    "determinism": ({}, "43b10513112a998b05e2a3478b589dca52600ce6779f66c83a0f603d02789f0a"),
    "lem-3.8-default": ({}, "2b22bbef6eb78f5191fce911df5ae465d2ab9996dce8de242c2107d6bc1e9947"),
    "rem-3.5": ({}, "d5afd875e412092964d9471cef85d275dbc2c1f24c8add9f0a202d593ba31487"),
    "lem-3.6": ({}, "58a381c281a5ca3bfefa7ce70466daddbb9cb2da051de7a0a23d5a0e41eece9d"),
    "pencil-cubics": ({}, "a4f0ce26d5ac6f90d9cd296e12e7b924322ca36741950991756e3062169c11c9"),
    "lem-3.14": ({}, "5dfc80d906573040d46caf23c35dec51c019f62a10fe6b787140e6de51d01d47"),
    "lem-3.15": ({}, "8515f32a7664a7d9235cfdf732eac15a842848589cef5f9915187aad0ab264d4"),
    "lem-3.16": ({}, "6213d497def57d14968336221196f53ae22bbba2bf114a7de4617447b33edb1b"),
    "prop-3.19": ({}, "8efc7e2c206fa6b69e3878bddd7633020c2a95622cb97b298282b8edce4d6fa5"),
    "prop-3.17": (
        {"trials": 20},
        "f069713c32789f6ce592d77fa411fb77e4828dba677ace7c34acd0dbb01eccd5",
    ),
    "low-dim-peskine": (
        {"trials": 3},
        "ff5894bc8f2e119cceddd2d5d4113cd91b7903599e8d1c719259d59d45d5054b",
    ),
}


def test_every_check_is_pinned():
    assert {key.removesuffix("-default") for key in GOLDEN} == set(REGISTRY)


@pytest.mark.parametrize("check_id", sorted(GOLDEN))
def test_stable_bytes_unchanged(check_id):
    overrides, digest = GOLDEN[check_id]
    rep = run_check(check_id.removesuffix("-default"), CheckConfig(**overrides))
    assert hashlib.sha256(rep.stable_bytes()).hexdigest() == digest

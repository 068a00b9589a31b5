"""Golden report bytes: refactors of the scan layer must not move a byte.

Each hash is the SHA-256 of `run_check(id, CheckConfig()).stable_bytes()`
at the default seed, recorded before the rank-drop scan was unified.
"""

import hashlib

import pytest

from peskine_lab.checks import CheckConfig, run_check

GOLDEN = {
    "pfaffian-det": "5f065a3fd75ad1e18b5101fdf23d5d0a009bee27b8bb3336daeede0e78324133",
    "thm-2.1": "e4a55de7c240e5659b7dedddc62523fc3fe2acae0cf6054bc4d9bf8f942d2e0f",
    "gl-equivariance": "57daf5368a5a71c956b3f802cd24689d0c1aa5b9624034c937bbab29880dd62c",
}


@pytest.mark.parametrize("check_id", sorted(GOLDEN))
def test_stable_bytes_unchanged(check_id):
    rep = run_check(check_id, CheckConfig())
    assert hashlib.sha256(rep.stable_bytes()).hexdigest() == GOLDEN[check_id]

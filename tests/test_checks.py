"""Registry wiring and report stability for the named checks."""

import dataclasses
import hashlib

import pytest

from peskine_lab.checks import (
    DEFAULT_SEED,
    REGISTRY,
    CheckConfig,
    dprime_rank2_predicate,
    run_check,
    sample_d16_nondegenerate,
)
from peskine_lab.rng import Rng
from peskine_lab.scan import affine_chunks

EXPECTED_IDS = (
    "pfaffian-det",
    "low-dim-peskine",
    "thm-2.1",
    "lem-3.4",
    "rem-3.5",
    "lem-3.6",
    "lem-3.8",
    "lem-3.8-unique",
    "lem-3.13",
    "pencil-cubics",
    "lem-3.14",
    "lem-3.15",
    "lem-3.16",
    "prop-3.1",
    "prop-3.2",
    "prop-3.17",
    "prop-3.18",
    "prop-3.19",
    "determinism",
    "gl-equivariance",
)


def test_registry_contents():
    assert REGISTRY == EXPECTED_IDS
    assert len(set(REGISTRY)) == len(REGISTRY)


def test_unknown_check_id():
    with pytest.raises(ValueError):
        run_check("lem-9.99")


def test_config_defaults_and_immutability():
    cfg = CheckConfig()
    assert cfg.seed == DEFAULT_SEED
    assert cfg.p is None and cfg.trials is None and cfg.threads is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1


def test_reports_are_byte_stable():
    cfg = CheckConfig(seed=7, trials=5)
    first = run_check("pfaffian-det", cfg)
    second = run_check("pfaffian-det", cfg)
    assert first.stable_bytes() == second.stable_bytes()
    assert first.check_id == "pfaffian-det"
    assert first.seed == 7


def test_threads_leave_no_trace():
    a = run_check("lem-3.6", CheckConfig(seed=3, trials=4, threads=1))
    b = run_check("lem-3.6", CheckConfig(seed=3, trials=4, threads=2))
    assert a.stable_bytes() == b.stable_bytes()
    assert "threads" not in a.params


def test_report_only_statuses():
    rep = run_check("rem-3.5", CheckConfig(seed=11, trials=4))
    assert rep.status == "REPORT_ONLY"
    rep = run_check("lem-3.8-unique", CheckConfig(seed=11, trials=6))
    assert rep.status == "REPORT_ONLY"
    assert sum(rep.metrics["count_hist"].values()) == 6
    rep = run_check("lem-3.16", CheckConfig(seed=11, trials=4))
    assert rep.status == "REPORT_ONLY"
    assert "within_bound_3" in rep.metrics


def test_config_overrides_flow_through():
    rep = run_check("lem-3.15", CheckConfig(seed=5, p=11, trials=3))
    assert rep.p == 11
    assert rep.params == {"pairs": 3}
    assert rep.status == "PASS"
    assert rep.metrics["exact"] == 3


def test_lem_3_6_exact_at_largest_admitted_prime():
    # At p = 2^31 - 1 the pairing sigma(v1, U7, perp) sums products near
    # 2^62; computed in raw int64 it wraps and the perp invariants read False.
    result = run_check("lem-3.6", CheckConfig(p=2**31 - 1, trials=6))
    assert result.metrics["perp_invariants"] is True
    assert result.status == "PASS"


def test_lem_3_8_admits_a_deeper_point():
    # At seed 15, p = 5 the third U7 chart of the second sigma holds a
    # point of full rank 4 (below n - 4 = 6) whose restricted rank is 2.
    # Read as "restricted rank exactly 4" it was one violation and a FAIL;
    # a restriction cannot raise the rank, so it conforms.
    result = run_check("lem-3.8", CheckConfig(seed=15, p=5, trials=3))
    assert result.metrics["violations"] == 0
    assert result.status == "PASS"


def test_budget_stopped_estimate_is_not_a_failure():
    # At p = 101 the sing_o2 ladder needs level 5, but 4 * 101^4 tests
    # exceed the default budget, so it stops after level 3 with no hits:
    # no verdict, not a wrong dimension.
    result = run_check("lem-3.13", CheckConfig(p=101, trials=4))
    sing = result.metrics["sing_o2_p101"]
    assert sing["estimated_dim"] == -1 and sing["ambiguous"] is True
    assert "stopped the ladder at level 4 of 20" in sing["note"]
    assert result.status == "AMBIGUOUS"


def test_withheld_slice_estimates_are_not_a_failure():
    # With a budget of 10^4 tests every n = 8 ladder stops below the
    # ambient dimension, and so do the n = 6 ones at p = 7: n8_dim4 and
    # n6_p7_conforming read 0, but no estimate contradicts the claim.
    result = run_check("low-dim-peskine", CheckConfig(budget=10**4, trials=2))
    assert result.metrics["n8_dim4"] == 0 and result.metrics["n6_p7_conforming"] == 0
    assert result.status == "AMBIGUOUS"


def test_withheld_estimate_is_not_within_bound():
    # At budget 1000 the lem-3.16 ladder is stopped before any level
    # reaches the hit threshold: the estimate (-1) is withheld, so it
    # bounds nothing.
    result = run_check("lem-3.16", CheckConfig(budget=1000))
    assert result.metrics["estimated_dim"] == -1 and result.metrics["ambiguous"] is True
    assert result.metrics["within_bound_3"] is False


def test_lem_3_16_chart_locus_has_dimension_five():
    # The slice ladder reads dimension 5 against the claimed bound of 3.
    # An exhaustive count of the check's own p = 3 draw over the whole
    # 8-coordinate chart finds exactly 3^5 points: rank <= 2 of a 5 x 5
    # skew form has codimension 3, and 8 - 3 = 5.
    samp = sample_d16_nondegenerate(Rng(DEFAULT_SEED).child("lem-3.16").child("sigma"), 3)
    pred = dprime_rank2_predicate(samp.sigma, samp.flag)
    blocks = list(affine_chunks(8, 3))
    assert sum(map(len, blocks)) == 3**8
    assert sum(int(pred.test_batch(block).sum()) for block in blocks) == 3**5


def test_prop_3_17_runs_at_the_smallest_prime():
    # Node interpolation at t = 0..4 made the quartic grid singular mod 3,
    # so the check stopped with "matrix is singular mod p".  The counts at
    # p = 3 are a small-field reading, so no status is asserted.
    result = run_check("prop-3.17", CheckConfig(p=3, trials=2))
    assert result.p == 3
    assert sum(result.metrics["count_hist"].values()) == 2


@pytest.mark.parametrize(
    "check_id, digest",
    [
        ("lem-3.14", "5dfc80d906573040d46caf23c35dec51c019f62a10fe6b787140e6de51d01d47"),
        ("prop-3.17", "2bf0f1fc8bbf9ac9a2b80f5d6740499cb650402c59fdb6d9c4cb4bb43ed58c9a"),
    ],
)
def test_table_prime_bounds_leave_the_default_bytes(check_id, digest):
    # The prime bounds of `orbits._min_lift_rank` and
    # `loci._grid_quartic_zeros` lie far above the default primes: the
    # reports at the default config are the bytes from before the bounds.
    rep = run_check(check_id, CheckConfig())
    assert hashlib.sha256(rep.stable_bytes()).hexdigest() == digest

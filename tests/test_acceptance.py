"""Acceptance criteria, one test per criterion.

Every test runs the named checks at the default seed and re-asserts the
criterion's numeric gates directly from the reported metrics, so a
regression in a check's own pass logic cannot hide here.  Each check runs
once per session and is shared across criteria.

Each criterion asserts its stated wall-clock budget as is, on whatever
cores the machine has: checks run on one thread by default, and every
budget holds on one core with ample headroom.
"""

from peskine_lab.checks import CheckConfig, run_check
from peskine_lab.report import CheckReport

_RESULTS: dict[str, CheckReport] = {}


def check(check_id: str) -> CheckReport:
    if check_id not in _RESULTS:
        _RESULTS[check_id] = run_check(check_id, CheckConfig())
    return _RESULTS[check_id]


def finish(tag: str, budget_s: float, *reports: CheckReport) -> None:
    elapsed = sum(r.runtime_ms for r in reports) / 1000
    print(f"{tag}: {elapsed:.1f}s of {budget_s:.0f}s budget")
    assert elapsed < budget_s, f"{tag} runtime {elapsed:.1f}s"


def test_criterion_01_pfaffian_identity():
    rep = check("pfaffian-det")
    assert rep.metrics["forms"] == 2 * 5 * 1000
    assert rep.metrics["mismatches"] == 0
    assert rep.status == "PASS"
    finish("criterion 01 pfaffian-det", 10, rep)


def test_criterion_02_low_dimensional_loci():
    rep = check("low-dim-peskine")
    m = rep.metrics
    assert m["n6_p7_conforming"] >= 18, m
    assert m["n6_p11_conforming"] >= 18, m
    expected6 = {7: {"0", str(2 * (49 + 7 + 1))}, 11: {"0", str(2 * (121 + 11 + 1))}}
    for p in (7, 11):
        off = set(m[f"n6_p{p}_counts"]) - expected6[p]
        assert sum(m[f"n6_p{p}_counts"][k] for k in off) <= 2, m
    assert m["n8_dim4"] == 10, m
    assert m["n8_conforming"] >= 8, m
    models8 = {str((49 + 7 + 1) ** 2), str(7**4 + 7**2 + 1)}
    print(f"  n8 counts (models {sorted(models8)}): {m['n8_counts']}")
    assert rep.status == "PASS"
    finish("criterion 02 low-dim-peskine", 300, rep)


def test_criterion_03_projection_fibers():
    rep = check("thm-2.1")
    m = rep.metrics
    assert m["mode_disagreements"] == 0, m
    assert m["non_affine_linear"] == 0, m
    assert m["singleton_rate_p101"] >= 0.95, m
    assert rep.status == "PASS"
    finish("criterion 03 thm-2.1", 180, rep)


def test_criterion_04_rank_biconditional():
    rep = check("lem-3.8")
    m = rep.metrics
    assert m["violations"] == 0, m
    assert m["flag_recovery_ok"], m
    assert m["points_scanned"] == 15 * 7**6  # 15 affine-chart scans of P(U7) \ P(V6)
    assert rep.status == "PASS"
    finish("criterion 04 lem-3.8", 120, rep)


def test_criterion_05_interpolated_cubic():
    rep = check("lem-3.4")
    m = rep.metrics
    assert m["degree_exactly_3"], m
    assert m["mismatches"] == 0, m
    assert m["points_checked"] == 3 * 177156  # three exhaustive P5(F11) sweeps
    assert rep.status == "PASS"
    finish("criterion 05 lem-3.4", 120, rep)


def test_criterion_06_stratum_dimensions():
    rep = check("lem-3.13")
    for p in (5, 7):
        for name, want in (("o2", 18), ("sing_o2", 15)):
            est = rep.metrics[f"{name}_p{p}"]
            assert est["estimated_dim"] == want, (name, p, est)
            assert not est["ambiguous"], (name, p, est)
    assert rep.status == "PASS"
    finish("criterion 06 lem-3.13", 600, rep)


def test_criterion_07_pencil_of_cubics():
    rep = check("pencil-cubics")
    m = rep.metrics
    assert m["b12_free"], m
    assert m["pairs_checked"] == 500 * 20
    assert m["mismatches"] == 0, m
    assert rep.status == "PASS"
    finish("criterion 07 pencil-cubics", 30, rep)


def test_criterion_08_normal_form_roundtrip():
    rep = check("lem-3.14")
    m = rep.metrics
    assert m["sufficient"] == m["samples"] == 200, m
    assert m["roundtrip"] == 200, m
    assert m["differential_rank"] <= 15, m
    print(f"  differential rank (report only): {m['differential_rank']}")
    assert rep.status == "PASS"
    finish("criterion 08 lem-3.14", 60, rep)


def test_criterion_09_prescribed_residues():
    rep = check("lem-3.15")
    m = rep.metrics
    assert m["exact"] == m["pairs"] == 50, m
    assert rep.status == "PASS"
    finish("criterion 09 lem-3.15", 30, rep)


def test_criterion_10_line_probe_birationality():
    rep = check("prop-3.17")
    m = rep.metrics
    assert m["single_rate"] >= 0.95, m
    assert m["targeted_count"] == m["targeted_expected"], m
    assert rep.status == "PASS"
    finish("criterion 10 prop-3.17", 60, rep)


def test_criterion_11_quadric_pencil():
    rep = check("prop-3.18")
    m = rep.metrics
    assert m["containment_violations"] == 0, m
    assert m["member_rank6"] >= 0.9 * m["member_samples"], m
    assert all(0 <= d <= m["coverage_bound"] for d in m["coverage_discrepancies"]), m
    print(f"  coverage discrepancies (report only): {m['coverage_discrepancies']}")
    assert rep.status == "PASS"
    finish("criterion 11 prop-3.18", 180, rep)


def test_criterion_12_fiber_smoothness():
    rep = check("prop-3.19")
    m = rep.metrics
    assert m["conforming"] >= 0.9 * m["fibers"], m
    assert rep.status == "PASS"
    finish("criterion 12 prop-3.19", 180, rep)


def test_criterion_13_k3_and_conic_fibration():
    witnesses = check("prop-3.1")
    assert witnesses.metrics["witnesses"] >= 80, witnesses.metrics
    assert witnesses.metrics["seeds"] == 100
    fibers = check("prop-3.2")
    m = fibers.metrics
    assert m["exact_p_plus_1"] >= 0.9 * m["witnesses"], m
    assert witnesses.status == "PASS" and fibers.status == "PASS"
    finish("criterion 13 prop-3.1 + prop-3.2", 600, witnesses, fibers)


def test_criterion_14_determinism_and_equivariance():
    det = check("determinism")
    assert det.metrics["scan_agreement"], det.metrics
    assert det.metrics["report_bytes_equal"], det.metrics
    gl = check("gl-equivariance")
    assert gl.metrics["triples"] == 100
    assert gl.metrics["failures"] == 0, gl.metrics
    assert det.status == "PASS" and gl.status == "PASS"
    finish("criterion 14 determinism + gl-equivariance", 120, det, gl)

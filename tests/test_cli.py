"""Exit codes and file plumbing of the command-line front end."""

import json

import pytest

from peskine_lab import checks
from peskine_lab.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from peskine_lab.report import CheckReport, emit_report
from peskine_lab.storage import trivector_from_dict


def test_sample_stdout_roundtrip(capsys):
    code = main(["sample", "--kind", "general", "--n", "6", "--p", "7", "--seed", "5"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    tri = trivector_from_dict(doc)
    assert tri.n == 6 and tri.p == 7


def test_sample_general_needs_n(capsys):
    code = main(["sample", "--kind", "general", "--p", "7", "--seed", "5"])
    assert code == EXIT_USAGE
    assert "--n" in capsys.readouterr().err


def test_sample_bad_kind_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--kind", "nope", "--p", "7", "--seed", "5"])
    assert exc.value.code == EXIT_USAGE


def test_sample_then_rank4_scan(tmp_path, capsys):
    tri_path = str(tmp_path / "tri.json")
    code = main(
        ["sample", "--kind", "d1-6-10", "--p", "3", "--seed", "8", "--out", tri_path]
    )
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out

    out_path = str(tmp_path / "scan.json")
    code = main(["scan", "--locus", "rank4", "--in", tri_path, "--out", out_path])
    assert code == EXIT_OK
    banner = capsys.readouterr().out
    assert "locus=rank4" in banner and "p=3" in banner
    doc = json.loads((tmp_path / "scan.json").read_text())
    assert doc["locus"] == "rank4" and doc["p"] == 3
    assert doc["count"] == len(doc["points"])


def test_peskine_scan_counts(tmp_path, capsys):
    tri_path = str(tmp_path / "six.json")
    main(["sample", "--kind", "general", "--n", "6", "--p", "3", "--seed", "4",
          "--out", tri_path])
    capsys.readouterr()
    code = main(["scan", "--locus", "peskine", "--in", tri_path])
    assert code == EXIT_OK
    assert "scanned=364" in capsys.readouterr().out  # (3^6 - 1) / 2


def test_scan_budget_guard(tmp_path, capsys):
    tri_path = str(tmp_path / "six.json")
    main(["sample", "--kind", "general", "--n", "6", "--p", "3", "--seed", "4",
          "--out", tri_path])
    capsys.readouterr()
    code = main(["scan", "--locus", "peskine", "--in", tri_path, "--budget", "10"])
    assert code == EXIT_BUDGET
    assert "over budget" in capsys.readouterr().err


def test_scan_p_mismatch(tmp_path, capsys):
    tri_path = str(tmp_path / "six.json")
    main(["sample", "--kind", "general", "--n", "6", "--p", "3", "--seed", "4",
          "--out", tri_path])
    capsys.readouterr()
    code = main(["scan", "--locus", "peskine", "--in", tri_path, "--p", "7"])
    assert code == EXIT_USAGE
    assert "does not match" in capsys.readouterr().err


def test_rank4_scan_rejects_small_n(tmp_path, capsys):
    tri_path = str(tmp_path / "six.json")
    main(["sample", "--kind", "general", "--n", "6", "--p", "3", "--seed", "4",
          "--out", tri_path])
    capsys.readouterr()
    code = main(["scan", "--locus", "rank4", "--in", tri_path])
    assert code == EXIT_USAGE


def test_verify_unknown_id(capsys):
    code = main(["verify", "lem-0.0"])
    assert code == EXIT_USAGE
    assert "pfaffian-det" in capsys.readouterr().err


@pytest.mark.parametrize("check_id", ["prop-3.1", "prop-3.2"])
@pytest.mark.parametrize("p", ["7", "2147483647"])
def test_verify_refuses_a_prime_outside_the_search(check_id, p, capsys, monkeypatch):
    # Refused on entry: no sample is drawn at that prime.
    def no_sample(*args):
        raise AssertionError("sampled before the prime was checked")

    monkeypatch.setattr(checks, "sample_d16_nondegenerate", no_sample)
    code = main(["verify", check_id, "--p", p, "--trials", "1"])
    assert code == EXIT_USAGE
    assert "the exhaustive inner search is limited to p in {3, 5}" in capsys.readouterr().err


def test_sample_refuses_a_modulus_that_is_not_prime(capsys):
    code = main(["sample", "--kind", "general", "--n", "6", "--p", "9", "--seed", "5"])
    assert code == EXIT_USAGE
    assert "odd prime" in capsys.readouterr().err


def test_verify_writes_aggregate(tmp_path, capsys):
    out_path = str(tmp_path / "rep.json")
    code = main(
        ["verify", "lem-3.15", "--p", "7", "--trials", "2", "--seed", "3",
         "--out", out_path]
    )
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert set(doc) == {"reports", "summary", "timings_ms"}
    assert doc["reports"][0]["check_id"] == "lem-3.15"


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, "trials": 2}))
    out_path = str(tmp_path / "rep.json")
    code = main(
        ["verify", "lem-3.15", "--p", "7", "--config", str(cfg_path),
         "--trials", "3", "--out", out_path]
    )
    assert code == EXIT_OK
    row = json.loads((tmp_path / "rep.json").read_text())["reports"][0]
    assert row["seed"] == 9  # from the file
    assert row["params"]["pairs"] == 3  # flag wins over the file


def test_config_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    code = main(["verify", "lem-3.15", "--config", str(cfg_path)])
    assert code == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc", [{"trials": 2.5}, {"seed": "abc"}, {"trials": True}, {"budget": None}, {"p": 7.0}]
)
def test_config_values_must_be_integers(tmp_path, capsys, doc):
    # A float or string once crashed with a traceback (exit 1, read as a FAIL
    # verdict), and a bool ran silently as the int it subclasses.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["verify", "lem-3.15", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lem-3.16", "--trials", "0"],
        ["verify", "lem-3.15", "--trials", "0"],
        ["estimate-dim", "--locus", "o2", "--trials", "0"],
        ["verify", "lem-3.15", "--threads", "0"],
        ["verify", "lem-3.15", "--threads", "-2"],
        ["verify", "lem-3.15", "--budget", "-1"],
    ],
)
def test_bad_numeric_flags_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "must be" in capsys.readouterr().err


def test_report_merge_and_fail_exit(tmp_path, capsys):
    ok = CheckReport("a-check", 1, 7, {}, "PASS", {"x": 1}, 12)
    bad = CheckReport("b-check", 2, 7, {}, "FAIL", {"x": 0}, 30)
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    emit_report([ok], f1)
    emit_report([bad], f2)

    merged = str(tmp_path / "merged.json")
    code = main(["report", "--in", f1, f2, "--out", merged])
    assert code == EXIT_CHECK_FAILED
    capsys.readouterr()
    doc = json.loads((tmp_path / "merged.json").read_text())
    assert [r["check_id"] for r in doc["reports"]] == ["a-check", "b-check"]
    assert doc["summary"] == {"PASS": 1, "FAIL": 1, "REPORT_ONLY": 0, "AMBIGUOUS": 0}

    code = main(["report", "--in", f1])
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_report_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"reports\": 5}")
    code = main(["report", "--in", str(path)])
    assert code == EXIT_USAGE
    assert "no reports array" in capsys.readouterr().err


def test_estimate_dim_smoke(capsys):
    code = main(
        ["estimate-dim", "--locus", "o2", "--p", "3", "--trials", "5", "--seed", "2"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "locus=o2" in out and "estimated_dim=" in out


def test_estimate_dim_dprime_rank2(capsys):
    code = main(
        ["estimate-dim", "--locus", "dprime-rank2", "--p", "5", "--trials", "4", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert "estimated_dim=" in capsys.readouterr().out

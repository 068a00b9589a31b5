"""Command-line front end: samplers, named checks, scans, dimension estimates.

Exit codes: 0 on success, 1 when a verification reports FAIL, 2 on usage
errors (unknown check id, malformed input, bad flags, a prime the command
does not admit), 3 when a scan or estimate would exceed the point budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checks import (
    REGISTRY,
    CheckConfig,
    dprime_rank2_predicate,
    o2_predicate,
    peskine_predicate,
    run_check,
    sample_d16_nondegenerate,
    sing_o2_predicate,
)
from .divisors import KINDS, rank4_points, sample_divisor, sample_general
from .estimators import LocusPredicate, slice_dim_estimate
from .linalg import UnsupportedPrime
from .loci import peskine_points
from .report import emit_report, report_from_dict, summary_table
from .rng import Rng
from .scan import projective_count
from .storage import load_trivector, store_trivector, trivector_to_dict

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_CONFIG_KEYS = ("seed", "p", "trials", "threads", "budget")


class UsageError(Exception):
    pass


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"config {path} must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(f"config {path} has unknown keys: {', '.join(unknown)}")
    return doc


def _merged_config(args) -> CheckConfig:
    """File values first, explicit flags override, dataclass defaults last."""
    doc = _read_config(getattr(args, "config", None))
    merged = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in doc:
            merged[key] = doc[key]
    try:
        return CheckConfig(**merged)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _load_input_trivector(path: str):
    try:
        return load_trivector(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path} is not a stored trivector: {exc}") from exc


def _cmd_sample(args) -> int:
    if args.kind == "general" and args.n is None:
        raise UsageError("--n is required for --kind general")
    rng = Rng(args.seed)
    if args.kind == "general":
        tri = sample_general(rng, args.n, args.p)
    else:
        tri = sample_divisor(rng, args.kind, args.p).sigma
    doc = trivector_to_dict(tri)
    if args.out:
        store_trivector(tri, args.out)
        print(
            f"wrote {args.out}: kind={args.kind} n={tri.n} p={tri.p} "
            f"nonzero={len(doc['coeffs'])}"
        )
    else:
        print(json.dumps(doc, separators=(",", ":")))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.check_id not in REGISTRY:
        raise UsageError(f"unknown check id {args.check_id!r} (known: {', '.join(REGISTRY)})")
    cfg = _merged_config(args)
    rep = run_check(args.check_id, cfg)
    if args.out:
        print(emit_report([rep], args.out))
    else:
        print(summary_table([rep]))
    return EXIT_CHECK_FAILED if rep.status == "FAIL" else EXIT_OK


def _scan_sigma(args, cfg: CheckConfig):
    """Trivector for a scan: stored file wins, otherwise sample by locus."""
    if args.infile:
        tri = _load_input_trivector(args.infile)
        if args.p is not None and args.p != tri.p:
            raise UsageError(f"--p {args.p} does not match stored p={tri.p}")
        return tri
    p = args.p if args.p is not None else 7
    rng = Rng(cfg.seed).child(f"cli-scan-{args.locus}")
    if args.locus == "rank4":
        return sample_divisor(rng, "d1-6-10", p).sigma
    n = args.n if args.n is not None else 6
    return sample_general(rng, n, p)


def _cmd_scan(args) -> int:
    cfg = _merged_config(args)
    tri = _scan_sigma(args, cfg)
    if args.locus == "rank4" and tri.n != 10:
        raise UsageError(f"rank4 scan expects a 10-dim trivector, got n={tri.n}")
    total = projective_count(tri.n - 1, tri.p)
    if total > cfg.budget:
        print(
            f"scan would visit {total} points, over budget {cfg.budget}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    if args.locus == "rank4":
        pts = rank4_points(tri, threads=cfg.threads)
    else:
        pts = peskine_points(tri, threads=cfg.threads)
    print(f"locus={args.locus} n={tri.n} p={tri.p} scanned={total} hits={len(pts)}")
    for pt in pts[:10]:
        print("  " + " ".join(str(c) for c in pt))
    if len(pts) > 10:
        print(f"  ... {len(pts) - 10} more")
    if args.out:
        doc = {
            "locus": args.locus,
            "n": tri.n,
            "p": tri.p,
            "scanned": total,
            "count": len(pts),
            "points": [list(pt) for pt in pts[:1000]],
        }
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _estimate_predicate(args, cfg: CheckConfig) -> LocusPredicate:
    p = args.p if args.p is not None else 5
    if args.locus == "o2":
        return o2_predicate(p)
    if args.locus == "sing-o2":
        return sing_o2_predicate(p)
    if args.locus == "dprime-rank2":
        rng = Rng(cfg.seed).child("cli-estimate-d16")
        samp = sample_d16_nondegenerate(rng, p)
        return dprime_rank2_predicate(samp.sigma, samp.flag)
    if args.infile:
        tri = _load_input_trivector(args.infile)
        if args.p is not None and args.p != tri.p:
            raise UsageError(f"--p {args.p} does not match stored p={tri.p}")
    else:
        n = args.n if args.n is not None else 6
        tri = sample_general(Rng(cfg.seed).child("cli-estimate-peskine"), n, p)
    return peskine_predicate(tri)


def _cmd_estimate_dim(args) -> int:
    cfg = _merged_config(args)
    pred = _estimate_predicate(args, cfg)
    rng = Rng(cfg.seed).child(f"cli-estimate-{args.locus}")
    est = slice_dim_estimate(
        pred,
        rng,
        trials=cfg.trials if cfg.trials is not None else 20,
        budget=cfg.budget,
        threads=cfg.threads,
    )
    profile = " ".join(f"{d}:{f:.2f}" for d, f in sorted(est.hit_profile.items()))
    print(f"locus={args.locus} p={pred.p} estimated_dim={est.estimated_dim}")
    print(f"ambiguous={est.ambiguous} profile=[{profile}]")
    if est.confidence_note:
        print(f"note: {est.confidence_note}")
    return EXIT_OK


def _cmd_report(args) -> int:
    reports = []
    for path in args.inputs:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path} is not valid JSON: {exc}") from exc
        rows = doc.get("reports") if isinstance(doc, dict) else doc
        if not isinstance(rows, list):
            raise UsageError(f"{path} has no reports array")
        try:
            reports.extend(report_from_dict(row) for row in rows)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{path} has a malformed report row: {exc}") from exc
    if args.out:
        print(emit_report(reports, args.out))
    else:
        print(summary_table(reports))
    failed = any(r.status == "FAIL" for r in reports)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _add_config_flags(sub, trials: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    if trials:
        sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--config", default=None, help="JSON file with default flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peskine-lab", description=__doc__.splitlines()[0]
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sample = subs.add_parser("sample", help="draw a trivector and print or store it")
    sample.add_argument("--kind", choices=KINDS, required=True)
    sample.add_argument("--p", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--n", type=int, default=None, help="dimension (general kind)")
    sample.add_argument("--out", default=None)

    verify = subs.add_parser("verify", help="run one named check")
    verify.add_argument("check_id")
    _add_config_flags(verify)
    verify.add_argument("--out", default=None, help="write the aggregate JSON here")

    scan = subs.add_parser("scan", help="enumerate a locus of P^(n-1); scanned= counts all its points")
    scan.add_argument("--locus", choices=("peskine", "rank4"), required=True)
    _add_config_flags(scan, trials=False)
    scan.add_argument("--n", type=int, default=None, help="dimension (peskine locus)")
    scan.add_argument("--in", dest="infile", default=None, help="stored trivector")
    scan.add_argument("--out", default=None)

    est = subs.add_parser("estimate-dim", help="slice-based dimension estimate")
    est.add_argument(
        "--locus", choices=("o2", "sing-o2", "peskine", "dprime-rank2"), required=True
    )
    _add_config_flags(est)
    est.add_argument("--n", type=int, default=None, help="dimension (peskine locus)")
    est.add_argument("--in", dest="infile", default=None, help="stored trivector")

    agg = subs.add_parser("report", help="merge report files into one aggregate")
    agg.add_argument("--in", dest="inputs", nargs="+", required=True)
    agg.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "estimate-dim": _cmd_estimate_dim,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, UnsupportedPrime) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

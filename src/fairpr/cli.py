"""Command-line surface: pagerank, optimize, baseline, evaluate, sweep.

Exit codes: 0 ok, 2 input error, 3 numerical failure. Set FPR_LOG to a
logging level name (e.g. DEBUG) for verbose output. The single-run commands
read an input path '-' as standard input.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import baselines
from .experiment import (
    BASELINE_METHODS,
    ExperimentSpec,
    evaluate_matrices,
    load_instance,
    rows_to_csv,
    run_optimizer_method,
    run_sweep,
)
from .graph import FairnessTarget, GraphParseError, format_lines, load_labels, parse_matrix, serialize_matrix
from .optimizer import DivergedError, OptimizerConfig
from .pagerank import group_scores, pagerank_power, pagerank_residual

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _read(path: str) -> str:
    """Read a file, or standard input when path is '-'."""
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_instance(args):
    return load_instance(_read(args.edges), _read(args.labels), args.undirected, args.gamma)


def _parse_phi(phi_text: str, K: int) -> FairnessTarget:
    """Either a full comma-separated length-K vector or a single lead share."""
    parts = [float(tok) for tok in phi_text.split(",")]
    if len(parts) == K:
        return FairnessTarget(phi=parts)
    if len(parts) == 1:
        return FairnessTarget.from_lead_share(parts[0], K)
    raise InputError(f"--phi needs 1 or {K} comma-separated values, got {len(parts)}")


def _common_input_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--edges", required=required, help="edge-list file")
    p.add_argument("--labels", required=required, help="label file")
    p.add_argument("--undirected", action="store_true", help="mirror each input edge")
    p.add_argument("--gamma", type=float, default=0.15)


def _optimizer_flags(p: argparse.ArgumentParser) -> None:
    opt = OptimizerConfig()  # the flags' defaults
    p.add_argument("--alpha", type=float, default=opt.alpha, help="constant step size (grid-searched when absent)")
    p.add_argument("--t1", type=int, default=opt.t1)
    p.add_argument("--t2", type=int, default=opt.t2)
    p.add_argument("--kappa", type=float, default=opt.kappa)
    p.add_argument(
        "--max-iters", type=int, default=opt.max_iters, help="most steps; the loss after the last is reported"
    )
    p.add_argument("--delta", type=float, default=opt.delta)
    p.add_argument("--epsilon", type=float, default=opt.epsilon)


def _build_opt(args) -> OptimizerConfig:
    """The flags named as OptimizerConfig's fields; the others keep their defaults."""
    return OptimizerConfig(**{f.name: getattr(args, f.name) for f in fields(OptimizerConfig) if hasattr(args, f.name)})


def cmd_pagerank(args) -> int:
    groups, cfg, P = _load_instance(args)
    p = pagerank_power(P, cfg, t1=args.t1, tol=1e-13)
    scores = group_scores(p, groups)
    print("group scores: " + " ".join(f"{s:.6f}" for s in scores))
    print(f"l1 residual: {pagerank_residual(P, cfg, p):.3e}")
    if args.dump:
        Path(args.dump).write_text(format_lines("%d\t%.17g\n", np.arange(len(p)), p))
    return EXIT_OK


def cmd_optimize(args) -> int:
    groups, _, P = _load_instance(args)
    target = _parse_phi(args.phi, groups.K)
    opt = _build_opt(args)
    report = run_optimizer_method(args.method, P, args.gamma, groups, target, opt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "original.tsv").write_text(serialize_matrix(P))
    (out / "revised.tsv").write_text(serialize_matrix(report.final_matrix))
    bundle, rt_reason, final_scores = evaluate_matrices(
        P, report.final_matrix, args.gamma, groups, target
    )
    payload = {
        "method": args.method,
        "phi": list(map(float, target.phi)),
        "gamma": args.gamma,
        "iterations": report.iterations_run,
        "stop_reason": report.stop_reason,
        "loss_trace": [float(x) for x in report.loss_trace],
        "final_group_scores": [float(x) for x in final_scores],
        "metrics": asdict(bundle),
        "notes": rt_reason,
    }
    if len(report.grid) > 1:
        payload["grid"] = [asdict(point) for point in report.grid]
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print("final group scores: " + " ".join(f"{s:.6f}" for s in final_scores))
    print(f"final loss: {report.final_loss:.6e} after {report.iterations_run} iterations "
          f"(stop_reason: {report.stop_reason})")
    print(f"wrote {out / 'revised.tsv'} and {out / 'report.json'}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    groups, _, P = _load_instance(args)
    target = _parse_phi(args.phi, groups.K)
    result = getattr(baselines, args.method)(P, groups, target)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "original.tsv").write_text(serialize_matrix(P))
    (out / "revised.tsv").write_text(serialize_matrix(result.matrix))
    print(f"method: {result.method}")
    print(f"pattern_extended: {str(not result.matrix.pattern_subset_of(P)).lower()}")
    print(f"wrote {out / 'revised.tsv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    original = parse_matrix(_read(args.original))
    revised = parse_matrix(_read(args.revised))
    if original.n != revised.n:
        raise InputError(f"dimension mismatch: original n={original.n}, revised n={revised.n}")
    groups = load_labels(_read(args.labels), original.n)
    target = _parse_phi(args.phi, groups.K)
    bundle, rt_reason, _ = evaluate_matrices(original, revised, args.gamma, groups, target)
    extended = not revised.pattern_subset_of(original)
    print(f"loss: {bundle.loss:.6e}")
    print(f"loss_group_adapted: {bundle.loss_group_adapted:.6e}")
    print(f"delta_p: {bundle.delta_p:.6e}")
    print(f"rho_bar: {bundle.rho_bar:.6f}")
    if bundle.rho_tilde is not None:
        print(f"rho_tilde: {bundle.rho_tilde:.6f}")
    else:
        print(f"rho_tilde: undefined ({rt_reason})")
    print(f"pattern_extended: {str(extended).lower()}")
    return EXIT_OK


def _config_flags(args) -> list[str]:
    """The --config file's key=value lines as sweep flags: ``--key=value``,
    or ``--undirected`` for a true ``undirected``."""
    known = set(vars(args)) - {"command", "fn", "config"}
    flags = []
    for lineno, raw in enumerate(_read(args.config).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().replace("-", "_"), val.strip()
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        if key != "undirected":
            flags.append(f"--{key.replace('_', '-')}={val}")
        elif val.lower() in ("1", "true", "yes"):
            flags.append("--undirected")
    return flags


def cmd_sweep(args) -> int:
    if not args.edges or not args.labels:
        raise InputError("sweep needs --edges and --labels (flags or config file)")
    spec = ExperimentSpec(
        graph_path=args.edges,
        labels_path=args.labels,
        undirected=args.undirected,
        gamma=args.gamma,
        phi_grid=tuple(float(tok) for tok in args.phi.split(",")),
        methods=tuple(tok.strip() for tok in args.methods.split(",")),
        output_dir=args.out,
        dataset=args.dataset_name,
        optimizer=_build_opt(args),
        jobs=args.jobs,
    )
    rows = run_sweep(spec)
    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    failures = sum(1 for r in rows if r.loss is None)
    print(f"wrote {csv_path} ({len(rows)} rows, {failures} without metrics)")
    return EXIT_OK


@functools.cache  # one parser per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairpr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pagerank", help="print group-wise scores of a graph")
    _common_input_flags(p)
    p.add_argument("--t1", type=int, default=100)
    p.add_argument("--dump", default=None, help="write the full score vector to this path")
    p.set_defaults(fn=cmd_pagerank)

    p = sub.add_parser("optimize", help="run fairgd/adaptgd and write the revised matrix")
    _common_input_flags(p)
    p.add_argument("--method", choices=["fairgd", "adaptgd"], required=True)
    p.add_argument("--phi", required=True, help="single lead share or comma-separated targets")
    _optimizer_flags(p)
    p.add_argument("--alpha-auto", action="store_true", help="use the safe step 2/C instead of --alpha")
    p.add_argument("--out", default="opt_out")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("baseline", help="run a baseline reweighting and write the revised matrix")
    _common_input_flags(p)
    p.add_argument("--method", choices=BASELINE_METHODS, required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--out", default="baseline_out")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("evaluate", help="metric bundle of a revised matrix vs the original")
    p.add_argument("--original", required=True, help="original matrix TSV")
    p.add_argument("--revised", required=True, help="revised matrix TSV")
    p.add_argument("--labels", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--gamma", type=float, default=0.15)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (method, phi) grid and write results.csv")
    _common_input_flags(p, required=False)
    p.add_argument("--phi", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", help="comma-separated phi grid")
    p.add_argument("--methods", default="fairgd,fairwalk", help="comma-separated method names")
    _optimizer_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at most one per cell")
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--config", default=None, help="key=value settings file, read as flags; the command line's flags win")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("FPR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's settings go right after the command, so later flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        return args.fn(args)
    except (InputError, GraphParseError, baselines.UnsupportedGroupCountError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

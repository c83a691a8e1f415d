"""Command-line surface.

Subcommands: convergents, psi, trace, kindex, verify, proof-trace, plot.
Exit codes: 0 success, 1 analysis failure (undecided, dependent, window
too short, ...), 2 usage or spec-file error, 3 internal error (a
self-check of the program failed, reported as `internal error: ...` on
stderr; this is a bug, never an analysis result). All numbers print as
exact rationals num/den unless --approx adds a decimal display column.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .bound import verify_with_retries
from .cf import DEFAULT_DEPTH_CAP, convergents
from .errors import LabError, SpecFileError
from .plotting import render_step_svg
from .screening import (check_reversal_pattern, rigidity_scan,
                        scan_coincidences)
from .specfile import TupleSpecFile, parse_spec
from .stepfunc import build_trajectory, serialize_trajectory
from .sweep import TupleContext, format_permutation, serialize_report, sweep


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args fills a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="irrmeasure",
        description="Exact analyses of irrationality measure step functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", type=Path, help="tuple-spec file")
        p.add_argument("--t-max", type=int, default=None,
                       help="override the spec's horizon")
        p.add_argument("--burn-in", type=int, default=None,
                       help="override the spec's burn-in time")
        p.add_argument("--depth-cap", type=int, default=None,
                       help="hard cap on coefficient indices")
        p.add_argument("--max-compare-depth", type=int, default=None,
                       help="refinement budget for certified comparisons")
        p.add_argument("--approx", action="store_true",
                       help="append decimal approximations to tables")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="directory for file outputs (plot)")
        return p

    p = add("convergents", "print the convergent table of every member")
    p.add_argument("--count", type=int, default=10)
    add("psi", "print the step-function records of every member")
    add("trace", "sweep the tuple and print events plus the summary block")
    add("kindex", "print the distinct-ordering census of the window")
    p = add("verify", "coincidence logs, rigidity scan, reversal records")
    p.add_argument("--scan-depth", type=int, default=40)
    p.add_argument("--max-index", type=int, default=25)
    p.add_argument("--max-d", type=int, default=4)
    p = add("proof-trace", "replay the count bound with retry doubling")
    p.add_argument("--retries", type=int, default=8)
    p = add("plot", "write one SVG per member with all step functions overlaid")
    p.add_argument("--linear", action="store_true",
                   help="linear axes instead of the default log-log")
    return parser


class _Job:
    """Effective settings: spec-file globals overridden by flags."""

    def __init__(self, args) -> None:
        self.spec: TupleSpecFile = parse_spec(args.spec.read_bytes())
        self.t_max = args.t_max if args.t_max is not None else self.spec.t_max
        self.burn_in = args.burn_in if args.burn_in is not None else self.spec.burn_in
        self.depth_cap = (args.depth_cap if args.depth_cap is not None
                          else self.spec.depth_cap) or DEFAULT_DEPTH_CAP
        self.max_compare_depth = (args.max_compare_depth
                                  if args.max_compare_depth is not None
                                  else self.spec.max_compare_depth) or 64
        out = args.out_dir if args.out_dir is not None else self.spec.out_dir
        self.out_dir = Path(out) if out is not None else Path(".")
        self.approx = args.approx
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        self.names = [n.name for n in self.spec.numbers]
        self.cfs = [n.to_cf(depth_cap=self.depth_cap) for n in self.spec.numbers]
        if not self.cfs:
            raise ValueError("the spec file defines no numbers")

    def context(self) -> TupleContext:
        return TupleContext(self.cfs, t_max=self.t_max, burn_in=self.burn_in,
                            names=self.names,
                            max_compare_depth=self.max_compare_depth)


def _approx(value) -> str:
    return f"\t~{float(value):.6g}"


def _cmd_convergents(args) -> int:
    job = _Job(args)
    for name, cf in zip(job.names, job.cfs):
        print(f"# {name}")
        for c in convergents(cf, args.count):
            extra = _approx(c.value) if job.approx else ""
            print(f"{c.index}\t{c.p}/{c.q}{extra}")
    return 0


def _cmd_psi(args) -> int:
    job = _Job(args)
    for name, cf in zip(job.names, job.cfs):
        print(f"# {name}")
        traj = build_trajectory(cf, job.t_max)
        if job.approx:
            for q, e in traj.breakpoints:
                lo, hi = e.interval()
                print(f"{q}\t{lo.numerator}/{lo.denominator}\t"
                      f"{hi.numerator}/{hi.denominator}{_approx((lo + hi) / 2)}")
        else:
            print(serialize_trajectory(traj), end="")
    return 0


def _cmd_trace(args) -> int:
    job = _Job(args)
    print(serialize_report(sweep(job.context())), end="")
    return 0


def _cmd_kindex(args) -> int:
    job = _Job(args)
    report = sweep(job.context())
    print(f"window\t{report.t0}\t{report.t_max}")
    print(f"k_hat\t{report.k_hat}")
    print(f"max_tau\t{report.max_tau}")
    for perm, (first, last) in report.perm_spans.items():
        print(f"perm\t{format_permutation(perm)}\t{first}\t{last}")
    return 0


def _cmd_verify(args) -> int:
    job = _Job(args)
    if len(job.cfs) < 2:
        raise ValueError("verify needs at least two numbers")
    failed = False
    for i in range(len(job.cfs)):
        for j in range(i + 1, len(job.cfs)):
            a, b = job.cfs[i], job.cfs[j]
            print(f"# pair\t{job.names[i]}\t{job.names[j]}")
            log = scan_coincidences(a, b, depth=args.scan_depth)
            print(log.serialize(), end="")
            if log.verdict.value == "DEPENDENT":
                failed = True
                continue
            scan = rigidity_scan(a, b, max_index=args.max_index,
                                 max_d=args.max_d,
                                 max_compare_depth=job.max_compare_depth)
            print(f"rigidity_scan\tchecked\t{len(scan)}\tconfirmed\t"
                  f"{scan.tally['CONFIRMED']}\tviolations\t{len(scan.violations)}")
            for r in scan.violations:
                failed = True
                print(r.serialize())
            for r in check_reversal_pattern(a, b, depth=args.scan_depth,
                                            burn_in=log.time_horizon,
                                            max_compare_depth=job.max_compare_depth):
                print(r.serialize())
                if r.applicable and r.reversal_at_alpha_prev is False:
                    failed = True
    return 1 if failed else 0


def _cmd_proof_trace(args) -> int:
    job = _Job(args)
    run = verify_with_retries(job.cfs, t_max=job.t_max, names=job.names,
                              burn_in=job.burn_in, retries=args.retries,
                              max_compare_depth=job.max_compare_depth)
    from .bound import render_proof_trace
    print(f"t_max\t{run.report.t_max}\tdoublings\t{run.doublings}")
    print(render_proof_trace(run.trace), end="")
    return 0


def _cmd_plot(args) -> int:
    job = _Job(args)
    trajectories = [build_trajectory(cf, job.t_max) for cf in job.cfs]
    series = []
    for name, traj in zip(job.names, trajectories):
        points = [(q, float(sum(e.interval()) / 2)) for q, e in traj.breakpoints]
        series.append((name, points))
    seen: dict[int, int] = {}
    for traj in trajectories:
        for t in traj.jump_times():
            seen[t] = seen.get(t, 0) + 1
    markers = sorted(t for t, count in seen.items() if count >= 2)
    job.out_dir.mkdir(parents=True, exist_ok=True)
    log = not args.linear
    for focus, name in enumerate(job.names):
        svg = render_step_svg(series, focus, markers, t_max=job.t_max,
                              log_x=log, log_y=log,
                              title=f"step functions up to t = {job.t_max}")
        path = job.out_dir / f"{name}.svg"
        path.write_text(svg)
        print(path)
    return 0


_HANDLERS = {
    "convergents": _cmd_convergents,
    "psi": _cmd_psi,
    "trace": _cmd_trace,
    "kindex": _cmd_kindex,
    "verify": _cmd_verify,
    "proof-trace": _cmd_proof_trace,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

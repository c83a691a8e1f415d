"""Command-line surface.

Each subcommand takes a tuple-spec file and exactly the flags it reads:

    convergents   --depth-cap --approx --count
    psi           --t-max --depth-cap --approx
    trace         --t-max --burn-in --depth-cap --max-compare-depth
    kindex        --t-max --burn-in --depth-cap --max-compare-depth
    verify        --depth-cap --max-compare-depth --scan-depth --max-index
                  --max-d
    proof-trace   --t-max --burn-in --depth-cap --max-compare-depth --retries
    plot          --t-max --depth-cap --out-dir

--t-max, --burn-in, --depth-cap, --max-compare-depth and --out-dir
override the spec-file global of the same name; a subcommand reads only
the globals whose flags it takes.

Exit codes: 0 success, 1 analysis failure (undecided, dependent, window
too short, ...), 2 usage or spec-file error, 3 internal error (a
self-check of the program failed, reported as `internal error: ...` on
stderr; this is a bug, never an analysis result), 141 the reader of
stdout closed it early (as `irrmeasure ... | head` does; nothing is
printed on stderr). All numbers print as
exact rationals num/den unless --approx adds a decimal display column.
Exit code 2, with nothing printed, is an unknown subcommand or flag (a
flag the subcommand does not take included), a spec file that cannot be
read or validated, or a numeric flag that is not an integer at or above
its minimum: 2 for --scan-depth, 0 for --max-index and --retries, 1 for
the rest.

main runs the subcommand with the cyclic garbage collector paused and
puts back the caller's setting on every exit. This is safe because the
analyses build no reference cycles: reference counting frees everything
they make. The collector's passes over what they keep alive (convergent
rows, error terms, events, the proof trace) would free nothing.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from collections import Counter
from collections.abc import Callable
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .bound import DEFAULT_RETRIES, render_proof_trace, verify_with_retries
from .cf import DEFAULT_COMPARE_DEPTH, DEFAULT_DEPTH_CAP, convergents
from .errors import LabError, SpecFileError
from .plotting import render_step_svg
from .screening import (DEFAULT_MAX_D, DEFAULT_MAX_INDEX, DEFAULT_SCAN_DEPTH,
                        Verdict, check_reversal_pattern, rigidity_scan,
                        scan_coincidences)
from .specfile import GLOBAL_KEYS, parse_spec
from .stepfunc import build_trajectory, serialize_trajectory
from .sweep import TupleContext, serialize_report, summary_lines, sweep


def _int_at_least(low: int):
    """An argparse type: an integer >= low, or a usage error (exit 2)."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    parse.__name__ = "int"   # argparse names it in "invalid int value"
    return parse


#: setting -> the argparse keywords of its flag, the setting's name with
#: dashes. The flags of the spec-file globals (GLOBAL_KEYS) default to
#: None, which _Job reads as unset.
_FLAGS = {
    "t_max": dict(type=_int_at_least(1), help="override the spec's horizon"),
    "burn_in": dict(type=_int_at_least(1), help="override the spec's burn-in time"),
    "depth_cap": dict(type=_int_at_least(1), help="hard cap on coefficient indices"),
    "max_compare_depth": dict(type=_int_at_least(1),
                              help="refinement budget for certified comparisons"),
    "approx": dict(action="store_true",
                   help="append decimal approximations to tables"),
    "out_dir": dict(type=Path, help="directory for the SVG files"),
    "count": dict(type=_int_at_least(1), default=10),
    "scan_depth": dict(type=_int_at_least(2), default=DEFAULT_SCAN_DEPTH),
    "max_index": dict(type=_int_at_least(0), default=DEFAULT_MAX_INDEX),
    "max_d": dict(type=_int_at_least(1), default=DEFAULT_MAX_D),
    "retries": dict(type=_int_at_least(0), default=DEFAULT_RETRIES),
}

#: spec-file global -> its value when neither its flag nor the spec sets
#: it (a spec always sets t_max; no burn-in means the automatic policy)
_DEFAULTS = {"depth_cap": DEFAULT_DEPTH_CAP,
             "max_compare_depth": DEFAULT_COMPARE_DEPTH, "out_dir": "."}


class _Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace], int]
    reads: tuple[str, ...]    # settings in _FLAGS, in --help order


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args fills a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="irrmeasure",
        description="Exact analyses of irrationality measure step functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("spec", type=Path, help="tuple-spec file")
        for setting in command.reads:
            p.add_argument("--" + setting.replace("_", "-"), **_FLAGS[setting])
    return parser


class _Job:
    """The settings its subcommand reads, and no other, plus the spec's
    members as streams. A spec-file global is its flag, else the spec's
    value, else the default: such a flag is None when unset and positive
    when set (both parsers check that), so `or` picks the first one set.
    Any other setting is its flag's value."""

    def __init__(self, args) -> None:
        spec = parse_spec(args.spec.read_bytes())
        for setting in _COMMANDS[args.command].reads:
            value = getattr(args, setting)
            if setting in GLOBAL_KEYS:
                value = value or getattr(spec, setting) or _DEFAULTS.get(setting)
            setattr(self, setting, value)
        self.names = [n.name for n in spec.numbers]
        self.cfs = [n.to_cf(depth_cap=self.depth_cap) for n in spec.numbers]
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
        for c in convergents(cf, job.count):
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
    print("\n".join(summary_lines(sweep(job.context()))))
    return 0


def _cmd_verify(args) -> int:
    job = _Job(args)
    if len(job.cfs) < 2:
        raise ValueError("verify needs at least two numbers")
    failed = False
    for i in range(len(job.cfs)):
        for j in range(i + 1, len(job.cfs)):
            a, b = job.cfs[i], job.cfs[j]
            log = scan_coincidences(a, b, depth=job.scan_depth)
            print(f"# pair\t{job.names[i]}\t{job.names[j]}")
            print(log.serialize(), end="")
            if log.verdict is Verdict.DEPENDENT:
                failed = True
                continue
            scan = rigidity_scan(a, b, max_index=job.max_index,
                                 max_d=job.max_d,
                                 max_compare_depth=job.max_compare_depth)
            print(f"rigidity_scan\tchecked\t{scan.checked}\tconfirmed\t"
                  f"{scan.tally['CONFIRMED']}\tviolations\t{len(scan.violations)}")
            for r in scan.violations:
                failed = True
                print(r.serialize())
            for r in check_reversal_pattern(a, b, depth=job.scan_depth,
                                            burn_in=log.time_horizon,
                                            max_compare_depth=job.max_compare_depth,
                                            names=(job.names[i], job.names[j])):
                print(r.serialize())
                if r.applicable and r.reversal_at_alpha_prev is False:
                    failed = True
    return 1 if failed else 0


def _cmd_proof_trace(args) -> int:
    job = _Job(args)
    run = verify_with_retries(job.cfs, t_max=job.t_max, names=job.names,
                              burn_in=job.burn_in, retries=job.retries,
                              max_compare_depth=job.max_compare_depth)
    print(f"t_max\t{run.report.t_max}\tdoublings\t{run.doublings}")
    print(render_proof_trace(run.trace), end="")
    return 0


def _cmd_plot(args) -> int:
    job = _Job(args)
    trajectories = [build_trajectory(cf, job.t_max) for cf in job.cfs]
    series = [(name, [(q, float(sum(e.interval()) / 2)) for q, e in traj.breakpoints])
              for name, traj in zip(job.names, trajectories)]
    seen = Counter(t for traj in trajectories for t in traj.jump_times())
    markers = sorted(t for t, count in seen.items() if count >= 2)
    out_dir = Path(job.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for focus, name in enumerate(job.names):
        svg = render_step_svg(series, focus, markers, t_max=job.t_max,
                              title=f"step functions up to t = {job.t_max}")
        path = out_dir / f"{name}.svg"
        path.write_text(svg)
        print(path)
    return 0


#: the sweep's settings, which trace, kindex and proof-trace read
_SWEEP = ("t_max", "burn_in", "depth_cap", "max_compare_depth")

#: subcommand -> its help text, handler and the settings it reads; the
#: parser gives it a flag for each of those settings and no other
_COMMANDS = {
    "convergents": _Command("print the convergent table of every member",
                            _cmd_convergents, ("depth_cap", "approx", "count")),
    "psi": _Command("print the step-function records of every member",
                    _cmd_psi, ("t_max", "depth_cap", "approx")),
    "trace": _Command("sweep the tuple and print events plus the summary block",
                      _cmd_trace, _SWEEP),
    "kindex": _Command("print the distinct-ordering census of the window",
                       _cmd_kindex, _SWEEP),
    "verify": _Command("coincidence logs, rigidity scan, reversal records",
                       _cmd_verify, ("depth_cap", "max_compare_depth",
                                     "scan_depth", "max_index", "max_d")),
    "proof-trace": _Command("replay the count bound with retry doubling",
                            _cmd_proof_trace, (*_SWEEP, "retries")),
    "plot": _Command("write one SVG per member with all step functions overlaid",
                     _cmd_plot, ("t_max", "depth_cap", "out_dir")),
}


def _silence_stdout() -> None:
    """Point stdout's file descriptor, when it has one, at the null
    device, so the interpreter's final flush of what is still buffered
    raises no second broken pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _buffer_stdout() -> None:
    """Give the process's stdout a buffered layer when its text layer
    writes to the raw file, as under `python -u` or PYTHONUNBUFFERED. The
    text layer ignores a partial raw write, so a reader closing the pipe
    mid-report would drop the rest in silence; the buffered layer writes
    everything or raises BrokenPipeError. Line buffering keeps output
    prompt, and the descriptor stays open when the new layer is freed."""
    out = sys.stdout
    if out is sys.__stdout__ and isinstance(getattr(out, "buffer", None),
                                            io.RawIOBase):
        sys.stdout = open(out.fileno(), "w", buffering=1, encoding=out.encoding,
                          errors=out.errors, closefd=False)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _buffer_stdout()
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _COMMANDS[args.command].run(args)
        sys.stdout.flush()    # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 141
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
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command-line behavior, including the exit-code contract:
0 success, 1 analysis failure, 2 usage or spec-file problems, 3 internal
error (a failed self-check of the program), 141 stdout closed early."""

import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import irrmeasure
from irrmeasure import (ErrorTerm, Ordering, ReversalRecord, RigidityOutcome,
                        RigidityRecord, RigidityScan, TrajectoryReport, cli)
from irrmeasure.cli import main

DATA = Path(__file__).resolve().parent / "data"

PAIR = """\
t_max = 300
burn_in = 100

[phi]
kind = periodic
preperiod = [1]
period = [1]

[root2]
kind = surd
rational = 0
root = 1
radicand = 2
"""

DEPENDENT = """\
[a]
kind = surd
rational = 0
root = 1
radicand = 2

[b]
kind = surd
rational = 1
root = -1
radicand = 2
"""


@pytest.fixture
def pair_spec(tmp_path):
    path = tmp_path / "pair.spec"
    path.write_text(PAIR)
    return path


def test_convergents_prints_exact_rationals(pair_spec, capsys):
    assert main(["convergents", str(pair_spec), "--count", "4"]) == 0
    out = capsys.readouterr().out
    assert "# phi" in out and "# root2" in out
    assert "3\t17/12" in out
    assert "." not in out.replace("...", "")   # exact rationals only


def test_convergents_approx_flag_adds_decimals(pair_spec, capsys):
    assert main(["convergents", str(pair_spec), "--count", "4", "--approx"]) == 0
    out = capsys.readouterr().out
    assert "~1.41667" in out


def test_psi_records(pair_spec, capsys):
    assert main(["psi", str(pair_spec), "--t-max", "12"]) == 0
    out = capsys.readouterr().out
    assert "2\t1/7\t1/5" in out
    assert "12\t1/41\t1/29" in out


def test_trace_and_kindex(pair_spec, capsys):
    assert main(["trace", str(pair_spec)]) == 0
    trace_out = capsys.readouterr().out
    assert "k_hat\t2" in trace_out
    assert "169\t2,1\t1,2\t2" in trace_out
    assert main(["kindex", str(pair_spec)]) == 0
    k_out = capsys.readouterr().out
    assert "k_hat\t2" in k_out


def test_verify_reports_scans(pair_spec, capsys):
    assert main(["verify", str(pair_spec), "--max-index", "10"]) == 0
    out = capsys.readouterr().out
    assert "verdict\tINDEPENDENT_LIKELY" in out
    assert "rigidity_scan" in out and "violations\t0" in out
    assert "reversal\t5\t4\t2\tAPPLICABLE\t2\tTrue" in out


def test_proof_trace(pair_spec, capsys):
    assert main(["proof-trace", str(pair_spec)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("t_max\t")
    assert "count_bound\t" in out and out.rstrip().endswith("ok")


def test_plot_writes_svg_per_member(pair_spec, tmp_path, capsys):
    out_dir = tmp_path / "plots"
    assert main(["plot", str(pair_spec), "--out-dir", str(out_dir)]) == 0
    for name in ("phi", "root2"):
        svg = (out_dir / f"{name}.svg").read_text()
        assert svg.startswith("<svg")
        assert "date" not in svg and "time" not in svg


def test_dependent_pair_exits_1(tmp_path, capsys):
    path = tmp_path / "dep.spec"
    path.write_text(DEPENDENT)
    assert main(["kindex", str(path)]) == 1
    assert "dependent" in capsys.readouterr().err


#: x and x + 1, a dependent pair, and phi, independent of both
DEPENDENT_AND_THIRD = """\
[x]
kind = surd
rational = 0
root = 1
radicand = 2

[x_plus_1]
kind = surd
rational = 1
root = 1
radicand = 2

[phi]
kind = periodic
preperiod = [1]
period = [1]
"""


def _verify_blocks(out: str) -> dict[tuple[str, str], list[str]]:
    """verify's stdout split into its per-pair blocks, keyed by the names."""
    blocks = {}
    for block in out.split("# pair\t")[1:]:
        head, *lines = block.splitlines()
        blocks[tuple(head.split("\t"))] = lines
    return blocks


def test_verify_dependent_pair_exits_1_and_is_not_scanned(tmp_path, capsys):
    path = tmp_path / "dep3.spec"
    path.write_text(DEPENDENT_AND_THIRD)
    assert main(["verify", str(path), "--max-index", "10"]) == 1
    blocks = _verify_blocks(capsys.readouterr().out)
    assert list(blocks) == [("x", "x_plus_1"), ("x", "phi"), ("x_plus_1", "phi")]
    dependent = blocks["x", "x_plus_1"]
    assert "verdict\tDEPENDENT" in dependent
    assert not any(line.startswith(("rigidity", "reversal")) for line in dependent)
    for pair in [("x", "phi"), ("x_plus_1", "phi")]:
        assert "verdict\tDEPENDENT" not in blocks[pair]
        assert sum(line.startswith("rigidity_scan\t") for line in blocks[pair]) == 1


def test_verify_rigidity_violation_exits_1_and_is_printed(pair_spec, monkeypatch,
                                                          capsys):
    # a VIOLATION certificate flags an arithmetic bug; verify prints it
    # and fails, whatever else the scan holds
    violation = RigidityRecord(nu=0, mu=1, d=2, outcome=RigidityOutcome.VIOLATION)
    monkeypatch.setattr(cli, "rigidity_scan", lambda a, b, *, max_index, max_d, **_:
                        RigidityScan(max_index, max_d, {(0, 1, 2): violation}))
    assert main(["verify", str(pair_spec), "--max-index", "10"]) == 1
    out = capsys.readouterr().out
    assert "violations\t1\n" in out
    assert "\nrigidity\t0\t1\t2\tVIOLATION\n" in out


@pytest.mark.parametrize("applicable, code", [(True, 1), (False, 0)])
def test_verify_failed_reversal_exits_1_only_when_applicable(
        pair_spec, monkeypatch, capsys, applicable, code):
    record = ReversalRecord(shared_q=5, nu=4, mu=2, applicable=applicable,
                            alpha_prev_time=2, beta_prev_time=1,
                            reversal_at_alpha_prev=False, reversal_at_beta_prev=None)
    monkeypatch.setattr(cli, "check_reversal_pattern", lambda *args, **kwargs: [record])
    assert main(["verify", str(pair_spec), "--max-index", "10"]) == code
    assert record.serialize() + "\n" in capsys.readouterr().out


def test_verify_names_an_unorderable_reversal_pair_by_the_spec(tmp_path, capsys):
    # ||12*r2|| = ||6*r8|| makes the two step values equal on [12, 28], so
    # the reversal check cannot order the members at t = 28
    path = tmp_path / "roots.spec"
    path.write_text("[r2]\nkind = surd\nrational = 0\nroot = 1\nradicand = 2\n\n"
                    "[r8]\nkind = surd\nrational = 0\nroot = 2\nradicand = 2\n")
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [screening.check_reversal_pattern] cannot "
                            "order members r2 and r8 at t = 28\n")
    assert captured.out.startswith("# pair\tr2\tr8\n")
    assert "reversal" not in captured.out


def test_proof_trace_fails_at_once_on_a_burn_in_no_doubling_reaches(
        monkeypatch, capsys):
    # verify_pairs3.spec's automatic burn-in is 396,309,982,081; t_max =
    # 10,000 doubled 8 times is 2,560,000. One screening pass finds it
    screening = importlib.import_module("irrmeasure.screening")
    sweep_module = importlib.import_module("irrmeasure.sweep")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return screening.scan_coincidences(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "scan_coincidences", counted)
    assert main(["proof-trace", str(DATA / "verify_pairs3.spec")]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [bound.verify_with_retries] burn-in "
                            "396309982081 is not below t_max = 10000, nor below "
                            "2560000, its value after 8 doublings\n")
    assert captured.out == ""
    assert len(calls) == 3    # the spec's three pairs, once


def test_verify_reports_a_short_member_by_its_own_error(tmp_path, capsys):
    # b has 4 coefficients and the rigidity window needs b's row
    # max_index + max_d = 5; the loop over every triple would first meet
    # an undecided comparison that b's end leaves open
    path = tmp_path / "short.spec"
    path.write_text("[a]\nkind = periodic\npreperiod = [0, 3]\nperiod = [3]\n\n"
                    "[b]\nkind = finite\ncoefficients = [0, 1, 2, 3]\n")
    assert main(["verify", str(path), "--scan-depth", "2", "--max-index", "3",
                 "--max-d", "2", "--max-compare-depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [cf.coefficient] finite backing has 4 "
                            "coefficients, index 4 requested\n")
    assert "rigidity" not in captured.out


def test_plot_has_no_linear_mode(pair_spec, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["plot", str(pair_spec), "--out-dir", str(tmp_path), "--linear"])
    assert info.value.code == 2
    assert "--linear" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [pair_spec]


def test_window_too_short_exits_1(pair_spec, capsys):
    assert main(["proof-trace", str(pair_spec), "--t-max", "101",
                 "--retries", "0"]) == 1
    assert "ordering" in capsys.readouterr().err


def test_internal_invariant_failure_exits_3(pair_spec, monkeypatch, capsys):
    # the sweep certifies sigma(t0) and the adjacencies each jump created;
    # a certificate that contradicts the insertion is a bug, not a result
    sweep_module = importlib.import_module("irrmeasure.sweep")
    monkeypatch.setattr(sweep_module, "first_misordered", lambda *args: 0)
    assert main(["trace", str(pair_spec)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "out of order" in captured.err
    assert captured.out == ""


#: command -> (spec stem, extra flags). replay_wide8: 8 surd members at
#: t_max 1e60, digests of the output the quadratic-time replay printed.
#: verify_pairs3: 3 periodic members, two sharing a 20-coefficient prefix,
#: digest of the output the triple-loop rigidity scan printed.
#: case -> (command, spec stem, flags); the digests live under the case
#: name in tests/data/<stem>.sha256.json
GOLDEN = {
    "kindex": ("kindex", "replay_wide8", []),
    "proof-trace": ("proof-trace", "replay_wide8", []),
    "psi": ("psi", "replay_wide8", []),
    "psi-approx": ("psi", "replay_wide8", ["--approx"]),
    "trace": ("trace", "replay_wide8", []),
    "verify": ("verify", "verify_pairs3", ["--max-index", "50", "--max-d", "4",
                                           "--scan-depth", "60"]),
}


def _golden_digest_matches(case, capsys) -> bool:
    command, stem, flags = GOLDEN[case]
    expected = json.loads((DATA / f"{stem}.sha256.json").read_text())
    assert main([command, str(DATA / f"{stem}.spec"), *flags]) == 0
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest() == expected[case]


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_output_digests(case, capsys):
    assert _golden_digest_matches(case, capsys)


def test_plot_golden_digest(tmp_path, capsys):
    # the SVG files, concatenated in member order, under the "plot" key
    expected = json.loads((DATA / "replay_wide8.sha256.json").read_text())
    assert main(["plot", str(DATA / "replay_wide8.spec"),
                 "--out-dir", str(tmp_path)]) == 0
    paths = capsys.readouterr().out.splitlines()
    assert [Path(p).name for p in paths] == [f"x{i}.svg" for i in range(1, 9)]
    svg = b"".join(Path(p).read_bytes() for p in paths)
    assert hashlib.sha256(svg).hexdigest() == expected["plot"]


def test_flip_counts_are_derived_only_by_trace(monkeypatch, capsys):
    # proof-trace and kindex never read the per-pair flip counts; trace
    # derives them once, when it serializes the report
    counted = TrajectoryReport.__dict__["sign_changes"]
    calls = []

    def refuse(report):
        raise AssertionError("flip counts derived on the replay path")

    monkeypatch.setattr(TrajectoryReport, "sign_changes", property(refuse))
    assert _golden_digest_matches("proof-trace", capsys)
    assert _golden_digest_matches("kindex", capsys)

    def derive(report):
        calls.append(report)
        return counted.func(report)

    monkeypatch.setattr(TrajectoryReport, "sign_changes", property(derive))
    assert _golden_digest_matches("trace", capsys)
    assert len(calls) == 1


@pytest.mark.parametrize("scope", ["every call", "binary search only"])
def test_inverted_comparison_fails_the_narrowed_self_check(scope, monkeypatch,
                                                          capsys):
    # a jump re-certifies only the adjacencies it created; a jumper put
    # in the wrong slot sits in one of them, so the check still fires
    spec = str(DATA / "replay_wide8.spec")
    assert main(["trace", spec]) == 0
    records, summary = capsys.readouterr().out.split("\n\n")
    records = records.splitlines()
    t0 = next(line.split("\t")[1] for line in summary.splitlines()
              if line.startswith("window\t"))
    sweep_module = importlib.import_module("irrmeasure.sweep")
    certified_order = sweep_module.certified_order
    inverted = {Ordering.GREATER: Ordering.LESS, Ordering.LESS: Ordering.GREATER}

    def invert(*args, **kwargs):
        order = certified_order(*args, **kwargs)
        if scope == "binary search only" and kwargs["origin"] != "sweep.sweep":
            return order
        return inverted[order]

    monkeypatch.setattr(sweep_module, "certified_order", invert)
    assert main(["trace", spec]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: members ")
    assert "out of order" in captured.err
    assert captured.out == ""
    time = captured.err.rstrip().rsplit(" ", 1)[1]
    if scope == "every call":
        assert time == t0    # sigma(t0) is wrong, and is checked where it is made
    else:
        at = next(r for r, line in enumerate(records)
                  if line.split("\t")[0] == time)
        # a later event with one jumper, which checks only a slice
        assert at > 0 and "," not in records[at].split("\t")[3]


def _certified_work(case, monkeypatch, capsys) -> dict[str, int]:
    """compare_errors calls, refinement steps and error terms built by the
    golden run of `case`, whose digest must match, through monkeypatched
    counters."""
    cf_module = importlib.import_module("irrmeasure.cf")
    counts = dict.fromkeys(("compare", "refine", "init"), 0)
    compare_errors = cf_module.compare_errors
    refine_once, init = ErrorTerm.refine_once, ErrorTerm.__init__

    def counted_compare(*args, **kwargs):
        counts["compare"] += 1
        return compare_errors(*args, **kwargs)

    def counted_refine(term):
        counts["refine"] += 1
        refine_once(term)

    def counted_init(term, *args, **kwargs):
        counts["init"] += 1
        init(term, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "irrmeasure"
                and getattr(module, "compare_errors", None) is compare_errors):
            monkeypatch.setattr(module, "compare_errors", counted_compare)
    monkeypatch.setattr(ErrorTerm, "refine_once", counted_refine)
    monkeypatch.setattr(ErrorTerm, "__init__", counted_init)
    assert _golden_digest_matches(case, capsys)
    return counts


def test_replay_certifies_the_pinned_amount_of_work(monkeypatch, capsys):
    # proof-trace on replay_wide8.spec. A change to how much certified
    # work a replay does has to change these numbers on purpose. The
    # context builds every breakpoint term but each member's last one
    # step refined, with no refinement step. When it refined those 934
    # terms after a depth-0 build, the replay took 1310 steps; the sweep
    # on depth-0 terms took 714 compares and 1144 steps
    assert _certified_work("proof-trace", monkeypatch, capsys) == {
        "compare": 266, "refine": 376, "init": 942}


def test_verify_certifies_the_pinned_amount_of_work(monkeypatch, capsys):
    # verify on verify_pairs3.spec. Half of its 36 rigidity sign keys sit
    # on shared convergent rows; the first differing tail coefficient
    # decides each of those, with no error term and no refinement step.
    # Refining them instead costs 36 compares, 378 steps and 72 terms
    assert _certified_work("verify", monkeypatch, capsys) == {
        "compare": 18, "refine": 0, "init": 36}


def test_non_coprime_denominator_row_exits_3(pair_spec, monkeypatch, capsys):
    # every row a stream adds to its pair index is asserted coprime; a row
    # that is not is a bug, reported before verify prints anything
    cf_module = importlib.import_module("irrmeasure.cf")
    monkeypatch.setattr(cf_module, "gcd",
                        lambda x, y: 2 if y > 10 else math.gcd(x, y))
    assert main(["verify", str(pair_spec)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error: ")
    assert "not coprime" in captured.err
    assert captured.out == ""


def test_parser_is_built_once_and_calls_parse_independently(pair_spec, monkeypatch):
    from irrmeasure import cli
    seen = []
    for name in ("verify", "proof-trace"):
        monkeypatch.setitem(cli._COMMANDS, name, cli._COMMANDS[name]._replace(
            run=lambda args: seen.append(args) or 0))
    spec = str(pair_spec)
    assert main(["verify", spec, "--max-index", "7", "--max-compare-depth", "5"]) == 0
    assert main(["proof-trace", spec, "--retries", "3"]) == 0
    assert main(["verify", spec]) == 0
    first, trace, again = seen
    assert (first.max_index, first.max_compare_depth) == (7, 5)
    assert (again.max_index, again.max_compare_depth) == (25, None)
    assert trace.retries == 3 and not hasattr(trace, "max_index")
    assert not hasattr(again, "retries") and again is not first
    assert cli._build_parser() is cli._build_parser()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("[x]\nkind = periodic\npreperiod = [1]\nperiod = []\n")
    assert main(["psi", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "period" in err
    missing = tmp_path / "nope.spec"
    assert main(["psi", str(missing)]) == 2


def test_spec_that_is_not_utf8_exits_2_with_empty_stdout(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_bytes(b"t_max = 5\n[x]\nkind = \xff\n")
    assert main(["psi", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: [specfile.parse_spec] line 3, column 8: "
                            "input is not valid UTF-8\n")


@pytest.mark.parametrize("text, command, message", [
    ("t_max = 100\n", "psi", "the spec file defines no numbers"),
    ("[phi]\nkind = periodic\npreperiod = [1]\nperiod = [1]\n", "verify",
     "verify needs at least two numbers"),
])
def test_input_the_analysis_cannot_use_exits_2(tmp_path, capsys, text,
                                                command, message):
    spec = tmp_path / "short.spec"
    spec.write_text(text)
    assert main([command, str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["not-a-command", "x"])
    assert info.value.code == 2


class _ClosedPipe:
    """A stdout whose reader has gone, with no file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class _ClosedPipeWithFd(_ClosedPipe):
    def __init__(self, fd):
        self.fd = fd

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_in_silence(pair_spec, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["convergents", str(pair_spec)]) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_with_a_descriptor_is_pointed_at_the_null_device(
        pair_spec, tmp_path, monkeypatch, capsys):
    # what stdout still buffers then goes nowhere at the interpreter's
    # final flush, instead of failing on the closed pipe again
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipeWithFd(fd))
        assert main(["convergents", str(pair_spec)]) == 141
        os.write(fd, b"still buffered")
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_the_pipe_after_one_line_exits_141(unbuffered):
    # the report (97 KB) outgrows the pipe buffer, so the writer is still
    # writing when the reader closes; an unbuffered text stdout would drop
    # the rest of a partial write and exit 0, so main buffers it
    env = dict(os.environ, PYTHONPATH=str(Path(irrmeasure.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "irrmeasure", "proof-trace",
         str(DATA / "replay_wide8.spec")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0)
    first = proc.stdout.readline()      # unbuffered: reads this line only
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"t_max\t") and err == b""


@pytest.mark.parametrize("command, flag, value", [
    ("psi", "--depth-cap", "0"),
    ("trace", "--max-compare-depth", "0"),
    ("trace", "--burn-in", "0"),
    ("trace", "--burn-in", "-5"),
    ("verify", "--max-index", "-1"),
    ("verify", "--max-d", "0"),
    ("verify", "--scan-depth", "1"),
    ("convergents", "--count", "0"),
    ("psi", "--t-max", "1e3"),
])
def test_bad_flag_value_exits_2_before_any_output(command, flag, value,
                                                  pair_spec, capsys):
    # a bad value must neither fall back to a default, nor pass vacuously,
    # nor look like an analysis failure, nor print a partial report
    with pytest.raises(SystemExit) as info:
        main([command, str(pair_spec), flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err


#: subcommand -> the flags it takes, besides --help
FLAGS = {
    "convergents": ["--depth-cap", "--approx", "--count"],
    "psi": ["--t-max", "--depth-cap", "--approx"],
    "trace": ["--t-max", "--burn-in", "--depth-cap", "--max-compare-depth"],
    "kindex": ["--t-max", "--burn-in", "--depth-cap", "--max-compare-depth"],
    "verify": ["--depth-cap", "--max-compare-depth", "--scan-depth", "--max-index",
               "--max-d"],
    "proof-trace": ["--t-max", "--burn-in", "--depth-cap", "--max-compare-depth",
                    "--retries"],
    "plot": ["--t-max", "--depth-cap", "--out-dir"],
}

#: flag -> a valid value for it, one that changes what a run on PAIR does
VALUES = {"--t-max": ["200"], "--burn-in": ["150"], "--depth-cap": ["5"],
          "--max-compare-depth": ["1"], "--approx": [], "--out-dir": ["plots"],
          "--count": ["4"], "--scan-depth": ["2"], "--max-index": ["10"],
          "--max-d": ["2"], "--retries": ["0"]}

#: flags with these values make the run fail (exit 1), the others change
#: its output
FAILING = {"--depth-cap", "--max-compare-depth", "--retries"}

#: two finite members that agree on their first 41 coefficients. At a
#: comparison budget of 1 the rigidity signs on their shared rows stay
#: open, and a finite member has no exact value to settle them
SHARED_PREFIX = "".join(
    f"[{name}]\nkind = finite\ncoefficients = [0, "
    f"{', '.join(['1'] * 40 + [digit] * 60)}]\n\n"
    for name, digit in (("a", "2"), ("b", "3")))

#: (command, flag) -> (spec, flags of both runs) where a run on PAIR with
#: no other flag does not show the flag's effect
SETUP = {
    ("proof-trace", "--retries"): (PAIR, ["--t-max", "101"]),
    ("verify", "--max-compare-depth"): (SHARED_PREFIX, ["--max-index", "10",
                                                        "--scan-depth", "20"]),
}

KEPT = [(command, flag) for command, flags in FLAGS.items() for flag in flags]

#: flags that several subcommands take; each other subcommand rejects them
SHARED = ["--t-max", "--burn-in", "--depth-cap", "--max-compare-depth", "--approx",
          "--out-dir"]
REJECTED = [(command, flag) for command, flags in FLAGS.items()
            for flag in SHARED if flag not in flags]


@pytest.mark.parametrize("command", list(FLAGS))
def test_help_lists_exactly_the_flags_a_subcommand_takes(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *FLAGS[command]}


def _run_in(workdir, argv, monkeypatch, capsys):
    """main(argv) run in a new working directory: its exit status, stdout
    and the files it wrote there (plot writes there without --out-dir)."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(argv)
    files = {path.relative_to(workdir): path.read_bytes()
             for path in workdir.rglob("*") if path.is_file()}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command, flag", KEPT)
def test_every_flag_a_subcommand_takes_changes_its_run(command, flag, tmp_path,
                                                       monkeypatch, capsys):
    text, flags = SETUP.get((command, flag), (PAIR, []))
    spec = tmp_path / "run.spec"
    spec.write_text(text)
    argv = [command, str(spec), *flags]
    code, *before = _run_in(tmp_path / "without", argv, monkeypatch, capsys)
    assert code == 0
    code, *after = _run_in(tmp_path / "with", [*argv, flag, *VALUES[flag]],
                           monkeypatch, capsys)
    if flag in FAILING:
        assert code == 1
    else:
        assert code == 0 and after != before


@pytest.mark.parametrize("command, flag", REJECTED)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(
        command, flag, pair_spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, str(pair_spec), flag, *VALUES[flag]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join([flag, *VALUES[flag]])}" in captured.err
    assert list(tmp_path.iterdir()) == [pair_spec]


def test_depth_cap_flag_reaches_the_streams(pair_spec, capsys):
    # psi up to 300 reads phi past index 3, so a cap of 3 must stop it
    assert main(["psi", str(pair_spec), "--depth-cap", "3"]) == 1
    assert "exceeds the depth cap 3" in capsys.readouterr().err


def test_reports_are_byte_deterministic(pair_spec, tmp_path, capsys):
    assert main(["trace", str(pair_spec)]) == 0
    first = capsys.readouterr().out
    assert main(["trace", str(pair_spec)]) == 0
    assert capsys.readouterr().out == first
    d1, d2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["plot", str(pair_spec), "--out-dir", str(d1)]) == 0
    assert main(["plot", str(pair_spec), "--out-dir", str(d2)]) == 0
    capsys.readouterr()
    assert (d1 / "phi.svg").read_bytes() == (d2 / "phi.svg").read_bytes()


#: 30030 * 999999999989, square-free: sqrt of it has a period far too long
#: to build, and certifying it square-free trial-divides up to 10^6
HOSTILE = ("t_max = 1000000\n\n[h]\nkind = surd\nrational = 0\n"
           "root = 1\nradicand = 30029999999669670\n")


@pytest.fixture
def hostile_spec(tmp_path):
    path = tmp_path / "hostile.spec"
    path.write_text(HOSTILE)
    return path


def test_psi_on_a_huge_period_reads_only_what_it_prints(hostile_spec, capsys):
    # psi up to 10^6 needs only the first quotients
    assert main(["psi", str(hostile_spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[0] == "# h"
    qs = [int(line.split("\t")[0]) for line in lines[1:]]
    assert qs == sorted(qs) and qs[-1] <= 10 ** 6


def test_psi_certifies_a_surd_entry_once(hostile_spec, monkeypatch, capsys):
    surd_module = importlib.import_module("irrmeasure.surd")
    original = surd_module.squarefree_decompose
    calls = []

    def counting(n, *args):
        calls.append(n)
        return original(n, *args)

    monkeypatch.setattr(surd_module, "squarefree_decompose", counting)
    assert main(["psi", str(hostile_spec)]) == 0
    assert calls == [30029999999669670]


# ------------------------------------------------ the paused collector

@pytest.mark.parametrize("spec", sorted(p.name for p in DATA.glob("*.spec")))
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_run_leaves_no_reference_cycles(command, spec, tmp_path):
    # main pauses the cyclic collector, which is sound only while
    # reference counting frees all that a run makes. The first run fills
    # the process's caches; a second one under a paused collector must
    # leave nothing for a collection to find
    argv = [command, str(DATA / spec)]
    if command == "plot":
        argv += ["--out-dir", str(tmp_path)]
    code = main(argv)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _run_exiting_with(code, spec, tmp_path, monkeypatch) -> list[str]:
    """The arguments of a run that exits with `code`, after injecting the
    fault it needs."""
    if code == 1:
        return ["proof-trace", spec, "--t-max", "101", "--retries", "0"]
    if code == 2:
        bad = tmp_path / "bad.spec"
        bad.write_text("[x]\nkind = periodic\npreperiod = [1]\nperiod = []\n")
        return ["psi", str(bad)]
    if code == 3:
        monkeypatch.setattr(importlib.import_module("irrmeasure.sweep"),
                            "first_misordered", lambda *args: 0)
        return ["trace", spec]
    if code == 141:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    return ["convergents", spec]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("code", [0, 1, 2, 3, 141])
def test_main_pauses_the_collector_and_puts_back_the_callers_state(
        code, enabled, pair_spec, tmp_path, monkeypatch):
    argv = _run_exiting_with(code, str(pair_spec), tmp_path, monkeypatch)
    # the handler runs with the collector off: parse_spec records it
    paused = []
    parse = cli.parse_spec
    monkeypatch.setattr(cli, "parse_spec", lambda *args, **kwargs:
                        paused.append(not gc.isenabled()) or parse(*args, **kwargs))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True]

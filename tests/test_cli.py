"""End-to-end command-line behavior, including the exit-code contract:
0 success, 1 analysis failure, 2 usage or spec-file problems, 3 internal
error (a failed self-check of the program)."""

import hashlib
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from irrmeasure import ErrorTerm, Ordering, TrajectoryReport
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


def test_window_too_short_exits_1(pair_spec, capsys):
    assert main(["proof-trace", str(pair_spec), "--t-max", "101",
                 "--retries", "0"]) == 1
    assert "ordering" in capsys.readouterr().err


def test_internal_invariant_failure_exits_3(pair_spec, monkeypatch, capsys):
    # the sweep certifies every adjacency of each new ordering again; a
    # certificate that contradicts the insertion is a bug, not a result
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
    # an event re-certifies only the adjacencies it created; a jumper put
    # in the wrong slot sits in one of them, so the check still fires
    spec = str(DATA / "replay_wide8.spec")
    assert main(["trace", spec]) == 0
    records = capsys.readouterr().out.split("\n\n")[0].splitlines()
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
    at = next(r for r, line in enumerate(records) if line.split("\t")[0] == time)
    if scope == "every call":
        assert at == 0    # sigma(t0) is wrong, and the first event checks it all
    else:
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

    def counted_init(term, *args):
        counts["init"] += 1
        init(term, *args)

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
    # work a replay does has to change these numbers on purpose
    assert _certified_work("proof-trace", monkeypatch, capsys) == {
        "compare": 714, "refine": 1144, "init": 942}


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
        monkeypatch.setitem(cli._HANDLERS, name, lambda args: seen.append(args) or 0)
    spec = str(pair_spec)
    assert main(["verify", spec, "--max-index", "7", "--approx", "--t-max", "50"]) == 0
    assert main(["proof-trace", spec, "--retries", "3"]) == 0
    assert main(["verify", spec]) == 0
    first, trace, again = seen
    assert (first.max_index, first.approx, first.t_max) == (7, True, 50)
    assert (again.max_index, again.approx, again.t_max) == (25, False, None)
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


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["not-a-command", "x"])
    assert info.value.code == 2


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

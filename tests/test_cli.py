"""End-to-end command-line behavior, including the exit-code contract:
0 success, 1 analysis failure, 2 usage or spec-file problems, 3 internal
error (a failed self-check of the program)."""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

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
    "proof-trace": ("proof-trace", "replay_wide8", []),
    "psi": ("psi", "replay_wide8", []),
    "psi-approx": ("psi", "replay_wide8", ["--approx"]),
    "trace": ("trace", "replay_wide8", []),
    "verify": ("verify", "verify_pairs3", ["--max-index", "50", "--max-d", "4",
                                           "--scan-depth", "60"]),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_output_digests(case, capsys):
    command, stem, flags = GOLDEN[case]
    expected = json.loads((DATA / f"{stem}.sha256.json").read_text())
    assert main([command, str(DATA / f"{stem}.spec"), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected[case]


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

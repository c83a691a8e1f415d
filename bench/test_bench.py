"""Self-tests of the benchmark, at tiny sizes: python3 -m pytest bench"""

import gzip
import json
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from irrmeasure.cf import ContinuedFraction  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
W = workloads.WORKLOADS
TINY = {
    "replay_wide": replace(W["replay_wide"], make_spec=partial(
        workloads.replay_wide_spec, n=3, t_max=10 ** 10)),
    "verify_pairs": replace(W["verify_pairs"], argv=(
        "verify", "--max-index", "6", "--max-d", "2", "--scan-depth", "60")),
}


def _run(name, tmp_path, trace, digests=()):
    return run.run_benchmark(TINY[name], seed=7, seconds=0.01, trace=trace,
                             import_s=0.0, digests=list(digests),
                             workdir=tmp_path / "work",
                             span_path=tmp_path / "spans.tsv.gz")


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(W)
    layers = json.loads((BENCH / "layers.json").read_text())["per_layer"]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == [*tracing.PER_LAYER, *tracing.DERIVED]
    assert set(layers) == set(per_layer)
    names = {m["name"] for m in SPEC["end_to_end"]}
    for mapping in layers.values():
        assert set(mapping["moves"]) <= names
        assert set(mapping["on"]) | set(mapping["no_change_on"]) <= set(W)


@pytest.mark.parametrize("name", list(W))
def test_generator_is_deterministic_per_seed(name):
    first, rejected = workloads.generate(W[name], 11, 2)
    again, rejected_again = workloads.generate(W[name], 11, 2)
    other, _ = workloads.generate(W[name], 12, 2)
    assert first == again and rejected == rejected_again
    assert first != other


def test_members_in_one_quadratic_field_are_rejected():
    # both lie in Q(sqrt(42)) and pass the coincidence screening, but an
    # exact tie between their error terms leaves the ordering undecided
    cfs = [ContinuedFraction.periodic([2], [3, 8]), ContinuedFraction.periodic([2], [4, 6])]
    rejected = Counter()
    assert not workloads._screened(cfs, 40, rejected)
    assert rejected == {"same_field": 1}


def test_checks_reject_wrong_output():
    scan = "rigidity_scan\tchecked\t4\tconfirmed\t0\tviolations\t{}\n"
    assert workloads.check_verify(scan.format(0), pairs=1) is None
    assert workloads.check_verify(scan.format(1), pairs=1) is not None
    assert workloads.check_verify(scan.format(0), pairs=3) is not None
    assert workloads.check_proof_trace("coverage\tok\ncount_bound\tn=3\tFAIL\n") is not None


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_prints_every_end_to_end_metric(name, tmp_path, capsys):
    result = _run(name, tmp_path, trace=False)
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"{metric['name']}\t") and
                   line.split("\t")[2].startswith(metric["unit"]) for line in printed)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("error_rate\t") for line in printed)


def test_digest_mismatch_fails_the_run(tmp_path):
    result = _run("verify_pairs", tmp_path, trace=False, digests=["0" * 64])
    assert not result["correct"] and result["failed"] >= 1


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "replay_wide", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = _run(name, tmp_path, trace=True)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main_s"]["value"] > 0
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as fh:
        assert fh.readline() == "id\tparent\titem\tname\tstart\tend\n"
        assert len(fh.readlines()) >= result["attempted"] // 2


def test_probes_are_removed_after_a_traced_run(tmp_path):
    cli, sweep = sys.modules["irrmeasure.cli"], sys.modules["irrmeasure.sweep"]
    before = (cli.sweep, sweep.compare_errors, sweep.TupleContext.__init__)
    _run("replay_wide", tmp_path, trace=True)
    assert (cli.sweep, sweep.compare_errors, sweep.TupleContext.__init__) == before


def test_import_seconds_times_fresh_interpreters():
    assert 0 < run.import_seconds() < 30


def test_reference_task_is_fixed_work():
    import hostspeed
    assert hostspeed.reference_task() == hostspeed.reference_task() == 33839
    assert 0 < hostspeed.time_reference() < 30
    assert hostspeed.at_reference_speed(3.0, 2 * hostspeed.REFERENCE_S,
                                        4 * hostspeed.REFERENCE_S) == 1.0
    assert len(hostspeed.scaled_times(lambda: 1.0, 3)) == 3

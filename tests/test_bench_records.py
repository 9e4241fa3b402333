"""The committed benchmark records, `BENCH_*.json`, against the record's
schema in `tools/bench_record.py`: provenance fields, workload names, metric
names and units from `BENCHMARK.json`, and stage names from `STAGES`.  No
number is checked and no benchmark runs; the stage wrappers are exercised on
one small mixture in process, and `--append` on hand-made paired records."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))  # the stage timer records with spans.Recorder
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_schema(path):
    bench_record.check_record(json.loads(path.read_text(encoding="utf-8")), BENCH)


# One run's stdout as `perfbench/run.py` prints it, bar the numbers.
OUTPUT = """detail cost-memo-cold wall_s 0.2 s
detail cost-memo-cold repetitions 3 untraced, 0 traced; recorded digests compared
provenance {"cores": 2, "python": "3.11.7", "numpy": "2.4.6", "git_sha": null, "src_sha256": "0", "machine": "m"}
{"correct": true, "attempted": 3, "failed": 0, "metrics": {"norm_wall_s": {"value": 0.2, "unit": "s"}, "setup_s": {"value": 0.1, "unit": "s"}, "peak_rss_mb": {"value": 37.0, "unit": "MB"}}}
"""


def parsed_run():
    out = bench_record.parse_output(OUTPUT, "cost-memo-cold")
    result = out["result"]
    run = {"workload": "cost-memo-cold", "seed": 1, "trace": 0, "details": out["details"],
           **{key: result[key] for key in ("correct", "attempted", "failed", "metrics")}}
    return run, out["provenance"]


def paired_record(stages=None):
    """A paired record of one pair whose sides ran the same parsed output."""
    run, provenance = parsed_run()
    pairs = [{"workload": "cost-memo-cold", "seed": 1, "first": "parent", "parent": run,
              "change": copy.deepcopy(run)}]
    rec = {"kind": "paired", "seconds": 10.0, "seeds": [1], "parent": "0" * 40,
           "change_uncommitted": [],
           "provenance": {"parent": provenance, "change": copy.deepcopy(provenance)},
           "pairs": pairs, "summary": bench_record.summarize(pairs, BENCH)}
    if stages is not None:
        rec["stages"] = {side: copy.deepcopy(stages) for side in bench_record.SIDES}
    return rec


def test_a_paired_record_from_parsed_output_matches_the_schema():
    rec = paired_record()
    bench_record.check_record(rec, BENCH)
    assert rec["summary"]["cost-memo-cold"]["norm_wall_s"]["wins"]["ties"] == 1


def test_append_sums_the_pairs_of_records_of_the_same_trees():
    block, _ = mixture_stages()
    old, new = paired_record(block), paired_record(block)
    new["pairs"][0]["change"]["metrics"]["norm_wall_s"]["value"] = 0.1
    rec = bench_record.append(old, new, BENCH)
    bench_record.check_record(rec, BENCH)
    summary = rec["summary"]["cost-memo-cold"]["norm_wall_s"]
    assert len(rec["pairs"]) == summary["pairs"] == 2
    assert summary["wins"] == {"parent": 0, "change": 1, "ties": 1}


@pytest.mark.parametrize("differ", [
    lambda rec: rec["provenance"]["change"].update(git_sha="1" * 40),
    lambda rec: rec["provenance"]["change"].update(src_sha256="1"),
    lambda rec: rec["provenance"]["parent"].update(numpy="2.0.0"),
    lambda rec: rec["change_uncommitted"].append("src/acceldse/quant.py"),
    lambda rec: rec.update(parent="1" * 40),
    lambda rec: rec.update(seconds=5.0),
], ids=["change-commit", "change-source", "parent-numpy", "uncommitted", "parent", "seconds"])
def test_append_refuses_a_record_of_other_trees(differ):
    old, new = paired_record(), paired_record()
    differ(old)
    with pytest.raises(ValueError, match="--append"):
        bench_record.append(old, new, BENCH)


@pytest.mark.parametrize("corrupt", [
    lambda rec: rec["runs"][0]["metrics"]["norm_wall_s"].update(unit="ms"),
    lambda rec: rec["runs"][0]["metrics"].pop("setup_s"),
    lambda rec: rec["runs"][0].update(workload="cost-memo-hot"),
    lambda rec: rec["provenance"].pop("src_sha256"),
    lambda rec: rec["runs"].clear(),
], ids=["unit", "missing-metric", "workload", "provenance", "no-run"])
def test_schema_refuses_names_and_units_outside_the_benchmark(corrupt):
    run, provenance = parsed_run()
    rec = {"kind": "record", "provenance": provenance, "runs": [run]}
    bench_record.check_record(rec, BENCH)
    corrupt(rec)
    with pytest.raises(ValueError):
        bench_record.check_record(rec, BENCH)


def mixture_stages(repetitions=2):
    """The `stages` entry of one small mixture, timed in process."""
    from acceldse import quant

    values = np.linspace(-1.0, 3.0, 64)
    functions, absent = bench_record.stage_functions()
    entry = bench_record.time_stages(lambda: quant.mix_precision(values, [0.2, 0.3, 0.5]),
                                     functions, repetitions)
    block = {"provenance": parsed_run()[1], "absent": absent,
             "workloads": {"quant-k100": {"seed": 1, **entry}}}
    return block, functions


def test_stages_count_each_wrapped_call_and_restore_the_functions():
    """The mixture calls `quantize` once per width through its module
    attribute, so the wrapper sees all three calls; afterwards every module
    attribute holds its own function again."""
    from acceldse import quant

    block, functions = mixture_stages()
    entry = block["workloads"]["quant-k100"]
    assert block["absent"] == []
    assert {name: s["calls"] for name, s in entry["stages"].items()} == {
        "quant.quantize": 3, "quant.mix_precision": 1}
    assert set(entry["wall_s"]) == {"unwrapped", "wrapped", "overhead_ratio"}
    assert quant.quantize is functions["quant.quantize"]
    assert quant.mix_precision is functions["quant.mix_precision"]
    bench_record.check_record({"kind": "stages", "stages": block}, BENCH)
    bench_record.check_record(paired_record(block), BENCH)


def test_a_paired_record_refuses_stages_of_another_tree():
    block, _ = mixture_stages()
    rec = paired_record(block)
    rec["stages"]["change"]["provenance"]["src_sha256"] = "1"
    with pytest.raises(ValueError, match="provenance differs"):
        bench_record.check_record(rec, BENCH)


def test_a_stage_the_code_lacks_is_recorded_absent(monkeypatch):
    from acceldse import quant

    monkeypatch.delattr(quant, "gumbel_softmax")
    functions, absent = bench_record.stage_functions()
    assert absent == ["quant.gumbel_softmax"] and "quant.gumbel_softmax" not in functions


def test_stage_calls_must_repeat_across_repetitions():
    from acceldse import quant

    functions, _ = bench_record.stage_functions()
    runs = []

    def growing():
        runs.append(None)
        for _ in runs:
            quant.quantize(np.arange(4.0), 2)

    with pytest.raises(RuntimeError, match="stage calls differ between repetitions"):
        bench_record.time_stages(growing, functions, 2)


@pytest.mark.parametrize("corrupt", [
    lambda b: b["workloads"]["quant-k100"]["stages"].update({"quant.requantize": {
        "calls": 1, "self_s": 0.0}}),
    lambda b: b["workloads"]["quant-k100"]["stages"]["quant.quantize"].update(calls=0),
    lambda b: b["absent"].append("quant.quantize"),
    lambda b: b["absent"].append("quant.requantize"),
    lambda b: b["workloads"].update({"quant-k50": b["workloads"]["quant-k100"]}),
    lambda b: b["workloads"]["quant-k100"]["wall_s"].pop("overhead_ratio"),
    lambda b: b.pop("provenance"),
    lambda b: b["provenance"].pop("git_sha"),
], ids=["unknown-stage", "no-calls", "present-and-absent", "unknown-absent", "workload",
        "overhead", "provenance", "provenance-sha"])
def test_stage_schema_refuses_names_outside_the_stages(corrupt):
    block, _ = mixture_stages()
    corrupt(block)
    with pytest.raises(ValueError):
        bench_record.check_record({"kind": "stages", "stages": block}, BENCH)

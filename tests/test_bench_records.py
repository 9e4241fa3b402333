"""The committed benchmark records, `BENCH_*.json`, against the record's
schema in `tools/bench_record.py`: provenance fields, and workload names,
metric names and units from `BENCHMARK.json`.  No number is checked and no
benchmark runs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
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


def test_a_paired_record_from_parsed_output_matches_the_schema():
    run, provenance = parsed_run()
    pairs = [{"workload": "cost-memo-cold", "seed": 1, "first": "parent", "parent": run,
              "change": copy.deepcopy(run)}]
    rec = {"kind": "paired", "provenance": {"parent": provenance, "change": provenance},
           "pairs": pairs, "summary": bench_record.summarize(pairs, BENCH)}
    bench_record.check_record(rec, BENCH)
    assert rec["summary"]["cost-memo-cold"]["norm_wall_s"]["wins"]["ties"] == 1


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

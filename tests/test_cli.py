import errno
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acceldse import CostBreakdown, Dataflow, cli, costmodel, exhaustive_search, hwsearch, joint
from acceldse.cli import CostCache, main
from acceldse.costmodel import TILE_SIZES, CostWeights, TilingPlan, subnet_total
from acceldse.documents import write_json
from acceldse.hwsearch import ENGINE_TABLE, ENGINES, SearchBudget
from conftest import (
    allocation_peak,
    make_reduced_space_24,
    make_small_subnet,
    make_synthetic_subnet_22,
    plain,
)

REF_WORKLOAD = {"operators": [{
    "kernel": 5, "stride": 1, "out_rows": 7, "in_channels": 552,
    "out_channels": 552, "act_bits": 8, "wgt_bits": 8}]}
REF_ACCEL = {
    "pe_x": 16, "pe_y": 16, "act_cache_kb": 384, "wgt_cache_kb": 384,
    "out_cache_kb": 384, "dataflow": "WS", "loop_order": "BIHWO"}
BEST_TILING = {"t_oc": 16, "t_ic": 16, "t_ow": 1, "t_oh": 1}
CASE0_TILING = {"t_oc": 512, "t_ic": 2, "t_ow": 4, "t_oh": 4}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, payload in [
        ("workload.json", REF_WORKLOAD),
        ("accel.json", REF_ACCEL),
        ("best.json", BEST_TILING),
        ("case0.json", CASE0_TILING),
    ]:
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def small_docs(tmp_path):
    subnet = make_small_subnet()
    workload = {"operators": [
        {"kernel": op.kernel, "stride": op.stride, "out_rows": op.out_rows,
         "in_channels": op.in_channels, "out_channels": op.out_channels,
         "act_bits": op.act_bits, "wgt_bits": op.wgt_bits}
        for op in subnet]}
    space = {
        "pe_x": [8, 16], "pe_y": [8, 16], "act_cache_kb": [64],
        "wgt_cache_kb": [64], "out_cache_kb": [64],
        "dataflow": ["WS", "OS", "RS"], "loop_order": ["BIOHW", "BOHWI"]}
    wpath = tmp_path / "small_workload.json"
    spath = tmp_path / "space.json"
    wpath.write_text(json.dumps(workload))
    spath.write_text(json.dumps(space))
    return str(wpath), str(spath)


def test_cost_tiling_ordering(docs, tmp_path):
    out_best = tmp_path / "best_report.json"
    out_case0 = tmp_path / "case0_report.json"
    assert main(["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
                 "--tiling", docs["best.json"], "--out", str(out_best)]) == 0
    assert main(["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
                 "--tiling", docs["case0.json"], "--out", str(out_case0)]) == 0
    best = json.loads(out_best.read_text())
    case0 = json.loads(out_case0.read_text())
    assert best["aggregate"]["cost"]["latency_ms"] < case0["aggregate"]["cost"]["latency_ms"]
    assert set(best["per_operator"][0]["cost"]) == {
        "energy_mj", "latency_ms", "cycles", "dram_bytes", "area_mm2"}
    assert "hw_cost" in best["aggregate"] and "edap" in best["aggregate"]


def test_cost_missing_file_exit_2(docs, capsys):
    assert main(["cost", "--workload", "/nonexistent.json", "--accel", docs["accel.json"]]) == 2
    assert "error" in capsys.readouterr().err


def test_cost_infeasible_tiling_exit_3(docs, tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"t_oc": 1024, "t_ic": 1024, "t_ow": 8, "t_oh": 8}))
    small = tmp_path / "small_accel.json"
    small.write_text(json.dumps(dict(REF_ACCEL, act_cache_kb=64, wgt_cache_kb=64,
                                     out_cache_kb=64)))
    code = main(["cost", "--workload", docs["workload.json"], "--accel", str(small),
                 "--tiling", str(huge)])
    assert code == 3
    assert "operator 0" in capsys.readouterr().err


def test_search_tile_schema_and_determinism(docs, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["search", "tile", "--workload", docs["workload.json"],
                 "--accel", docs["accel.json"], "--out", str(out1), "--threads", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "per_op_wall_time_s" in summary and "total_wall_time_s" in summary
    assert len(summary["per_op_wall_time_s"]) == 1
    assert main(["search", "tile", "--workload", docs["workload.json"],
                 "--accel", docs["accel.json"], "--out", str(out2), "--threads", "8"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "op_index,t_oc,t_ic,t_ow,t_oh,energy_mj,latency_ms,dram_bytes"


@pytest.mark.parametrize("weights", [("1", "0", "0"), ("0", "1", "0")])
def test_search_tile_honours_cost_weights(docs, tmp_path, capsys, weights):
    """`search tile` picks each operator's tiling under the weights it is
    given, as `cost` does; these weightings move tilings off the defaults'."""
    wpath, _ = small_docs(tmp_path)
    base = ["--workload", wpath, "--accel", docs["accel.json"]]
    flags = ["--lambda-e", weights[0], "--lambda-l", weights[1], "--lambda-a", weights[2]]

    def tile_rows(extra):
        out = tmp_path / "tilings.csv"
        assert main(["search", "tile", *base, "--out", str(out), *extra]) == 0
        capsys.readouterr()
        return [tuple(map(int, line.split(",")[1:5]))
                for line in out.read_text().splitlines()[1:]]

    out = tmp_path / "cost.json"
    assert main(["cost", *base, "--out", str(out), *flags]) == 0
    report = json.loads(out.read_text())
    cost_rows = [tuple(op["tiling"][k] for k in ("t_oc", "t_ic", "t_ow", "t_oh"))
                 for op in report["per_operator"]]
    weighted = tile_rows(flags)
    assert weighted == cost_rows
    assert weighted != tile_rows([])


def test_search_accel_exhaustive_matches_library(tmp_path):
    wpath, spath = small_docs(tmp_path)
    out = tmp_path / "accel_report.json"
    assert main(["search", "accel", "--workload", wpath, "--space", spath,
                 "--engine", "exhaustive", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    oracle = exhaustive_search(make_small_subnet(), make_reduced_space_24())
    assert report["config"]["dataflow"] == oracle.config.dataflow.value
    assert report["config"]["pe_x"] == oracle.config.pe_x
    assert report["hw_cost"] == oracle.cost


def test_search_accel_seed_reproducible(tmp_path):
    wpath, spath = small_docs(tmp_path)
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["search", "accel", "--workload", wpath, "--space", spath,
                     "--engine", "anneal", "--seed", "7", "--max-evaluations", "60",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data.pop("wall_time_s")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]
    t1 = (tmp_path / "r1.trace.csv").read_bytes()
    t2 = (tmp_path / "r2.trace.csv").read_bytes()
    assert t1 == t2


def test_search_accel_generator_trace(tmp_path):
    wpath, spath = small_docs(tmp_path)
    out = tmp_path / "gen.json"
    assert main(["search", "accel", "--workload", wpath, "--space", spath,
                 "--engine", "generator", "--seed", "1", "--max-evaluations", "40",
                 "--steps", "10", "--samples-per-step", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gradient_estimator"] == "score-function with EMA baseline"
    assert report["gumbel_mode"] == "standard"
    trace = (tmp_path / "gen.trace.csv").read_text().splitlines()
    assert trace[0] == "step,mean_cost,best_cost,tau,baseline"
    assert len(trace) == 11


def test_search_accel_space_guard_exit_4(docs, capsys):
    code = main(["search", "accel", "--workload", docs["workload.json"],
                 "--engine", "exhaustive"])
    assert code == 4
    assert "guard" in capsys.readouterr().err


def test_unknown_engine_usage_error(docs):
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "accel", "--workload", docs["workload.json"],
              "--engine", "bogus"])
    assert excinfo.value.code == 2


def test_search_co(tmp_path):
    _, spath = small_docs(tmp_path)
    state = {
        "layers": [{
            "alpha": [1.0],
            "candidates": [{"kernel": 3, "stride": 1, "out_rows": 8, "in_channels": 16,
                            "out_channels": 32, "act_bits": 8, "wgt_bits": 8}],
            "beta_w": [[0, 0, 1]],
            "beta_a": [[0, 0, 1]],
        }]
    }
    st = tmp_path / "state.json"
    st.write_text(json.dumps(state))
    out = tmp_path / "co.json"
    assert main(["search", "co", "--state", str(st), "--space", spath,
                 "--engine", "exhaustive", "--lambda", "0.002", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["lambda"] == 0.002
    assert report["subnet"]["operators"][0]["kernel"] == 3
    assert report["e_hw"] > 0


def test_search_co_rejects_gumbel_mode(tmp_path):
    """`--gumbel-mode` shapes only `search accel`'s generator report, so
    `search co` does not accept it."""
    _, spath = small_docs(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["search", "co", "--state", str(tmp_path / "state.json"), "--space", spath,
              "--gumbel-mode", "paper"])
    assert excinfo.value.code == 2


def test_reports_revalidate_roundtrip(tmp_path):
    """Config and tiling objects emitted in reports re-read as valid documents."""
    from acceldse import TilingPlan, load_accel

    wpath, spath = small_docs(tmp_path)
    out = tmp_path / "report.json"
    assert main(["search", "accel", "--workload", wpath, "--space", spath,
                 "--engine", "exhaustive", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    cfg = load_accel(json.dumps(report["config"]))
    assert cfg.pe_x == report["config"]["pe_x"]

    co_out = tmp_path / "co.json"
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"layers": [{
        "alpha": [1.0],
        "candidates": [{"kernel": 3, "stride": 1, "out_rows": 8, "in_channels": 16,
                        "out_channels": 32, "act_bits": 8, "wgt_bits": 8}],
        "beta_w": [[0, 0, 1]], "beta_a": [[0, 0, 1]]}]}))
    assert main(["search", "co", "--state", str(state), "--space", spath,
                 "--engine", "exhaustive", "--out", str(co_out)]) == 0
    co_report = json.loads(co_out.read_text())
    from acceldse import load_subnet

    subnet = load_subnet(json.dumps(co_report["subnet"]))
    assert len(subnet) == 1
    for t in co_report["tilings"]:
        TilingPlan(t["t_oc"], t["t_ic"], t["t_ow"], t["t_oh"])
    load_accel(json.dumps(co_report["accel_config"]))


def test_cache_hit_and_miss(docs, tmp_path, capsys):
    cache = tmp_path / "memo.jsonl"
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    args = ["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
            "--tiling", docs["best.json"], "--cache", str(cache)]
    assert main(args + ["--out", str(out1)]) == 0
    n_records = len(cache.read_text().splitlines())
    assert n_records == 1
    assert main(args + ["--out", str(out2)]) == 0
    assert len(cache.read_text().splitlines()) == 1  # hit: no new record
    assert out1.read_bytes() == out2.read_bytes()

    # a different constant changes the key: miss, new record
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"e_dram_pj_per_byte": 100.0}))
    assert main(args + ["--constants", str(constants), "--out", str(out2)]) == 0
    assert len(cache.read_text().splitlines()) == 2


def test_cache_without_tiling_records_each_operator_once(docs, tmp_path):
    """`cost --cache` without `--tiling` writes one record per operator; the
    same run again appends none, and `--tiling` fed the plans of that report
    reads every cost from the memo, appends none and writes the same report."""
    wpath, _ = small_docs(tmp_path)
    cache = tmp_path / "memo.jsonl"
    args = ["cost", "--workload", wpath, "--accel", docs["accel.json"], "--cache", str(cache)]
    reports = [tmp_path / f"report{i}.json" for i in range(3)]
    assert main(args + ["--out", str(reports[0])]) == 0
    memo = cache.read_bytes()
    assert len(memo.splitlines()) == 3
    assert main(args + ["--out", str(reports[1])]) == 0
    assert cache.read_bytes() == memo
    plans = [op["tiling"] for op in json.loads(reports[0].read_text())["per_operator"]]
    tilings = tmp_path / "tilings.json"
    tilings.write_text(json.dumps({"tilings": plans}))
    assert main(args + ["--tiling", str(tilings), "--out", str(reports[2])]) == 0
    assert cache.read_bytes() == memo
    assert reports[0].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()


def test_reports_go_to_stdout_without_out(docs, tmp_path, capsys):
    """Without `--out`, `cost` prints its report on stdout, and `search tile`
    its CSV on stdout and its summary on stderr."""
    wpath, _ = small_docs(tmp_path)
    base = ["--workload", wpath, "--accel", docs["accel.json"]]
    report = tmp_path / "report.json"
    assert main(["cost", *base, "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["cost", *base]) == 0
    assert capsys.readouterr() == (report.read_text(), "")
    csv = tmp_path / "tilings.csv"
    assert main(["search", "tile", *base, "--out", str(csv)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["search", "tile", *base]) == 0
    printed = capsys.readouterr()
    assert printed.out == csv.read_text()
    assert json.loads(printed.err).keys() == summary.keys()


def test_cache_corrupt_record_recovered(docs, tmp_path, capsys):
    cache = tmp_path / "memo.jsonl"
    out = tmp_path / "c.json"
    args = ["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
            "--tiling", docs["best.json"], "--cache", str(cache)]
    assert main(args + ["--out", str(out)]) == 0
    good = out.read_bytes()
    capsys.readouterr()
    # replace the cache with a single truncated record, a line that is not
    # UTF-8, or one with a line separator that is not a newline (U+2028): the
    # run must warn once, recompute, and still succeed with identical output
    for corrupt in (b'{"key": "deadbeef", "cost": {trunc', b"\xff\n",
                    '{"key": "a"}\u2028{"key": "b"}\n'.encode()):
        cache.write_bytes(corrupt)
        assert main(args + ["--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "corrupt cache record" in err[0] and ":1: " in err[0], err
        assert out.read_bytes() == good
        assert len(cache.read_bytes().splitlines()) == 2  # corrupt line + recomputed record


@pytest.mark.parametrize("field, value", [
    ("energy_mj", "oops"),
    ("energy_mj", True),
    ("energy_mj", 10**400),
    ("cycles", 2.5),
    ("key", 7),
])
def test_cache_wrongly_typed_record_skipped(docs, tmp_path, capsys, field, value):
    cache = tmp_path / "memo.jsonl"
    out = tmp_path / "c.json"
    args = ["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
            "--tiling", docs["best.json"]]
    assert main(args + ["--out", str(out)]) == 0
    uncached = out.read_bytes()
    assert main(args + ["--cache", str(cache), "--out", str(out)]) == 0
    record = json.loads(cache.read_text())
    (record if field == "key" else record["cost"])[field] = value
    cache.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    assert main(args + ["--cache", str(cache), "--out", str(out)]) == 0
    assert "corrupt cache record" in capsys.readouterr().err
    assert out.read_bytes() == uncached


def test_cache_put_appends_after_truncated_record(tmp_path, monkeypatch):
    path = tmp_path / "memo.jsonl"
    truncated = '{"key": "deadbeef", "cost": {trunc'
    path.write_text(truncated)
    cache = CostCache(str(path))
    cost = CostBreakdown(1.5, 0.25, 3, 64.0, 0.5)

    def no_read(*args, **kwargs):
        raise AssertionError("put must only append")

    monkeypatch.setattr(Path, "read_text", no_read)
    monkeypatch.setattr(Path, "read_bytes", no_read)
    for key in ("a", "b", "c"):
        cache.put(key, cost)
    monkeypatch.undo()
    lines = path.read_text().splitlines()
    assert lines[0] == truncated
    assert [json.loads(line)["key"] for line in lines[1:]] == ["a", "b", "c"]
    assert CostCache(str(path)).get("c") == cost


WRITER = """
import sys, time
from pathlib import Path
from acceldse import CostBreakdown
from acceldse.cli import CostCache
path, tag, go = sys.argv[1:]
cache = CostCache(path)
while not Path(go).exists():
    time.sleep(0.001)
for i in range(200):
    cache.put(f"{tag}-{i}", CostBreakdown(i + 0.5, 0.25, i, 64.0, 0.5))
cache.close()
"""


def test_cache_two_concurrent_writers(tmp_path, capsys):
    """Two processes appending to one memo at once leave every record whole."""
    path, go = tmp_path / "memo.jsonl", tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    writers = [subprocess.Popen([sys.executable, "-c", WRITER, str(path), tag, str(go)], env=env)
               for tag in ("a", "b")]
    go.touch()
    assert [w.wait(timeout=60) for w in writers] == [0, 0]
    lines = path.read_text().splitlines()
    assert len(lines) == 400
    memo = CostCache(str(path))
    assert "corrupt" not in capsys.readouterr().err
    assert memo.get("a-199") == CostBreakdown(199.5, 0.25, 199, 64.0, 0.5)
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(
        f"{tag}-{i}" for tag in "ab" for i in range(200))


@pytest.mark.parametrize("memo", ["missing-dir/memo.jsonl", "."])
def test_cache_unusable_path_exit_2(docs, tmp_path, capsys, memo):
    """A memo path that cannot be read or written ends in exit 2, not a traceback."""
    assert main(["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
                 "--tiling", docs["best.json"], "--cache", str(tmp_path / memo)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["cost", "search tile", "search accel", "search co",
                                     "search accel trace"])
def test_unwritable_out_exit_2(tmp_path, capsys, monkeypatch, command):
    """An output that cannot be written (report, CSV or trace CSV) ends in
    exit 2 and one error line, not a traceback, before any search runs and
    without creating a file."""
    def ran(*args, **kwargs):
        raise AssertionError("a search ran before its output path was checked")

    for module, name in [(cli, "map_subnet"), (hwsearch, "map_subnet"), (joint, "map_subnet"),
                         (hwsearch, "anneal_search"), (hwsearch, "train_generator"),
                         (hwsearch, "exhaustive_search")]:
        monkeypatch.setattr(module, name, ran)
    paths = {}
    for name, doc in VALID_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = {
        "cost": ["cost", "--workload", paths["workload"], "--accel", paths["accel"]],
        "search tile": ["search", "tile", "--workload", paths["workload"],
                        "--accel", paths["accel"]],
        "search accel": ["search", "accel", "--workload", paths["workload"],
                         "--space", paths["space"], "--engine", "exhaustive"],
        "search co": ["search", "co", "--state", paths["supernet"], "--space", paths["space"],
                      "--engine", "exhaustive"],
        "search accel trace": ["search", "accel", "--workload", paths["workload"],
                               "--space", paths["space"], "--engine", "anneal",
                               "--max-evaluations", "2"],
    }[command]
    out = tmp_path / "missing-dir" / "out.json"
    unwritable = out
    if command == "search accel trace":  # the report is written, its trace CSV is not
        out = tmp_path / "out.json"
        unwritable = tmp_path / "out.trace.csv"
        unwritable.mkdir()
    assert main([*map(str, argv), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {unwritable}: "), err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["cost", "search accel", "search co"])
def test_report_write_failing_partway_exit_2(tmp_path, capsys, command):
    """A report whose writes fail after the file opened (``/dev/full``
    refuses every byte with ENOSPC) ends in exit 2 and one error line, not
    a traceback.  The `cost` report spans several of the writer's pieces."""
    paths = {}
    for name, doc in VALID_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    n_ops = 400
    paths["workload"].write_text(json.dumps({"operators": REF_WORKLOAD["operators"] * n_ops}))
    paths["tiling"].write_text(json.dumps({"tilings": [BEST_TILING] * n_ops}))
    argv = {
        "cost": ["cost", "--workload", paths["workload"], "--accel", paths["accel"],
                 "--tiling", paths["tiling"]],
        "search accel": ["search", "accel", "--workload", paths["workload"],
                         "--space", paths["space"], "--engine", "exhaustive"],
        "search co": ["search", "co", "--state", paths["supernet"], "--space", paths["space"],
                      "--engine", "exhaustive"],
    }[command]
    assert main([*map(str, argv), "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write /dev/full: "), err
    assert captured.out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["cost", "search tile", "search accel"])
def test_failing_stdout_exit_2(tmp_path, command):
    """A report or CSV sent to a stdout that refuses every byte ends in
    exit 2 and one error line: no traceback, and no second failure when the
    interpreter flushes stdout at exit.  The `cost` report fills stdout's
    buffer, so its writes fail partway."""
    paths = {}
    for name, doc in VALID_DOCS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    n_ops = 400
    paths["big"] = tmp_path / "big.json"
    paths["big"].write_text(json.dumps({"operators": REF_WORKLOAD["operators"] * n_ops}))
    paths["tiling"].write_text(json.dumps({"tilings": [BEST_TILING] * n_ops}))
    argv = {
        "cost": ["cost", "--workload", paths["big"], "--accel", paths["accel"],
                 "--tiling", paths["tiling"]],
        "search tile": ["search", "tile", "--workload", paths["workload"],
                        "--accel", paths["accel"]],
        "search accel": ["search", "accel", "--workload", paths["workload"],
                         "--space", paths["space"], "--engine", "exhaustive"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from acceldse.cli import main; sys.exit(main())",
             *map(str, argv)], stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    err = run.stderr.splitlines()
    assert run.returncode == 2, run.stderr
    assert len(err) == 1 and err[0].startswith("error: cannot write <stdout>: "), err


@pytest.mark.parametrize("failure", ["ENOSPC", "short"])
def test_cache_append_failing_exit_2(docs, tmp_path, capsys, monkeypatch, failure):
    """A memo append that fails (ENOSPC) or is cut short ends in exit 2 and
    one error line.  A short append leaves a partial record, which a later
    memo skips with one warning and never appends onto."""
    path = tmp_path / "memo.jsonl"
    real_write = os.write

    def write(fd, data):
        if failure == "ENOSPC":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:len(data) // 2])

    monkeypatch.setattr(cli.os, "write", write)
    assert main(["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
                 "--tiling", docs["best.json"], "--cache", str(path)]) == 2
    monkeypatch.undo()
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: "), err
    assert captured.out == ""
    partial = path.read_text()
    assert (partial == "") == (failure == "ENOSPC")
    memo = CostCache(str(path))
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == (failure == "short"), warnings
    cost = CostBreakdown(1.5, 0.25, 3, 64.0, 0.5)
    memo.put("a", cost)
    memo.close()
    lines = path.read_text().splitlines()
    assert lines[-1] == json.dumps({"key": "a", "cost": cost.to_dict()})
    assert lines[:-1] == ([partial] if partial else [])
    assert CostCache(str(path)).get("a") == cost


def test_cost_report_streams_in_bounded_memory(tmp_path):
    """`cost`'s report over 3,000 operators is built as it is written and
    goes to its file in pieces under 128 KiB: the tracemalloc peak of the
    build and the write stays below half the report's own length, where
    building its per-operator dicts took more than the text itself."""
    rng = random.Random(0)
    plans = [TilingPlan(*rng.choices(TILE_SIZES, k=4)) for _ in range(3000)]
    costs = [CostBreakdown(rng.random(), rng.random() * 10, rng.randrange(1, 2**32),
                           rng.random() * 1e7, 3.5) for _ in plans]
    total = subnet_total(costs, 3.5)
    out = tmp_path / "report.json"
    peak = allocation_peak(
        lambda: cli._write_report(cli._cost_report(plans, costs, total, CostWeights()), str(out)))
    text = out.read_text()
    assert text == json.dumps(plain(cli._cost_report(plans, costs, total, CostWeights())),
                              indent=2) + "\n"
    assert peak < len(text), (peak, len(text))
    assert peak < len(text) / 2, (peak, len(text))
    pieces = []
    write_json(cli._cost_report(plans, costs, total, CostWeights()), pieces.append)
    assert "".join(pieces) == text
    assert max(map(len, pieces)) < 128 * 1024, max(map(len, pieces))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value", [("out_rows", 2147483648), ("stride", 2**62)])
def test_operator_outside_range_exit_2(tmp_path, capsys, field, value):
    """Shapes whose int64 arithmetic would wrap are refused, not costed."""
    text = json.dumps(replaced(REF_WORKLOAD, ("operators", 0, field), value))
    assert run_with_document(tmp_path, "workload", text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "exact range" in err[0], err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value", [
    ("dram_bw_bytes_per_cycle", 1e-300),  # wrapped mem_cycles in its int64 cast
    ("e_dram_pj_per_byte", 1e308),  # an infinite energy in the report
    ("f_clk_mhz", 1e-320),  # an infinite latency in the report
])
def test_constants_outside_range_exit_2(tmp_path, capsys, field, value):
    """Constants outside the documented range are refused, not costed."""
    workload = tmp_path / "subnet22.json"
    workload.write_text(json.dumps(make_synthetic_subnet_22().to_dict()))
    accel = tmp_path / "accel.json"
    accel.write_text(json.dumps(REF_ACCEL))
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({field: value}))
    assert main(["cost", "--workload", str(workload), "--accel", str(accel),
                 "--constants", str(constants), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0], err


def test_area_constant_outside_range_exit_2(tmp_path, capsys):
    """An area constant above 2**64 is refused, not an infinite area in the report."""
    workload, _ = small_docs(tmp_path)
    accel = tmp_path / "accel.json"
    accel.write_text(json.dumps(REF_ACCEL))
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"area": {"per_pe_mm2": 1e308}}))
    assert main(["cost", "--workload", workload, "--accel", str(accel), "--constants",
                 str(constants), "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "per_pe_mm2" in err[0], err


@pytest.mark.parametrize("command, flag, value, field", [
    ("cost", "--lambda-e", "nan", "lambda_e"),  # "hw_cost": NaN in the report
    ("cost", "--lambda-e", "inf", "lambda_e"),  # "hw_cost": Infinity
    ("cost", "--lambda-a", "1e308", "lambda_a"),  # an infinite weighted area
    ("co", "--lambda", "nan", "lam"),  # "lambda": NaN
    ("anneal", "--initial-temperature", "nan", "initial_temperature"),  # silently greedy
    ("anneal", "--cooling-rate", "inf", "cooling_rate"),  # every step accepted
    ("generator", "--tau-decay", "inf", "tau_decay"),  # an infinite temperature
    ("generator", "--learning-rate", "-0.1", "learning_rate"),  # climbs the cost
    ("anneal", "--initial-temperature", "-1", "initial_temperature"),  # silently greedy
    ("anneal", "--cooling-rate", "-0.98", "cooling_rate"),  # the sign flips every step
    ("co", "--learning-rate", "-0.1", "learning_rate"),
    ("cost", "--threads", "-7", "threads"),
    ("anneal", "--threads", "0", "threads"),
    # numpy's seeding refused it with a message naming no field, or not at all
    ("exhaustive", "--seed", "-1", "seed"),
    ("anneal", "--seed", "-1", "seed"),
    ("generator", "--seed", "-1", "seed"),
], ids=["lambda-e-nan", "lambda-e-inf", "lambda-a-huge", "lambda-nan",
        "temperature-nan", "cooling-inf", "tau-decay-inf", "learning-rate-negative",
        "temperature-negative", "cooling-negative", "co-learning-rate-negative",
        "threads-negative", "threads-zero", "exhaustive-seed-negative",
        "anneal-seed-negative", "generator-seed-negative"])
def test_flag_outside_range_exit_2(tmp_path, capsys, command, flag, value, field):
    """A weight outside [0, 2**64], a non-finite budget number, a negative
    rate or seed, or a thread count below 1 is a usage error, never a
    number in the report, whatever the engine."""
    workload, space = small_docs(tmp_path)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(SUPERNET))
    accel = tmp_path / "accel.json"
    accel.write_text(json.dumps(REF_ACCEL))
    argv = {
        "cost": ["cost", "--workload", workload, "--accel", str(accel)],
        "co": ["search", "co", "--state", str(state), "--space", space],
        "anneal": ["search", "accel", "--workload", workload, "--space", space,
                   "--engine", "anneal", "--max-evaluations", "5"],
        "generator": ["search", "accel", "--workload", workload, "--space", space,
                      "--engine", "generator", "--steps", "2"],
        "exhaustive": ["search", "accel", "--workload", workload, "--space", space,
                       "--engine", "exhaustive"],
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} must "), err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, named", [
    ("exhaustive", ["--max-evaluations", "1"], "--max-evaluations"),
    ("exhaustive", ["--gumbel-mode", "paper"], "--gumbel-mode"),
    ("anneal", ["--steps", "100"], "--steps"),  # the default, given explicitly
    ("anneal", ["--gumbel-tau", "2"], "--gumbel-tau"),
    ("generator", ["--cooling-rate", "0.5"], "--cooling-rate"),
    ("co-exhaustive", ["--initial-temperature", "2"], "--initial-temperature"),
    ("co-anneal", ["--samples-per-step", "2"], "--samples-per-step"),
    # the head sample's temperature 1e300 * 1e300**5 overflows
    ("generator", ["--gumbel-tau", "1e300", "--tau-decay", "1e300", "--steps", "5"], "gumbel_tau"),
], ids=["exhaustive-max-evaluations", "exhaustive-gumbel-mode", "anneal-steps-default",
        "anneal-gumbel-tau", "generator-cooling-rate", "co-exhaustive-temperature",
        "co-anneal-samples", "generator-head-tau-overflow"])
def test_flag_the_engine_does_not_read_exit_2(tmp_path, capsys, command, flags, named):
    """A budget flag the engine does not read, whatever its value, and a
    head-sample temperature that overflows are usage errors, named on one
    `error:` line before any search runs."""
    workload, space = small_docs(tmp_path)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(SUPERNET))
    accel = ["search", "accel", "--workload", workload, "--space", space, "--engine"]
    co = ["search", "co", "--state", str(state), "--space", space, "--engine"]
    argv = {
        "exhaustive": [*accel, "exhaustive"],
        "anneal": [*accel, "anneal", "--max-evaluations", "5"],
        "generator": [*accel, "generator", "--steps", "2"],
        "co-exhaustive": [*co, "exhaustive"],
        "co-anneal": [*co, "anneal", "--max-evaluations", "5"],
    }[command]
    out = tmp_path / "out.json"
    assert main([*argv, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], lines
    assert not out.exists()


def test_exhaustive_accepts_seed_and_threads(tmp_path):
    """Every command takes `--seed` and `--threads`, the exhaustive search too."""
    workload, space = small_docs(tmp_path)
    out = tmp_path / "out.json"
    assert main(["search", "accel", "--workload", workload, "--space", space, "--engine",
                 "exhaustive", "--seed", "9", "--threads", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9


def test_readme_engine_table_matches_engine_table():
    """README's table of the flags each engine reads and refuses is
    `ENGINE_TABLE`'s, with `--gumbel-mode` read along with `--gumbel-tau`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text[text.index("| engine | flags it reads |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        engine, reads, refuses = (cell.strip() for cell in line.strip("|").split("|"))
        rows[engine.strip("`")] = [set(re.findall(r"`(--[a-z-]+)`", cell))
                                   for cell in (reads, refuses)]
    assert list(rows) == list(ENGINES)

    def flag(name):
        return "--" + name.replace("_", "-")

    every = {flag(name) for name in (*(f.name for f in fields(SearchBudget)), "gumbel_mode")}
    for engine, (reads, refuses) in rows.items():
        _, fields_read = ENGINE_TABLE[engine]
        expected = {flag(name) for name in fields_read}
        if "gumbel_tau" in fields_read:
            expected.add("--gumbel-mode")
        assert reads == expected, engine
        assert refuses == every - expected - {"--seed"}, engine


def test_cache_key_includes_cost_model_version(docs, tmp_path, monkeypatch):
    """A memo written under another cost-model version is never served."""
    cache = tmp_path / "memo.jsonl"
    out = tmp_path / "c.json"
    args = ["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
            "--tiling", docs["best.json"], "--cache", str(cache), "--out", str(out)]
    assert main(args) == 0
    report = out.read_bytes()
    monkeypatch.setattr(cli, "COST_MODEL_VERSION", costmodel.COST_MODEL_VERSION + 1)
    served = []
    monkeypatch.setattr(cli, "estimate_cost",
                        lambda *a: served.append(a) or costmodel.estimate_cost(*a))
    assert main(args) == 0
    assert len(served) == 1  # recomputed, not served
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(records) == 2 and records[0]["key"] != records[1]["key"]
    assert records[0]["cost"] == records[1]["cost"]
    assert out.read_bytes() == report


# Valid documents of every kind, each run by the cheapest command that reads it.
TWO_CONFIG_SPACE = {
    "pe_x": [8, 16], "pe_y": [8], "act_cache_kb": [64], "wgt_cache_kb": [64],
    "out_cache_kb": [64], "dataflow": ["WS"], "loop_order": ["BIOHW"]}
SUPERNET = {
    "bit_choices": [2, 4, 8],
    "layers": [{
        "alpha": [0.2, 0.8],
        "candidates": [None, {"kernel": 3, "stride": 1, "out_rows": 8, "in_channels": 16,
                              "out_channels": 32, "act_bits": 8, "wgt_bits": 8}],
        "beta_w": [[1, 0, 0], [0, 1, 0]],
        "beta_a": [[1, 0, 0], [0, 0, 1]],
    }],
}
VALID_DOCS = {
    "workload": REF_WORKLOAD,
    "accel": REF_ACCEL,
    "tiling": {"tilings": [BEST_TILING]},
    "constants": {"f_clk_mhz": 200.0, "e_mac_pj": 1, "area": {"fixed_mm2": 0.1}},
    "space": TWO_CONFIG_SPACE,
    "supernet": SUPERNET,
}


def run_with_document(tmp_path, kind, text):
    """Run the command that reads a document of `kind`, given as `text` (a
    str in UTF-8, or bytes as they are); the other inputs are the valid
    documents above."""
    paths = {}
    for name, doc in VALID_DOCS.items():
        path = tmp_path / f"{name}.json"
        data = text if name == kind else json.dumps(doc)
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        paths[name] = str(path)
    if kind == "space":
        argv = ["search", "accel", "--workload", paths["workload"], "--space", paths["space"],
                "--engine", "exhaustive"]
    elif kind == "supernet":
        argv = ["search", "co", "--state", paths["supernet"], "--space", paths["space"],
                "--engine", "exhaustive"]
    else:
        argv = ["cost", "--workload", paths["workload"], "--accel", paths["accel"],
                "--tiling", paths["tiling"], "--constants", paths["constants"]]
    return main([*argv, "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
def test_document_not_utf8_exit_2_naming_its_file(tmp_path, capsys, kind):
    """A document is read as UTF-8, whatever the locale; one that is not
    fails naming its file, whichever of `--workload`, `--accel`, `--tiling`,
    `--constants`, `--space` and `--state` gave it."""
    text = b"\xff" + json.dumps(VALID_DOCS[kind]).encode()
    assert run_with_document(tmp_path, kind, text) == 2
    err = capsys.readouterr().err.splitlines()
    path = tmp_path / f"{kind}.json"
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {path}: "), err


def replaced(doc, path, value):
    """A deep copy of `doc` with the value at `path` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


# Each case's error names where the bad value sits: its document or
# record, and the field.
@pytest.mark.parametrize("kind, path, value, where", [
    ("supernet", ("bit_choices",), 5, "supernet document: bit_choices"),
    ("supernet", ("layers",), 5, "supernet document: layers"),
    ("supernet", ("layers", 0, "beta_w", 1), [0, 0, 0, 1], "supernet document: each beta row"),
    ("supernet", ("bit_choices",), [2.0, 4, 8], "supernet document: bit_choices[0]"),
    ("supernet", ("bit_choices",), [2, 4, 3], "supernet document: bit_choices"),
    ("supernet", ("bit_choices",), [], "supernet document: bit_choices"),
    ("tiling", ("tilings",), 5, "tiling document: tilings"),
    ("tiling", ("tilings", 0, "t_oc"), None, "tiling 0: t_oc"),
    ("tiling", ("tilings", 0, "t_oc"), 4.7, "tiling 0: t_oc"),
    ("space", ("pe_x",), ["a"], "space document: pe_x"),
    ("space", ("pe_x",), [8.5], "space document: pe_x"),
    ("space", ("pe_x",), [8, 8], "space document: pe_x"),
    ("space", ("dataflow",), ["WS", "WS"], "space document: dataflows"),
    ("space", ("pe_x",), [2], "space document: pe_x"),
    ("space", ("loop_order",), ["BBOHW"], "space document: loop_orders"),
    ("accel", ("pe_x",), 16.7, "accelerator document: invalid accelerator config: pe_x"),
    ("accel", ("loop_order",), ["B", "I", "O", "H", "W"],
     "accelerator document: invalid accelerator config: loop_order"),
    ("constants", ("f_clk_mhz",), float("nan"), "constants document: f_clk_mhz"),
    # a shape too large for the cost model's int64 arrays
    ("workload", ("operators", 0, "kernel"), 2**40, "operator 0: operator shape"),
], ids=["bit-choices-int", "layers-int", "beta-row-length", "bit-choice-float",
        "bit-choice-off-domain", "bit-choices-empty",
        "tilings-int", "t-oc-null", "t-oc-float", "pe-x-string", "pe-x-float-candidate",
        "pe-x-repeated", "dataflow-repeated", "pe-x-off-domain", "loop-order-off-domain",
        "pe-x-float", "loop-order-list", "clock-nan", "kernel-too-large"])
def test_malformed_document_exit_2(tmp_path, capsys, kind, path, value, where):
    text = json.dumps(replaced(VALID_DOCS[kind], path, value))
    assert run_with_document(tmp_path, kind, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where}"), err


def document_paths(doc, prefix=()):
    """Every key and index path inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from document_paths(value, (*prefix, key))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_field_replacement_ends_in_documented_exit(tmp_path, capsys, data):
    kind = data.draw(st.sampled_from(sorted(VALID_DOCS)))
    path = data.draw(st.sampled_from(list(document_paths(VALID_DOCS[kind]))))
    text = json.dumps(replaced(VALID_DOCS[kind], path, data.draw(json_values)))
    assert run_with_document(tmp_path, kind, text) in (0, 2, 3, 4)
    capsys.readouterr()

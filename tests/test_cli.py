import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from acceldse import CostBreakdown, Dataflow, cli, costmodel, exhaustive_search
from acceldse.cli import CostCache, main
from acceldse.hwsearch import ENGINE_TABLE, ENGINES, SearchBudget
from conftest import make_reduced_space_24, make_small_subnet, make_synthetic_subnet_22

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


def test_cache_corrupt_record_recovered(docs, tmp_path, capsys):
    cache = tmp_path / "memo.jsonl"
    out = tmp_path / "c.json"
    args = ["cost", "--workload", docs["workload.json"], "--accel", docs["accel.json"],
            "--tiling", docs["best.json"], "--cache", str(cache)]
    assert main(args + ["--out", str(out)]) == 0
    good = out.read_bytes()
    # replace the cache with a single truncated record: the run must warn,
    # recompute, and still succeed with identical output
    cache.write_text('{"key": "deadbeef", "cost": {trunc')
    assert main(args + ["--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "corrupt cache record" in err
    assert out.read_bytes() == good
    assert len(cache.read_text().splitlines()) == 2  # corrupt line + recomputed record


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
], ids=["lambda-e-nan", "lambda-e-inf", "lambda-a-huge", "lambda-nan",
        "temperature-nan", "cooling-inf", "tau-decay-inf", "learning-rate-negative",
        "temperature-negative", "cooling-negative", "co-learning-rate-negative",
        "threads-negative", "threads-zero"])
def test_flag_outside_range_exit_2(tmp_path, capsys, command, flag, value, field):
    """A weight outside [0, 2**64], a non-finite budget number, a negative
    rate or a thread count below 1 is a usage error, never a number in the
    report."""
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
    """Run the command that reads a document of `kind`, given as `text`; the
    other inputs are the valid documents above."""
    paths = {}
    for name, doc in VALID_DOCS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text if name == kind else json.dumps(doc))
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


def replaced(doc, path, value):
    """A deep copy of `doc` with the value at `path` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


@pytest.mark.parametrize("kind, path, value", [
    ("supernet", ("bit_choices",), 5),
    ("supernet", ("layers",), 5),
    ("supernet", ("layers", 0, "beta_w", 1), [0, 0, 0, 1]),
    ("supernet", ("bit_choices",), [2.0, 4, 8]),
    ("tiling", ("tilings",), 5),
    ("tiling", ("tilings", 0, "t_oc"), None),
    ("tiling", ("tilings", 0, "t_oc"), 4.7),
    ("space", ("pe_x",), ["a"]),
    ("space", ("pe_x",), [8.5]),
    ("space", ("pe_x",), [8, 8]),
    ("space", ("dataflow",), ["WS", "WS"]),
    ("accel", ("pe_x",), 16.7),
    ("constants", ("f_clk_mhz",), float("nan")),
    # a shape too large for the cost model's int64 arrays
    ("workload", ("operators", 0, "kernel"), 2**40),
], ids=["bit-choices-int", "layers-int", "beta-row-length", "bit-choice-float",
        "tilings-int", "t-oc-null", "t-oc-float", "pe-x-string", "pe-x-float-candidate",
        "pe-x-repeated", "dataflow-repeated", "pe-x-float", "clock-nan", "kernel-too-large"])
def test_malformed_document_exit_2(tmp_path, capsys, kind, path, value):
    text = json.dumps(replaced(VALID_DOCS[kind], path, value))
    assert run_with_document(tmp_path, kind, text) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


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

"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

The traced and smoke passes run the real workloads for one second each, so
the whole file takes a few minutes.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def test_generators_are_deterministic_per_seed():
    for make in (gen.supernet_state_doc, gen.memo_docs):
        assert make(5) == make(5)
        assert make(5) != make(6)
    a, b, c = gen.quant_inputs(5), gen.quant_inputs(5), gen.quant_inputs(6)
    for x, y, z in zip(a, b, c):
        for u, v, w in zip(x, y, z):
            assert np.array_equal(u, v) and not np.array_equal(u, w)
    assert gen.anneal_seed(5, 0) != gen.anneal_seed(6, 0)
    assert gen.co_generator_seed(5, 0) == 5
    assert len({gen.co_generator_seed(5, i) for i in range(3)}) == 3


def test_only_blas_dependent_outputs_depend_on_the_machine(monkeypatch):
    monkeypatch.setattr(run, "machine", lambda: "another machine")
    for name, cls in WORKLOADS.items():
        recorded = run.recorded_digests(cls())
        assert bool(recorded) == (name != "co-generator"), name
    monkeypatch.undo()
    assert all(run.recorded_digests(cls()) for cls in WORKLOADS.values())


def test_subnet22_matches_the_test_suite_subnet():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    from acceldse import load_subnet

    assert load_subnet(json.dumps(gen.subnet22_doc())) == conftest.make_synthetic_subnet_22()


def test_state_decodes_to_the_small_subnet_shapes():
    from acceldse import load_supernet_state, select_subnet

    subnet = select_subnet(load_supernet_state(json.dumps(gen.supernet_state_doc(3))))
    shapes = [(op.kernel, op.stride, op.out_rows, op.in_channels, op.out_channels) for op in subnet]
    assert shapes == list(gen.SMALL_SUBNET)


def lookup_sites() -> dict[tuple[str, str], int]:
    """Identity of every function and method at every acceldse module attribute."""
    sites = {}
    for module in spans._acceldse_modules():
        for key, value in vars(module).items():
            if callable(value):
                sites[(module.__name__, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    sites[(f"{module.__name__}.{key}", attr)] = id(member)
    return sites


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from acceldse import cli, quant

    before = lookup_sites()
    workload, accel, tilings = gen.memo_docs(0, n_ops=5)
    paths = {}
    for name, doc in (("w", workload), ("a", accel), ("t", tilings)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert lookup_sites() != before
        cli.main(["cost", "--workload", str(paths["w"]), "--accel", str(paths["a"]),
                  "--tiling", str(paths["t"]), "--out", str(tmp_path / "r.json")])
        quant.quantize(np.arange(4.0), 2)
    assert lookup_sites() == before
    fired = spans.fired([recorder.spans])
    assert {"cli.main", "costmodel.estimate_cost", "quant.quantize"} <= fired


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "FUNCTIONS", spans.FUNCTIONS + (("x.gone", "acceldse.quant", "gone", None),))
    before = lookup_sites()
    with pytest.raises(RuntimeError, match="x.gone"):
        with spans.installed(spans.Recorder()):
            pass
    assert lookup_sites() == before


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_across_two_traced_runs(workload):
    runs = [_run(workload, 7, trace=1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
    first, second = (result["metrics"] for _, result in runs)
    exact = [name for name, _ in spans.PER_LAYER if spans.is_exact(name)]
    assert {n: first[n]["value"] for n in exact} == {n: second[n]["value"] for n in exact}
    assert set(first) == {name for name, _ in spans.PER_LAYER}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_exits_zero_without_errors(workload):
    code, result = _run(workload, 2, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"norm_wall_s", "setup_s", "peak_rss_mb"}


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _run("quant-k3", 0, trace=0, cwd=tmp_path)
    assert code != 0 and result is None

"""The benchmark's contract with the library, checked at tiny sizes.

`perfbench/` traces named functions of acceldse and re-costs results through
the exported `oracle_search`.  Each CLI workload's command runs here once,
in process, under the benchmark's own span recorder, and every boundary the
workload requires must fire.  The benchmark's files are imported as they
are.
"""

import json
import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports gen and reference by name

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from acceldse import cli  # noqa: E402


def traced(argv):
    """Run one acceldse command line, with the `--threads 1` the benchmark
    passes, under the benchmark's recorder; the return code and the names of
    the spans that fired."""
    recorder = spans.Recorder()
    with spans.installed(recorder):
        rc = cli.main([*argv, "--threads", "1"])  # looked up here, as the benchmark's child does
    return rc, spans.fired([recorder.spans])


def write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_search_is_exported():
    from acceldse import oracle_search

    assert callable(oracle_search)


def test_anneal_fires_every_boundary(tmp_path):
    subnet = write(tmp_path / "subnet22.json", gen.subnet22_doc())
    rc, fired = traced(["search", "accel", "--workload", subnet, "--engine", "anneal",
                        "--seed", "1", "--max-evaluations", "5",
                        "--out", str(tmp_path / "anneal.json")])
    assert rc == 0
    assert set(workloads.AnnealFull.boundaries) <= fired


def test_co_generator_fires_every_boundary(tmp_path):
    state = write(tmp_path / "supernet.json", gen.supernet_state_doc(1))
    space = write(tmp_path / "space24.json", gen.SPACE24_DOC)
    rc, fired = traced(["search", "co", "--state", state, "--space", space,
                        *workloads.CO_FLAGS, "--steps", "5", "--seed", "1",
                        "--out", str(tmp_path / "co.json")])
    assert rc == 0
    assert set(workloads.CoGenerator.boundaries) <= fired


def test_cost_memo_fires_every_boundary(tmp_path):
    workload, accel, tilings = gen.memo_docs(1, n_ops=20)
    memo = tmp_path / "memo.jsonl"
    argv = ["cost", "--workload", write(tmp_path / "ops.json", workload),
            "--accel", write(tmp_path / "accel.json", accel),
            "--tiling", write(tmp_path / "tilings.json", tilings), "--cache", str(memo)]
    reports = []
    for phase in (workloads.CostMemoCold, workloads.CostMemoWarm):
        out = tmp_path / f"{phase.phase}.json"
        rc, fired = traced([*argv, "--out", str(out)])
        assert rc == 0, phase.name
        assert set(phase.boundaries) <= fired, phase.name
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert len(memo.read_text().splitlines()) == 20



def test_co_generator_skips_no_op_updates(tmp_path):
    """The benchmark's full co-generator command still fires every boundary,
    while proven no-op updates, and the forward passes they would force, are
    skipped: without the skip, each of the 1,000 steps runs both."""
    state = write(tmp_path / "supernet.json", gen.supernet_state_doc(1))
    space = write(tmp_path / "space24.json", gen.SPACE24_DOC)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        rc = cli.main(["search", "co", "--state", state, "--space", space, *workloads.CO_FLAGS,
                       "--seed", "1", "--out", str(tmp_path / "co.json"), "--threads", "1"])
    assert rc == 0
    assert set(workloads.CoGenerator.boundaries) <= spans.fired([recorder.spans])
    calls = Counter(span[2] for span in recorder.spans)
    assert 0 < calls["hwsearch.net.backward"] < 200
    assert 0 < calls["hwsearch.net.forward"] < 200

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# a checkout's perfbench/run.py that logs its call and prints fixed metrics:
# wall_ref 100 + seed at the parent and SCALE times that at the change; the
# change prints no JSON for seed 12
STUB = textwrap.dedent("""\
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    seed = int(args["--seed"])
    log = Path(__file__).resolve().parent.parent.parent / "calls.log"
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{SIDE} {args['--workload']} {seed} {args['--seconds']} "
                 f"{args['--trace']}\\n")
    print("a readable report")
    if SIDE == "change" and seed == 12:
        print("Traceback: the worker died", file=sys.stderr)
        print("{not json")
        sys.exit(1)
    metrics = {"wall_ref": {"value": SCALE * (100.0 + seed), "unit": "ref"},
               "setup_s": {"value": 2.0, "unit": "s"}}
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                      "metrics": metrics}))
""")


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_checkout(root: Path, side: str, scale: float) -> Path:
    checkout = root / side
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(
        f"SIDE = {side!r}\nSCALE = {scale!r}\n" + STUB)
    (checkout / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 3}))
    return checkout


def test_alternating_pairs_ratios_and_a_malformed_run(tmp_path, bench_pairs):
    parent = make_checkout(tmp_path, "parent", 1.0)
    change = make_checkout(tmp_path, "change", 0.5)
    out = tmp_path / "BENCH_stub.json"
    assert bench_pairs.main([str(parent), str(change), "--workloads", "w1",
                             "--pairs", "3", "--seed", "10", "--out", str(out)]) == 0

    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == ["parent w1 10 3 0", "change w1 10 3 0",
                     "change w1 11 3 0", "parent w1 11 3 0",
                     "parent w1 12 3 0", "change w1 12 3 0"]

    report = json.loads(out.read_text())
    assert report["run_seconds"] == 3
    assert report["trace"] == 0
    assert report["machine"]["cpu_count"] >= 1
    pairs = report["workloads"]["w1"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [
        (10, "parent"), (11, "change"), (12, "parent")]
    malformed = pairs[2]["change"]
    assert malformed["result"] is None
    assert malformed["exit_status"] == 1
    assert malformed["error"] == "no JSON result on the last line"
    assert malformed["stderr_tail"] == ["Traceback: the worker died"]
    assert pairs[2]["parent"]["result"]["metrics"]["wall_ref"]["value"] == 112.0

    wall = report["workloads"]["w1"]["metrics"]["wall_ref"]
    assert wall["pairs"] == 2
    assert wall["ratios"] == [0.5, 0.5]
    assert wall["median_ratio"] == 0.5
    assert wall["parent"] == {"median": 110.5, "q1": 110.25, "q3": 110.75,
                              "iqr": 0.5}
    assert wall["change"]["median"] == 55.25
    assert report["workloads"]["w1"]["metrics"]["setup_s"]["ratios"] == [1.0, 1.0]


def test_trace_option_reaches_every_run(tmp_path, bench_pairs):
    parent = make_checkout(tmp_path, "parent", 1.0)
    change = make_checkout(tmp_path, "change", 0.5)
    out = tmp_path / "BENCH_layers_stub.json"
    assert bench_pairs.main([str(parent), str(change), "--workloads", "w1",
                             "--pairs", "2", "--seed", "20", "--out", str(out),
                             "--trace", "1"]) == 0
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == ["parent w1 20 3 1", "change w1 20 3 1",
                     "change w1 21 3 1", "parent w1 21 3 1"]
    assert json.loads(out.read_text())["trace"] == 1

"""Self-tests of the benchmark: tiny runs of every workload, and the output checks."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import cases  # noqa: E402
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in declared}
    text = "\n".join(lines[:-1])
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        rows = sum(metrics[name] for name in bench_run.SELF_TIMES) + metrics["unattributed_s"]
        assert rows == pytest.approx(metrics["traced_wall_s"], abs=1e-9)
        assert all(value >= 0 for name, value in metrics.items()
                   if name not in ("unattributed_s", "trace_overhead_s"))
    else:
        for name in ("wall_s", "items_per_s", "setup_s", "peak_rss_mb", "error_rate"):
            assert f"\n{name} " in f"\n{text}"


def _serve_report():
    tenant = {"name": "t0", "requests": 4, "latency_p50_s": 1.0, "latency_p99_s": 2.0,
              "ttft_p50_s": 0.5, "ttft_p99_s": 1.5, "tpot_p99_s": 0.1, "wait_mean_s": 0.2,
              "slo_attainment": 0.75}
    report = {key: value for key, value in tenant.items() if key not in ("name", "requests")}
    report.update({"total_requests": 4, "queue_depth_max": 3, "queue_depth_mean": 0.5,
                   "tenants": [tenant],
                   "nodes": [{"node_id": 0, "utilization": 0.9, "completed": 4}]})
    return report


@pytest.mark.parametrize("doctor", [
    lambda report: report.update(latency_p50_s=-0.1),
    lambda report: report["tenants"][0].update(ttft_p50_s=-1.0),
    lambda report: report.update(total_requests=5),
    lambda report: report.update(ttft_p99_s=3.0),
    lambda report: report.update(slo_attainment=1.5),
    lambda report: report["nodes"][0].update(utilization=-0.2),
    lambda report: report.update(queue_depth_mean=-1),
    lambda report: report["tenants"].clear(),
])
def test_serve_check_rejects_a_doctored_report(doctor):
    report = _serve_report()
    assert cases.check_serve(json.dumps(report), 4) == (4, [])
    doctored = copy.deepcopy(report)
    doctor(doctored)
    _, problems = cases.check_serve(json.dumps(doctored), 4)
    assert problems


def _explore_rows():
    return [
        ["lhs0001-sa8x8-buf128k-n8", "8x8", "128", "8", "38.97", "0.0152", "0.51", "0.89",
         "5.43", "True"],
        ["lhs0002-sa4x4-buf256k-n8", "4x4", "256", "8", "38.94", "0.0608", "0.50", "1.05",
         "5.44", "False"],
    ]


def _csv(rows):
    return "\n".join(",".join(row) for row in [cases.EXPLORE_HEADER] + rows) + "\n"


@pytest.mark.parametrize("doctor", [
    lambda rows: rows.pop(),
    lambda rows: rows[0].__setitem__(5, "0"),
    lambda rows: rows[1].__setitem__(5, "1.2"),
    lambda rows: rows[1].__setitem__(4, "-3"),
    lambda rows: rows[0].__setitem__(9, "False"),
])
def test_explore_check_rejects_a_doctored_table(doctor):
    assert cases.check_explore(_csv(_explore_rows()), 2) == (2, [])
    rows = _explore_rows()
    doctor(rows)
    _, problems = cases.check_explore(_csv(rows), 2)
    assert problems


def test_a_changed_digest_fails_the_invocation():
    workload = cases.WORKLOADS["explore_catalog"]
    run = bench_run.Run(workload, cases.DEFAULT_SEED, tiny=False)
    assert run.digest  # recorded for the default seed
    run.expected = 2
    assert not run.check(_csv(_explore_rows()).encode(), [])
    assert "digest" in run.failures[0]

    fresh = bench_run.Run(workload, cases.HELD_OUT_SEED, tiny=False)
    assert fresh.digest is None  # set by the first output
    fresh.expected = 2
    assert fresh.check(_csv(_explore_rows()).encode(), [])
    assert not fresh.check(_csv(_explore_rows()).replace("5.43", "5.42").encode(), [])

"""Tests for iteration-level continuous batching (repro.serve, batching="step").

Covers the public surface (exports, scheduler-name round-trips), the
determinism guarantees from docs/ARCHITECTURE.md section 4, the byte-exact
degenerate parity with the request-level loop (DESIGN.md section 8.3), the
preemption/victim policy, the SLO metrics, and the CLI flags.
"""

import hashlib
import json

import numpy as np
import pytest

import repro.serve
from repro.cli import _parse_slo, build_parser, main
from repro.core import maco_default_config
from repro.gemm import Precision
from repro.serve import (
    SCHEDULER_NAMES,
    DEFAULT_KV_BUDGET_BYTES,
    Request,
    ServeSimulator,
    llm_tenants,
    poisson_trace,
)
from repro.serve.engine import _OrderQueue, policy_order
from repro.serve.simulator import _RunningRequest, _victim_key
from repro.workloads import workload_graph_by_name

#: Small LLaMA proxy: one prefill step plus four 8-token decode blocks, so
#: step-mode scenarios run in well under a second.
VARIANT = "llama-7b@layers=2,prompt=128,decode=32,block=8"
#: Longer-decode variant whose resident KV grows across eight decode steps —
#: enough headroom between admission and peak for a tight budget to force
#: mid-flight preemptions (the short variant is admission-gated instead).
LONG_VARIANT = "llama-7b@layers=2,prompt=128,decode=64,block=8"


def llm_trace(seed=7, tenants=2, utilization=1.1, requests=40, config=None,
              variant=VARIANT):
    config = config or maco_default_config(num_nodes=4)
    sizing = ServeSimulator(config=config)
    specs = sizing.suggest_rates(llm_tenants(tenants, variant=variant),
                                 utilization=utilization)
    duration = requests / sum(spec.rate_rps for spec in specs)
    return poisson_trace(specs, duration, seed=seed)


def step_simulator(**overrides):
    defaults = dict(config=maco_default_config(num_nodes=4), scheduler="fcfs",
                    batching="step", max_batch=4)
    defaults.update(overrides)
    return ServeSimulator(**defaults)


def make_request(request_id, arrival=0.0, priority=0, ttft_slo_s=None):
    return Request(request_id=request_id, tenant="t0", workload=VARIANT,
                   arrival_s=arrival, priority=priority, ttft_slo_s=ttft_slo_s)


class TestPublicSurface:
    def test_every_export_resolves(self):
        for name in repro.serve.__all__:
            assert getattr(repro.serve, name) is not None, name

    def test_scheduler_names_round_trip(self):
        for name in SCHEDULER_NAMES:
            for batching in ("request", "step"):
                simulator = step_simulator(scheduler=name, batching=batching)
                assert simulator.scheduler_name == name
            assert sorted(policy_order(name, 3, service=np.zeros(3), priority=np.zeros(3, np.int64),
                                       deadline=np.zeros(3)).tolist()) == [0, 1, 2]

    @pytest.mark.parametrize("batching", ["request", "step"])
    def test_unknown_name_lists_options(self, batching):
        with pytest.raises(ValueError, match="scheduler must be one of .*slo, got 'deadline'"):
            step_simulator(scheduler="deadline", batching=batching)

    @pytest.mark.parametrize("batching", ["request", "step"])
    def test_names_are_case_sensitive(self, batching):
        with pytest.raises(ValueError, match="got 'FCFS'"):
            step_simulator(scheduler="FCFS", batching=batching)


def slo_order(requests):
    """Pop order of the step loop's slo queue over ``requests`` (already in rank order)."""
    deadline = [r.arrival_s + r.ttft_slo_s if r.ttft_slo_s is not None else float("inf")
                for r in requests]
    queue = _OrderQueue(policy_order("slo", len(requests), priority=np.array(
        [r.priority for r in requests], np.int64), deadline=np.array(deadline)), 0)
    for rank in range(len(requests)):
        queue.push(rank)
    return [requests[queue.pop()].request_id for _ in requests]


class TestPolicies:
    def test_priority_serves_higher_tiers_first(self):
        priority = np.array([0, 2, 1], np.int64)
        queue = _OrderQueue(policy_order("priority", 3, priority=priority), 0)
        for rank in range(3):
            queue.push(rank)
        assert [queue.pop() for _ in range(3)] == [1, 2, 0]

    def test_slo_is_edf_within_a_tier(self):
        requests = [
            make_request("r0", arrival=0.0, ttft_slo_s=9.0),
            make_request("r1", arrival=1.0, ttft_slo_s=2.0),
            make_request("r2", arrival=2.0),  # no target: deadline inf
        ]
        assert slo_order(requests) == ["r1", "r0", "r2"]

    def test_slo_priority_tier_beats_deadline(self):
        requests = [
            make_request("r0", arrival=0.0, ttft_slo_s=0.1),
            make_request("r1", arrival=0.0, priority=1, ttft_slo_s=9.0),
        ]
        assert slo_order(requests)[0] == "r1"

    def test_victim_is_lowest_tier_then_newest(self):
        profile = step_simulator().service_profile(VARIANT)
        running = [
            _RunningRequest(request=make_request("r0", arrival=0.0, priority=1),
                            profile=profile, rank=0),
            _RunningRequest(request=make_request("r1", arrival=2.0), profile=profile, rank=2),
            _RunningRequest(request=make_request("r2", arrival=1.0), profile=profile, rank=1),
        ]
        assert max(running, key=_victim_key).request.request_id == "r1"
        assert max(running[:1] + running[2:], key=_victim_key).request.request_id == "r2"


class TestDeterminism:
    def test_step_mode_reruns_byte_identical(self):
        first = step_simulator(scheduler="slo").run(llm_trace())
        second = step_simulator(scheduler="slo").run(llm_trace())
        assert first.to_json() == second.to_json()

    def test_jobs_do_not_change_step_reports(self):
        serial = step_simulator().run(llm_trace())
        parallel = step_simulator(jobs=2).run(llm_trace())
        assert serial.to_json() == parallel.to_json()

    def test_preemption_is_deterministic(self):
        def tight():
            simulator = step_simulator()
            peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
            return step_simulator(kv_budget_bytes=peak * 1.5)

        trace = llm_trace(variant=LONG_VARIANT, requests=60)
        first, second = tight().run(trace), tight().run(trace)
        assert first.preemptions > 0
        assert first.to_json() == second.to_json()


class TestDegenerateParity:
    def test_batch_one_no_preemption_is_byte_exact_legacy(self):
        trace = llm_trace()
        legacy = ServeSimulator(config=maco_default_config(num_nodes=4)).run(trace)
        step = step_simulator(max_batch=1, preemption=False).run(trace)
        legacy_payload = json.loads(legacy.to_json())
        step_payload = json.loads(step.to_json())
        # Only the mode label differs: the degenerate configuration delegates
        # to the request-level loop but still reports what was configured.
        assert legacy_payload.pop("batching") == "request"
        assert step_payload.pop("batching") == "step"
        assert step_payload == legacy_payload

    def test_general_step_loop_at_batch_one_matches_legacy_closely(self):
        # With preemption on, batch 1 runs the real iteration loop; an
        # uncontended budget never evicts, so it must agree with the legacy
        # dispatcher up to quantization: the request-level engine now runs
        # on integer nanosecond ticks, so per-request times agree with the
        # float step loop only to ~1 ns, which compounds to ~1e-8 relative
        # on second-scale latencies.
        trace = llm_trace()
        legacy = ServeSimulator(config=maco_default_config(num_nodes=4)).run(trace)
        step = step_simulator(max_batch=1, preemption=True).run(trace)
        assert step.preemptions == 0
        assert step.throughput_rps == pytest.approx(legacy.throughput_rps, rel=1e-7)
        assert step.latency_p95_s == pytest.approx(legacy.latency_p95_s, rel=1e-7)
        assert step.latency_p50_s == pytest.approx(legacy.latency_p50_s, rel=1e-7)


class TestStepExecution:
    def test_all_requests_complete(self):
        trace = llm_trace()
        report = step_simulator().run(trace)
        assert sum(tenant.requests for tenant in report.tenants) == len(trace)
        assert report.batching == "step"

    def test_budget_must_fit_one_request(self):
        with pytest.raises(ValueError, match="kv_budget_bytes"):
            step_simulator(kv_budget_bytes=1024).run(llm_trace(requests=4))

    def test_no_preemption_keeps_residents(self):
        # Same tight budget that forces preemptions above: with preemption
        # disabled it only gates admission, so nobody is ever evicted.
        simulator = step_simulator()
        peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
        report = step_simulator(kv_budget_bytes=peak * 1.5, preemption=False).run(
            llm_trace(variant=LONG_VARIANT, requests=60))
        assert report.preemptions == 0

    def test_preemption_charges_restore_and_slows_victims(self):
        trace = llm_trace(variant=LONG_VARIANT, requests=60)
        simulator = step_simulator()
        peak = simulator.service_profile(LONG_VARIANT).peak_state_bytes
        roomy = step_simulator(kv_budget_bytes=DEFAULT_KV_BUDGET_BYTES).run(trace)
        tight = step_simulator(kv_budget_bytes=peak * 1.5).run(trace)
        assert tight.preemptions > 0
        assert sum(t.requests for t in tight.tenants) == len(trace)
        assert roomy.preemptions == 0

    def test_service_profile_partitions_request_latency(self):
        simulator = step_simulator()
        profile = simulator.service_profile(VARIANT)
        assert len(profile.steps) > 1
        assert sum(step.seconds for step in profile.steps) == pytest.approx(
            profile.latency_s, rel=1e-12)
        assert profile.peak_state_bytes == max(step.state_bytes for step in profile.steps)


class TestSLOMetrics:
    def test_goodput_never_exceeds_throughput(self):
        report = step_simulator(scheduler="slo").run(llm_trace())
        assert 0.0 <= report.goodput_rps <= report.throughput_rps + 1e-12
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_no_targets_means_full_attainment(self):
        report = step_simulator().run(llm_trace())
        assert report.slo_attainment == 1.0
        assert report.goodput_rps == pytest.approx(report.throughput_rps)

    def test_ttft_tpot_percentiles_are_ordered(self):
        report = step_simulator().run(llm_trace())
        assert report.ttft_p50_s <= report.ttft_p95_s <= report.ttft_p99_s
        assert report.tpot_p50_s <= report.tpot_p95_s <= report.tpot_p99_s
        assert report.ttft_p50_s > 0.0


class TestWorkloadTokens:
    def test_decode_phases_carry_token_counts(self):
        graph = workload_graph_by_name(VARIANT, Precision.FP32)
        decode_tokens = [phase.tokens for phase in graph.phases if "decode" in phase.name]
        assert decode_tokens and all(tokens > 0 for tokens in decode_tokens)
        assert sum(decode_tokens) == graph.total_tokens

    def test_profile_tokens_match_graph(self):
        simulator = step_simulator()
        graph = workload_graph_by_name(VARIANT, Precision.FP32)
        profile = simulator.service_profile(VARIANT)
        assert profile.total_tokens == graph.total_tokens


class TestCLI:
    def test_serve_step_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.batching == "request"
        assert args.max_batch == 8
        assert args.kv_budget is None
        assert not args.no_preemption
        assert args.slo is None

    def test_scheduler_choices_track_registry(self):
        for name in SCHEDULER_NAMES:
            args = build_parser().parse_args(["serve", "--scheduler", name])
            assert args.scheduler == name

    def test_parse_slo_forms(self):
        assert _parse_slo("0.5") == (0.5, None)
        assert _parse_slo(":0.1") == (None, 0.1)
        assert _parse_slo("0.5:0.1") == (0.5, 0.1)

    @pytest.mark.parametrize("text", ["", ":", "fast", "-1", "0.5:-1"])
    def test_parse_slo_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            _parse_slo(text)

    def test_malformed_slo_exits_cleanly(self, capsys):
        assert main(["serve", "--trace", "poisson", "--tenants", "2",
                     "--tenant-mix", "llm", "--requests", "8", "--nodes", "2",
                     "--slo", "banana"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_step_serve_command_reports_slo_table(self, capsys):
        assert main(["serve", "--trace", "poisson", "--tenants", "2",
                     "--tenant-mix", "llm", "--seed", "7", "--requests", "12",
                     "--nodes", "2", "--batching", "step", "--max-batch", "4",
                     "--scheduler", "slo", "--slo", "0.5:0.1"]) == 0
        output = capsys.readouterr().out
        assert "SLO" in output
        assert "preemptions" in output


class TestStepReportDigests:
    """Pinned step-mode JSON report bytes, one digest per policy.

    A tight KV budget makes these runs preempt, so every policy's re-push
    path is exercised; any change to step-mode admission or preemption
    order moves a digest.
    """

    COMMAND = ["serve", "--trace", "bursty", "--tenants", "3", "--tenant-mix", "llm",
               "--seed", "7", "--requests", "120", "--nodes", "4", "--batching", "step",
               "--max-batch", "4", "--kv-budget", "300", "--utilization", "0.9",
               "--slo", "0.5:0.05", "--format", "json"]

    @pytest.mark.parametrize("scheduler, digest", [
        ("fcfs", "7b4791b4fc2d1b642ad878a340510a8d9173a32f20b37c72a3396eeeb29b6650"),
        ("sjf", "d9aa3697fb5dc51f4217097362722460549e75d97a8a084a8ff63b86bc1ea551"),
        ("rr", "1093802bfd8e411f61e3c8c8b994c5592a4ddb6f2f31fe516afdec6af3261caf"),
        ("priority", "006a28ddbe9a804c13e920dc0fb0dff565a3c0ab8bdbe3ba3194f10b024fe9d5"),
        ("slo", "33d255fcaead78a047cf6e5e9e6f98bb556eee2f93c6c8f42c12796e94201d2b"),
    ])
    def test_report_bytes_are_pinned(self, capsys, scheduler, digest):
        assert main([*self.COMMAND, "--scheduler", scheduler]) == 0
        output = capsys.readouterr().out
        assert json.loads(output)["preemptions"] > 0
        assert hashlib.sha256(output.encode()).hexdigest() == digest

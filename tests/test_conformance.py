"""Golden-model conformance harness and property-based scenario fuzzing.

Covers the three layers of ``repro.conformance``:

* the **golden corpus** — the committed ``tests/golden/`` files pass, span
  every precision, and pin the golden models (fingerprint drift fails);
* the **harness error paths** — a mutated kernel is caught with a message
  naming the kernel, seed and worst element plus a replayable spec;
  malformed golden files fail loudly naming the file; ``--regen`` is
  guarded against dirty corpora and refused outright in CI;
* the **fuzz layer** — scenario generation is deterministic in
  ``(seed, index)``, every kind holds on its canonical budget, violations
  shrink to minimal replayable specs, and the edge scenarios the PR's fuzz
  sweep probed (near-empty traces, boundary percentiles, single-tenant
  fleets) stay pinned.  The sweep itself (1000 cases over seeds 0-4) found
  no violations — the invariants inherited from the earlier parity PRs held.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.conformance import (
    KERNELS,
    PRECISION_TOLERANCES,
    DEFAULT_GOLDEN_DIR,
    GoldenCase,
    GoldenFileError,
    RegenRefused,
    ScenarioSpec,
    case_fingerprint,
    compare_arrays,
    default_corpus,
    fuzz,
    kernel_for,
    load_golden_file,
    replay,
    run_case,
    run_corpus,
    run_scenario,
    write_golden_file,
)
from repro.conformance.fuzz import SCENARIO_KINDS, ScenarioFailure
from repro.conformance.harness import _check_regen_allowed
from repro.gemm.precision import Precision


def corpus_case(name):
    matches = [case for case in default_corpus() if case.name == name]
    assert matches, f"no corpus case named {name}"
    return matches[0]


# ----------------------------------------------------------- corpus contents
class TestCorpusShape:
    def test_covers_at_least_twelve_cases_and_every_precision(self):
        corpus = default_corpus()
        assert len(corpus) >= 12
        gemm_precisions = {
            case.precision for case in corpus
            if case.kernel in ("gemm", "tiled-gemm", "im2col-conv")
        }
        assert gemm_precisions == set(Precision)

    def test_every_kernel_is_exercised(self):
        used = {case.kernel for case in default_corpus()}
        assert used == set(KERNELS)

    def test_case_names_are_unique(self):
        names = [case.name for case in default_corpus()]
        assert len(names) == len(set(names))

    def test_tolerances_follow_the_precision_policy(self):
        for case in default_corpus():
            rtol, atol = PRECISION_TOLERANCES[case.precision]
            assert case.rtol == rtol
            assert case.atol == atol

    def test_case_record_round_trips(self):
        for case in default_corpus():
            assert GoldenCase.from_dict(case.to_dict()) == case

    def test_unknown_kernel_is_rejected_with_options(self):
        bogus = GoldenCase("x", "nope", 1, (), 0.1, 0.1)
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_for(bogus)


class TestCommittedCorpus:
    """The acceptance gate: the committed tests/golden/ files must pass."""

    def test_full_corpus_passes_against_committed_goldens(self):
        report = run_corpus()
        assert report.passed, "\n".join(r.message for r in report.failures)
        assert len(report.results) == len(default_corpus())

    def test_committed_files_exist_for_every_case(self):
        for case in default_corpus():
            path = DEFAULT_GOLDEN_DIR / f"{case.name}.json"
            assert path.exists(), f"missing committed golden {path.name}"
            committed_case, fingerprint = load_golden_file(path)
            assert committed_case == case
            assert fingerprint["shape"], f"{path.name} has no shape pin"

    def test_fingerprint_drift_is_reported_as_failure(self):
        case = corpus_case("moe-topk-8x2")
        path = DEFAULT_GOLDEN_DIR / f"{case.name}.json"
        _, fingerprint = load_golden_file(path)
        fingerprint = dict(fingerprint)
        fingerprint["mean"] = fingerprint["mean"] + 1.0
        result = run_case(case, committed=fingerprint)
        assert result.status == "fail"
        assert "fingerprint drifted" in result.message
        assert "mean" in result.message


# --------------------------------------------------------- mutation smoke test
class TestMutationDetection:
    """A deliberately perturbed kernel must be caught and fully diagnosed."""

    def test_perturbed_gemm_fails_with_named_worst_element(self, monkeypatch):
        kernel = KERNELS["gemm"]
        original = kernel.run_functional

        def mutated(case, inputs):
            output = original(case, inputs)
            output[3, 5] += 1.0  # the mutation: one poisoned accumulator
            return output

        # KernelDef is frozen, so mutate through the registry — the same
        # surface a bad refactor would change.
        monkeypatch.setitem(
            KERNELS, "gemm",
            type(kernel)(name=kernel.name, generate_inputs=kernel.generate_inputs,
                         run_functional=mutated, compute_golden=kernel.compute_golden),
        )
        case = corpus_case("gemm-square-fp64")
        result = run_case(case)
        assert result.status == "fail"
        # The failure message names the kernel, the seed and the worst element.
        assert "'gemm'" in result.message
        assert f"seed {case.seed}" in result.message
        assert "[3, 5]" in result.message
        assert result.worst is not None and result.worst.index == (3, 5)
        # And the repro spec replays to the same verdict.
        spec = result.repro_spec()
        assert spec["type"] == "golden"
        replayed = run_case(GoldenCase.from_dict(spec["case"]))
        assert replayed.status == "fail"

    def test_mutated_dataclass_kernels_cannot_hide(self, monkeypatch):
        # KernelDef is frozen; monkeypatch.setattr on a frozen dataclass
        # attribute raises — mutate through the registry instead, the way a
        # bad refactor would.
        case = corpus_case("wavefront-4x4")
        kernel = KERNELS[case.kernel]
        monkeypatch.setitem(
            KERNELS, case.kernel,
            type(kernel)(
                name=kernel.name,
                generate_inputs=kernel.generate_inputs,
                run_functional=lambda c, i: kernel.run_functional(c, i) * 1.0001,
                compute_golden=kernel.compute_golden,
            ),
        )
        result = run_case(case)
        assert result.status == "fail"
        assert "wavefront" in result.message

    def test_compare_arrays_flags_nan(self):
        golden = np.ones((2, 2))
        functional = golden.copy()
        functional[1, 0] = np.nan
        worst = compare_arrays(functional, golden, rtol=1e-6, atol=1e-6)
        assert worst is not None
        assert worst.index == (1, 0)


# ------------------------------------------------------------- harness errors
class TestGoldenFileErrors:
    def test_unparseable_json_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GoldenFileError, match="broken.json"):
            load_golden_file(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"case": {}}))
        with pytest.raises(GoldenFileError, match="'case' and 'golden'"):
            load_golden_file(path)

    def test_malformed_case_record_rejected(self, tmp_path):
        path = tmp_path / "badcase.json"
        path.write_text(json.dumps({
            "case": {"name": "x"},  # missing kernel/seed/params/tolerances
            "golden": {},
        }))
        with pytest.raises(GoldenFileError, match="malformed golden case"):
            load_golden_file(path)

    def test_missing_golden_file_fails_the_corpus_run(self, tmp_path):
        case = corpus_case("gemm-plus-overlap")
        report = run_corpus(golden_dir=tmp_path, cases=[case])
        assert not report.passed
        assert "--regen" in report.results[0].message

    def test_stale_committed_spec_fails_the_corpus_run(self, tmp_path):
        case = corpus_case("gemm-plus-overlap")
        other = corpus_case("wavefront-4x4")
        rng = np.random.default_rng(other.seed)
        kernel = kernel_for(other)
        golden = kernel.compute_golden(other, kernel.generate_inputs(other, rng))
        # Commit the wrong spec under this case's file name.
        write_golden_file(tmp_path / f"{case.name}.json", other,
                          case_fingerprint(np.asarray(golden)))
        report = run_corpus(golden_dir=tmp_path, cases=[case])
        assert not report.passed
        assert "disagrees with the in-code corpus" in report.results[0].message


class TestRegenGuard:
    def test_allow_dirty_is_refused_in_ci(self, tmp_path):
        with pytest.raises(RegenRefused, match="refused in CI"):
            _check_regen_allowed(tmp_path, allow_dirty=True, env={"CI": "true"})

    def test_dirty_corpus_without_allow_dirty_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.conformance.harness._working_tree_dirty", lambda _dir: True)
        with pytest.raises(RegenRefused, match="uncommitted changes"):
            _check_regen_allowed(tmp_path, allow_dirty=False, env={})

    def test_dirty_corpus_with_allow_dirty_proceeds_outside_ci(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.conformance.harness._working_tree_dirty", lambda _dir: True)
        _check_regen_allowed(tmp_path, allow_dirty=True, env={})

    def test_outside_git_regen_is_allowed(self, tmp_path):
        # _working_tree_dirty returns None outside a work tree; regen into a
        # scratch directory (the common tmp-corpus flow) must not be blocked.
        case = corpus_case("gemm-plus-overlap")
        report = run_corpus(golden_dir=tmp_path / "golden", cases=[case], regen=True)
        assert report.passed
        assert report.regenerated == [f"{case.name}.json"]
        # And a check run against the fresh corpus passes.
        check = run_corpus(golden_dir=tmp_path / "golden", cases=[case])
        assert check.passed


# ---------------------------------------------------------------- fuzz layer
class TestFuzzDeterminism:
    def test_same_seed_samples_identical_scenarios(self):
        first = fuzz(cases=21, seed=5)
        second = fuzz(cases=21, seed=5)
        assert [r.spec for r in first.results] == [r.spec for r in second.results]
        assert first.passed and second.passed

    def test_kinds_rotate_round_robin(self):
        report = fuzz(cases=2 * len(SCENARIO_KINDS), seed=0)
        counts = report.kind_counts()
        assert set(counts) == set(SCENARIO_KINDS)
        assert all(count == 2 for count in counts.values())

    def test_kind_filter_and_validation(self):
        report = fuzz(cases=4, seed=1, kinds=["percentile"])
        assert set(report.kind_counts()) == {"percentile"}
        with pytest.raises(ValueError, match="unknown scenario kind"):
            fuzz(cases=1, seed=0, kinds=["quantum"])
        with pytest.raises(ValueError, match="cases"):
            fuzz(cases=0, seed=0)

    def test_unknown_scenario_kind_rejected_at_run(self):
        with pytest.raises(ValueError, match="options"):
            run_scenario(ScenarioSpec(kind="quantum", params=()))


class TestFuzzFailureReporting:
    def test_violation_is_shrunk_and_replayable(self, monkeypatch):
        # Break the percentile invariant check itself so the fuzzer has a
        # violation to report, then confirm the repro spec replays it.
        # SCENARIO_KINDS is the registry object the fuzz module dispatches
        # through, so patching the shared dict reaches fuzz() and replay().
        kind = SCENARIO_KINDS["percentile"]

        def broken(spec):
            if int(spec.param("size")) > 1:
                raise ScenarioFailure(f"synthetic violation at size {spec.param('size')}")

        monkeypatch.setitem(
            SCENARIO_KINDS, "percentile",
            type(kind)(name=kind.name, sample=kind.sample, check=broken,
                       shrink_floor=kind.shrink_floor),
        )
        report = fuzz(cases=6, seed=3, kinds=["percentile"])
        assert not report.passed
        failure = report.failures[0]
        spec = failure.repro_spec()
        assert spec["type"] == "fuzz" and spec["kind"] == "percentile"
        # The shrinker drove every floorable parameter toward its floor while
        # the failure persisted; size floors at 1, which passes, so the
        # shrunk spec keeps a failing size but minimises the rest.
        assert replay(spec) is not None  # still fails on replay
        assert "synthetic violation" in spec["message"]

    def test_replay_of_passing_spec_returns_none(self):
        spec = ScenarioSpec(
            kind="percentile",
            params=tuple(sorted(
                {"size": 8, "q": 50.0, "seed": 1, "scale": 1.0}.items())),
        )
        assert replay(spec.to_dict()) is None

    def test_malformed_replay_record_rejected(self):
        with pytest.raises(ValueError, match="malformed fuzz scenario"):
            replay({"type": "fuzz"})


class TestPinnedEdgeScenarios:
    """Edge probes from this PR's fuzz sweep, pinned as regressions."""

    @pytest.mark.parametrize("params", [
        {"size": 1, "q": 0.0, "seed": 1, "scale": 1.0},
        {"size": 1024, "q": 100.0, "seed": 2, "scale": 1e6},
        {"size": 1023, "q": 0.001, "seed": 3, "scale": 1e-6},
    ])
    def test_percentile_boundaries(self, params):
        run_scenario(ScenarioSpec("percentile", tuple(sorted(params.items()))))

    def test_near_empty_trace_serve_parity(self):
        run_scenario(ScenarioSpec("serve-parity", tuple(sorted({
            "scheduler": "slo", "batching": "step", "seed": 13, "tenants": 2,
            "rate": 0.01, "duration": 2.0, "num_nodes": 2,
        }.items()))))

    def test_near_empty_trace_shard_invariance(self):
        run_scenario(ScenarioSpec("serve-shards", tuple(sorted({
            "scheduler": "rr", "batching": "request", "seed": 14, "tenants": 2,
            "rate": 0.01, "duration": 2.0, "num_nodes": 4, "shards": 5, "jobs": 2,
        }.items()))))

    def test_scale_out_waits_for_a_lazily_completed_drain(self):
        # A drain that completes in loop order before an earlier-ending window
        # used to free its group for that window's scale-out, putting five
        # groups on a four-group fleet until the drain's stop time.
        run_scenario(ScenarioSpec("autoscale-invariants", tuple(sorted({
            "duration": 2.0, "jobs": 1, "max_batch": 2, "max_groups": 4,
            "min_groups": 1, "rate": 33.9, "scheduler": "slo", "seed": 7084,
            "shards": 2, "tenants": 3,
        }.items()))))

    @pytest.mark.parametrize("num_nodes, narrow", [(1, 0), (16, 3), (7, 2)])
    def test_timing_cache_parity_narrow_layers(self, num_nodes, narrow):
        # narrow > 0 adds layers whose split extent is below the node count.
        run_scenario(ScenarioSpec("timing-cache-parity", tuple(sorted({
            "workload": "llama-7b", "precision": "fp16", "sa": 8, "buffer_kb": 16,
            "num_nodes": num_nodes, "prediction": False, "narrow": narrow,
            "narrow_seed": 5,
        }.items()))))

    @pytest.mark.parametrize("m, n, k", [(1, 1, 1), (8191, 3, 4096), (64, 64, 64)])
    def test_breakdown_conservation_extremes(self, m, n, k):
        for mapped in (True, False):
            run_scenario(ScenarioSpec("breakdown-conservation", tuple(sorted({
                "m": m, "n": n, "k": k, "precision": "fp64", "prediction": False,
                "active_nodes": 16, "mapped": mapped,
            }.items()))))

    def test_single_tenant_bursty_saturation(self):
        run_scenario(ScenarioSpec("trace-roundtrip", tuple(sorted({
            "generator": "bursty", "seed": 12, "tenants": 1, "rate": 0.05,
            "duration": 1.0, "burst_factor": 10.0, "burst_fraction": 0.5,
        }.items()))))


# ------------------------------------------------------------------ CLI layer
class TestConformanceCLI:
    def test_run_passes_against_committed_corpus(self, capsys):
        assert main(["conformance", "run"]) == 0
        output = capsys.readouterr().out
        assert "golden conformance corpus" in output
        assert "all 21 golden case(s) passed" in output

    def test_fuzz_smoke_budget(self, capsys):
        assert main(["conformance", "fuzz", "--cases", "14", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "all scenarios passed" in output

    def test_regen_into_scratch_dir_then_check(self, tmp_path, capsys):
        golden_dir = str(tmp_path / "scratch")
        assert main(["conformance", "run", "--regen", "--golden-dir", golden_dir]) == 0
        assert "regenerated 21 golden file(s)" in capsys.readouterr().out
        assert main(["conformance", "run", "--golden-dir", golden_dir]) == 0

    def test_regen_refused_in_ci_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CI", "true")
        code = main(["conformance", "run", "--regen", "--allow-dirty",
                     "--golden-dir", str(tmp_path)])
        assert code == 2
        assert "refused in CI" in capsys.readouterr().err

    def test_missing_corpus_fails_and_writes_failure_specs(self, tmp_path, capsys):
        failures = tmp_path / "failures.json"
        code = main(["conformance", "run", "--golden-dir", str(tmp_path / "nowhere"),
                     "--failures", str(failures)])
        assert code == 1
        record = json.loads(failures.read_text())
        assert len(record["failures"]) == len(default_corpus())
        assert record["failures"][0]["type"] == "golden"

    def test_replay_failure_file_round_trip(self, tmp_path, capsys):
        # A golden failure spec written by `run` replays through the CLI; the
        # un-mutated tree passes it, exiting 0.
        failures = tmp_path / "failures.json"
        main(["conformance", "run", "--golden-dir", str(tmp_path / "nowhere"),
              "--failures", str(failures)])
        capsys.readouterr()
        assert main(["conformance", "replay", str(failures)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_replay_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["conformance", "replay", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_fuzz_rejects_unknown_kind_cleanly(self, capsys):
        assert main(["conformance", "fuzz", "--cases", "1", "--kind", "quantum"]) == 2
        assert "unknown scenario kind" in capsys.readouterr().err

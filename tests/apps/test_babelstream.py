"""Tests for the BabelStream kernels, simulator, and benchmark class."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.babelstream.kernels import (
    KERNELS,
    StreamArrays,
    StreamKernels,
    VerificationError,
)
from repro.apps.babelstream.simulator import (
    BabelStreamRun,
    default_array_size,
)
from repro.machine import clock
from repro.machine.progmodel import UnsupportedModelError
from repro.systems.registry import get_system


def node_of(system, partition=None):
    return get_system(system).partition(partition).node


class TestKernels:
    def test_kernels_compute_correctly(self):
        arrays = StreamArrays.initialise(1024)
        k = StreamKernels(arrays)
        k.run_all(10)
        k.verify(10)  # must not raise

    def test_verification_catches_corruption(self):
        arrays = StreamArrays.initialise(1024)
        k = StreamKernels(arrays)
        k.run_all(5)
        arrays.a[3] = 1e6
        with pytest.raises(VerificationError):
            k.verify(5)

    def test_verification_catches_wrong_dot(self):
        arrays = StreamArrays.initialise(1024)
        k = StreamKernels(arrays)
        k.run_all(5)
        k.last_dot = -1.0
        with pytest.raises(VerificationError):
            k.verify(5)

    def test_expected_values_recurrence(self):
        a, b, c = StreamKernels.expected_values(1)
        # one round from (0.1, 0.2, 0): c=a=0.1; b=0.04; c=0.14; a=0.096
        assert c == pytest.approx(0.1 + 0.4 * 0.1)
        assert b == pytest.approx(0.4 * 0.1)
        assert a == pytest.approx(0.4 * c + b)

    def test_traffic_accounting(self):
        arrays = StreamArrays.initialise(100)
        k = StreamKernels(arrays)
        assert k.bytes_for("Copy") == 2 * 100 * 8
        assert k.bytes_for("Triad") == 3 * 100 * 8
        assert k.bytes_for("Dot") == 2 * 100 * 8
        assert k.flops_for("Triad") == 200
        with pytest.raises(KeyError):
            k.bytes_for("Quad")

    @given(st.integers(min_value=1, max_value=60))
    @settings(max_examples=10, deadline=None)
    def test_verify_passes_for_any_iteration_count(self, num_times):
        arrays = StreamArrays.initialise(256)
        k = StreamKernels(arrays)
        k.run_all(num_times)
        k.verify(num_times)


class TestArraySizing:
    def test_paper_rule_2_25_on_cascade_lake(self):
        assert default_array_size(node_of("isambard-macs", "cascadelake")) == 2**25

    def test_paper_rule_2_29_on_milan(self):
        assert default_array_size(node_of("noctua2")) == 2**29

    def test_rule_on_thunderx2(self):
        """A 2^25 array is *exactly* 4x ThunderX2's 64 MB of L3; the rule
        takes the cache-safe side of that boundary and doubles (the paper
        kept 2^25 there -- our rule only ever errs toward more safety)."""
        assert default_array_size(node_of("isambard")) == 2**26

    def test_gpu_uses_small_llc(self):
        assert default_array_size(node_of("isambard-macs", "volta")) == 2**25


class TestSimulator:
    def test_output_format(self):
        run = BabelStreamRun(node_of("csd3"), "omp", num_times=20)
        stdout, seconds = run.render_output()
        assert stdout.startswith("BabelStream")
        for kernel in KERNELS:
            assert f"\n{kernel}" in stdout
        assert seconds > 0

    def test_unsupported_model_raises(self):
        run = BabelStreamRun(node_of("csd3"), "cuda")
        with pytest.raises(UnsupportedModelError):
            run.execute()

    def test_determinism(self):
        a = BabelStreamRun(node_of("csd3"), "omp").render_output()
        b = BabelStreamRun(node_of("csd3"), "omp").render_output()
        assert a == b

    def test_triad_below_peak(self):
        node = node_of("csd3")
        results, _ = BabelStreamRun(node, "omp").execute()
        triad = [r for r in results if r.name == "Triad"][0]
        assert 0 < triad.gbytes_per_sec < node.peak_bandwidth_gbs

    def test_cuda_near_peak_on_volta(self):
        node = node_of("isambard-macs", "volta")
        results, _ = BabelStreamRun(node, "cuda").execute()
        triad = [r for r in results if r.name == "Triad"][0]
        assert triad.gbytes_per_sec / 900.0 > 0.88

    def test_small_array_inflates_fom(self):
        """Violating the sizing rule reports cache bandwidth (the hazard)."""
        node = node_of("noctua2")
        honest, _ = BabelStreamRun(node, "omp", array_size=2**29).execute()
        cheat, _ = BabelStreamRun(node, "omp", array_size=2**20).execute()
        t_honest = [r for r in honest if r.name == "Triad"][0]
        t_cheat = [r for r in cheat if r.name == "Triad"][0]
        assert t_cheat.gbytes_per_sec > 2 * t_honest.gbytes_per_sec

    def test_min_le_avg_le_max(self):
        results, _ = BabelStreamRun(node_of("archer2"), "omp").execute()
        for r in results:
            assert r.min_seconds <= r.avg_seconds <= r.max_seconds

    def test_rep_noise_is_batched(self, monkeypatch):
        """A run's 5 x 100 rep timings come from batched draws, not from a
        ``DeterministicRNG`` (a numpy Generator) per rep."""
        constructed = []
        original = clock.DeterministicRNG.__init__

        def counting_init(self, *parts):
            constructed.append(parts)
            original(self, *parts)

        monkeypatch.setattr(clock.DeterministicRNG, "__init__", counting_init)
        results, _ = BabelStreamRun(node_of("archer2"), "omp").execute()
        assert len(results) == len(KERNELS)
        assert constructed == []


class TestBenchmarkClass:
    def test_variants_cover_all_models(self):
        from repro.apps.babelstream.benchmark import BabelStreamBenchmark
        from repro.machine.progmodel import PROGRAMMING_MODELS

        names = {t.model for t in BabelStreamBenchmark.variants()}
        assert names == set(PROGRAMMING_MODELS)

    def test_spec_carries_model_variant(self):
        from repro.apps.babelstream.benchmark import BabelStreamBenchmark

        t = [v for v in BabelStreamBenchmark.variants() if v.model == "omp"][0]
        assert t.spack_spec == "babelstream +omp"
        assert "omp" in t.tags

"""Tests for the roofline model, programming-model DB, clock, interconnect."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import clock
from repro.machine.clock import (
    BATCH_BREAK_EVEN,
    DeterministicRNG,
    lognormal_factors,
    perturb,
    stable_seed,
)
from repro.machine.interconnect import INTERCONNECTS, InterconnectModel
from repro.machine.progmodel import (
    PROGRAMMING_MODELS,
    ProgrammingModelDB,
    UnsupportedModelError,
    default_model_db,
)
from repro.machine.roofline import KernelProfile, RooflineModel
from repro.systems.registry import SYSTEMS, get_system


def node_of(system, partition=None):
    return get_system(system).partition(partition).node


class TestClock:
    def test_stable_seed_is_stable(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_separator_prevents_collision(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_rng_reproducible(self):
        a = DeterministicRNG("x").lognormal_factor()
        b = DeterministicRNG("x").lognormal_factor()
        assert a == b

    def test_lognormal_factor_near_one(self):
        f = DeterministicRNG("y").lognormal_factor(sigma=0.01)
        assert 0.9 < f < 1.1

    def test_perturb_deterministic(self):
        assert perturb(100.0, 0.02, "k") == perturb(100.0, 0.02, "k")
        assert perturb(100.0, 0.02, "k") != perturb(100.0, 0.02, "l")


def _per_draw(sigma, count, *parts):
    return [DeterministicRNG(*parts, i).lognormal_factor(sigma)
            for i in range(count)]


class TestBatchedDraws:
    """``lognormal_factors`` re-implements numpy's SeedSequence and PCG64
    seeding; every draw must equal the per-draw reference exactly."""

    @pytest.mark.parametrize("count", sorted({
        0, 1, BATCH_BREAK_EVEN - 1, BATCH_BREAK_EVEN, 100, 600,
    }))
    def test_equals_per_draw_reference(self, count):
        parts = ("babelstream", "archer2:compute", "omp", "gcc", "Triad",
                 1 << 29)
        assert lognormal_factors(0.015, count, *parts) \
            == _per_draw(0.015, count, *parts)

    @settings(max_examples=25, deadline=None)
    @given(
        parts=st.lists(st.one_of(st.text(max_size=8), st.integers()),
                       max_size=4),
        count=st.integers(BATCH_BREAK_EVEN, 3 * BATCH_BREAK_EVEN),
        sigma=st.floats(0.001, 0.5),
    )
    def test_random_parts(self, parts, count, sigma):
        assert lognormal_factors(sigma, count, *parts) \
            == _per_draw(sigma, count, *parts)

    def test_seeds_of_one_entropy_word(self):
        # sha256 practically never yields a seed below 2**32, so the
        # single-entropy-word path is checked on the seeds directly
        seeds = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1] + [
            int(s) for s in
            np.random.default_rng(3).integers(0, 2**32, 50, dtype=np.uint64)
        ]
        expected = [
            float(np.exp(np.random.default_rng(s).normal(0.0, 0.05)))
            for s in seeds
        ]
        assert clock._seeded_lognormal_factors(0.05, seeds) == expected

    def test_seed_words_match_seed_sequence(self):
        seeds = [0, 7, 2**32 - 1, 2**32, stable_seed("x", 1), 2**64 - 1]
        assert clock._seed_words(seeds) == [
            np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
            for s in seeds
        ]

    def test_threads_drawing_at_once(self):
        # more threads than cores, switching every few microseconds: a
        # generator shared between threads could be re-seeded by one
        # thread between another's seeding and its draw
        jobs = [("telemetry", f"job{k}") for k in range(4)]
        expected = {job: _per_draw(0.05, 600, *job) for job in jobs}
        barrier = threading.Barrier(len(jobs))
        got, generators, errors = {}, {}, []

        def draw(job):
            try:
                barrier.wait()
                got[job] = [lognormal_factors(0.05, 600, *job)
                            for _ in range(5)]
                generators[job] = clock._thread.generator
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=draw, args=(job,)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for job in jobs:
            assert got[job] == [expected[job]] * 5
        # re-seeding is only safe on a generator no other thread holds
        assert len({id(g) for g in generators.values()}) == len(jobs)


class TestRoofline:
    def test_memory_bound_triad(self):
        node = node_of("archer2")
        model = RooflineModel(node)
        n = 2**25
        triad = KernelProfile(
            "triad", bytes_moved=3 * n * 8, flops=2 * n,
            working_set_bytes=3 * n * 8,
        )
        assert model.is_memory_bound(triad)
        t = model.time_for(triad)
        bw = model.achieved_bandwidth_gbs(triad, t)
        # cannot exceed sustained stream bandwidth
        assert bw <= node.peak_bandwidth_gbs
        assert bw == pytest.approx(
            node.peak_bandwidth_gbs * node.memory.stream_fraction, rel=1e-9
        )

    def test_cache_capture_hazard(self):
        """A working set inside Milan's 512 MB LLC reports cache bandwidth --
        the reason the paper sizes Milan arrays at 2^29."""
        node = node_of("noctua2")
        model = RooflineModel(node)
        small = KernelProfile(
            "triad", bytes_moved=3 * 2**20 * 8, working_set_bytes=3 * 2**20 * 8
        )
        big_n = 2**29
        big = KernelProfile(
            "triad", bytes_moved=3 * big_n * 8, working_set_bytes=3 * big_n * 8
        )
        bw_small = model.achieved_bandwidth_gbs(small, model.time_for(small))
        bw_big = model.achieved_bandwidth_gbs(big, model.time_for(big))
        assert bw_small > bw_big * 2  # inflated FOM from cache
        assert big.working_set_bytes > node.llc_bytes

    def test_array_sizing_facts_from_section_3_1(self):
        """Milan has 512 MB of L3 ('256 MB per socket ... 512 MB with two
        sockets'); a single 2^25-double array (268 MB) sits inside it, while
        it dwarfs Cascade Lake's 27.5 MB -- hence 2^29 on Milan only."""
        single_array = 2**25 * 8
        assert node_of("noctua2").llc_bytes == 2 * 256 * 1024 * 1024
        assert single_array < node_of("noctua2").llc_bytes
        assert single_array > node_of("isambard-macs", "cascadelake").llc_bytes
        big_array = 2**29 * 8
        assert big_array > 4 * node_of("noctua2").llc_bytes

    def test_compute_bound_kernel(self):
        node = node_of("archer2")
        model = RooflineModel(node)
        dgemm = KernelProfile("dgemm", bytes_moved=1e6, flops=1e12)
        assert not model.is_memory_bound(dgemm)
        t = model.time_for(dgemm)
        assert model.achieved_gflops(dgemm, t) == pytest.approx(
            node.peak_gflops, rel=1e-9
        )

    def test_gpu_node_uses_gpu_memory(self):
        node = node_of("isambard-macs", "volta")
        model = RooflineModel(node)
        assert node.peak_bandwidth_gbs == 900.0
        prof = KernelProfile("triad", bytes_moved=1e9, working_set_bytes=1e9)
        bw = model.achieved_bandwidth_gbs(prof, model.time_for(prof))
        assert bw == pytest.approx(900.0 * 0.93, rel=1e-9)

    def test_rfo_charging(self):
        node = node_of("archer2")
        prof = KernelProfile("copy", bytes_moved=2e9, rfo_writes_bytes=1e9,
                             working_set_bytes=1e18)
        fast = RooflineModel(node, charge_rfo=False).time_for(prof)
        slow = RooflineModel(node, charge_rfo=True).time_for(prof)
        assert slow == pytest.approx(fast * 1.5, rel=1e-9)

    def test_zero_traffic_kernel_ai_infinite(self):
        prof = KernelProfile("spin", bytes_moved=0.0, flops=100.0)
        assert math.isinf(prof.arithmetic_intensity)

    @given(
        st.floats(min_value=1e3, max_value=1e12),
        st.floats(min_value=0.0, max_value=1e12),
    )
    @settings(max_examples=50, deadline=None)
    def test_time_positive_and_monotone_in_bytes(self, nbytes, flops):
        node = node_of("csd3")
        model = RooflineModel(node)
        p1 = KernelProfile("k", bytes_moved=nbytes, flops=flops,
                           working_set_bytes=1e18)
        p2 = KernelProfile("k", bytes_moved=nbytes * 2, flops=flops,
                           working_set_bytes=1e18)
        t1, t2 = model.time_for(p1), model.time_for(p2)
        assert t1 > 0 and t2 >= t1


class TestProgModelDB:
    def test_omp_supported_everywhere(self):
        db = default_model_db()
        for sysname in SYSTEMS:
            system = get_system(sysname)
            for pname in system.partitions:
                assert db.supported("omp", node_of(sysname, pname))

    def test_cuda_near_peak_on_volta(self):
        db = default_model_db()
        node = node_of("isambard-macs", "volta")
        eff = db.efficiency("cuda", node)
        # reported efficiency = stream_fraction * factor, "close to peak"
        assert eff.factor * node.gpu.memory.stream_fraction > 0.9

    def test_cuda_unsupported_on_cpus(self):
        db = default_model_db()
        with pytest.raises(UnsupportedModelError):
            db.efficiency("cuda", node_of("archer2"))

    def test_tbb_unsupported_on_thunderx2(self):
        db = default_model_db()
        with pytest.raises(UnsupportedModelError, match="aarch64"):
            db.efficiency("tbb", node_of("isambard"))

    def test_std_ranges_single_threaded_everywhere_on_cpu(self):
        db = default_model_db()
        for sysname in ("csd3", "archer2", "noctua2", "isambard"):
            eff = db.efficiency("std-ranges", node_of(sysname))
            assert eff.status == "degraded"
            assert eff.factor < 0.15

    def test_std_ranges_much_slower_than_std_data(self):
        """The paper's 'disparity between std-data & std-indices and
        std-ranges'."""
        db = default_model_db()
        node = node_of("csd3")
        ranges = db.efficiency("std-ranges", node).factor
        data = db.efficiency("std-data", node).factor
        assert data / ranges > 5

    def test_tbb_milan_degraded_vs_cascadelake(self):
        """The paderborn-milan vs isambard-macs:cascadelake TBB disparity."""
        db = default_model_db()
        milan = db.efficiency("tbb", node_of("noctua2")).factor
        cl = db.efficiency("tbb", node_of("isambard-macs", "cascadelake")).factor
        assert cl > milan * 1.5

    def test_omp_better_on_x86_than_tx2(self):
        db = default_model_db()
        tx2 = db.efficiency("omp", node_of("isambard"))
        cl = db.efficiency("omp", node_of("csd3"))
        assert cl.factor > tx2.factor

    def test_compiler_adjustment(self):
        db = default_model_db()
        node = node_of("csd3")
        gcc = db.efficiency("omp", node, compiler="gcc").factor
        oneapi = db.efficiency("omp", node, compiler="intel-oneapi-compilers").factor
        assert oneapi > gcc

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            default_model_db().efficiency("fortran77", node_of("csd3"))

    def test_every_model_resolves_or_raises_cleanly(self):
        db = default_model_db()
        for sysname in SYSTEMS:
            system = get_system(sysname)
            for pname in system.partitions:
                node = node_of(sysname, pname)
                for model in PROGRAMMING_MODELS:
                    try:
                        eff = db.efficiency(model, node)
                        assert 0 < eff.factor <= 1.2
                    except UnsupportedModelError as exc:
                        assert exc.reason


class TestInterconnect:
    def test_all_systems_have_interconnects(self):
        assert set(INTERCONNECTS) == set(SYSTEMS)

    def test_transfer_alpha_beta(self):
        net = InterconnectModel("test", latency_us=2.0, bandwidth_gbs=10.0)
        t = net.transfer_seconds(1e9)
        assert t == pytest.approx(2e-6 + 0.1, rel=1e-9)

    def test_allreduce_grows_logarithmically(self):
        net = INTERCONNECTS["archer2"]
        t8 = net.allreduce_seconds(8.0, 8)
        t64 = net.allreduce_seconds(8.0, 64)
        assert t64 == pytest.approx(2 * t8, rel=1e-9)
        assert net.allreduce_seconds(8.0, 1) == 0.0

    def test_macs_testbed_is_the_slow_network(self):
        """Isambard-MACS must drag HPGMG far below CSD3 (Table 4 shape)."""
        macs = INTERCONNECTS["isambard-macs"]
        csd3 = INTERCONNECTS["csd3"]
        assert macs.latency_us > 3 * csd3.latency_us
        assert macs.efficiency < csd3.efficiency

    def test_halo_exchange_more_than_single_message(self):
        net = INTERCONNECTS["cosma8"]
        single = net.transfer_seconds(1e6)
        halo = net.halo_exchange_seconds(1e6, neighbours=6)
        assert halo > single

"""System-state telemetry during benchmark runs (the paper's future work).

Section 4: "we are planning to add functionality to capture relevant
parameters of the system state during the runtime of the benchmarks,
such as network or filesystem usage levels or energy consumption."

This module implements that capture for the simulated platforms:

* a per-node **power model** (idle + bandwidth-proportional + compute-
  proportional draw, with published-TDP-scale constants per processor),
* sampled **utilisation traces** (memory bandwidth, network, filesystem)
  over the job's simulated runtime,
* an :class:`EnergyReport` with joules, average watts and the derived
  energy efficiency (FOM per watt) that procurement studies need.

Samples are deterministic (seeded by what-is-measured) like every other
simulated quantity, so telemetry is reproducible too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.machine.clock import lognormal_factors
from repro.systems.hardware import NodeSpec

__all__ = ["PowerModel", "TelemetrySample", "TelemetryTrace", "EnergyReport",
           "capture_telemetry"]

#: idle watts per CPU socket / per GPU, roughly calibrated to the parts
#: in the study (Rome/Milan ~90 W idle/socket, Cascade Lake ~60, TX2 ~70,
#: V100 ~40 idle)
_IDLE_W = {
    "rome": 90.0, "milan": 95.0, "cascadelake": 60.0, "thunderx2": 70.0,
}
#: additional watts per socket at full memory-bandwidth utilisation
_DRAM_W = {
    "rome": 90.0, "milan": 90.0, "cascadelake": 80.0, "thunderx2": 75.0,
}
#: additional watts per socket at full compute utilisation
_COMPUTE_W = {
    "rome": 100.0, "milan": 95.0, "cascadelake": 85.0, "thunderx2": 60.0,
}
_GPU_IDLE_W = 40.0
_GPU_ACTIVE_W = 260.0  # V100 PCIe TDP 250 W; active delta above idle


class PowerModel:
    """Power draw of one node as a function of utilisation."""

    def __init__(self, node: NodeSpec):
        self.node = node

    def watts(self, mem_util: float, compute_util: float) -> float:
        """Node draw for given utilisations in [0, 1]."""
        mem_util = min(max(mem_util, 0.0), 1.0)
        compute_util = min(max(compute_util, 0.0), 1.0)
        march = self.node.processor.microarch
        sockets = self.node.sockets
        total = sockets * (
            _IDLE_W.get(march, 80.0)
            + mem_util * _DRAM_W.get(march, 85.0)
            + compute_util * _COMPUTE_W.get(march, 90.0)
        )
        if self.node.gpu is not None:
            activity = max(mem_util, compute_util)
            total += (
                self.node.gpus_per_node or 1
            ) * (_GPU_IDLE_W + activity * _GPU_ACTIVE_W)
        return total

    @property
    def idle_watts(self) -> float:
        return self.watts(0.0, 0.0)


@dataclass(frozen=True)
class TelemetrySample:
    """One sampling instant of the node/system state."""

    time_s: float
    mem_bandwidth_util: float
    network_util: float
    filesystem_util: float
    watts: float


@dataclass
class TelemetryTrace:
    """Sampled system state over one job's runtime on one node."""

    samples: List[TelemetrySample] = field(default_factory=list)
    interval_s: float = 1.0

    @property
    def duration_s(self) -> float:
        return self.samples[-1].time_s if self.samples else 0.0

    def mean(self, attr: str) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean([getattr(s, attr) for s in self.samples]))

    def peak(self, attr: str) -> float:
        if not self.samples:
            return 0.0
        return float(np.max([getattr(s, attr) for s in self.samples]))

    def joules(self) -> float:
        """Trapezoidal energy integral over the trace."""
        if len(self.samples) < 2:
            return (
                self.samples[0].watts * self.interval_s if self.samples else 0.0
            )
        t = np.array([s.time_s for s in self.samples])
        w = np.array([s.watts for s in self.samples])
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(w, t))


@dataclass
class EnergyReport:
    """What Principle 6 post-processing sees of a run's energy."""

    joules: float
    mean_watts: float
    duration_s: float
    nodes: int
    mean_mem_util: float
    mean_network_util: float
    mean_filesystem_util: float

    def fom_per_watt(self, fom: float) -> float:
        if self.mean_watts <= 0:
            raise ValueError("mean power must be positive")
        return fom / self.mean_watts

    def as_dict(self) -> Dict[str, float]:
        return {
            "joules": self.joules,
            "mean_watts": self.mean_watts,
            "duration_s": self.duration_s,
            "nodes": self.nodes,
            "mean_mem_util": self.mean_mem_util,
            "mean_network_util": self.mean_network_util,
            "mean_filesystem_util": self.mean_filesystem_util,
        }


def capture_telemetry(
    node: NodeSpec,
    duration_s: float,
    mem_util: float,
    compute_util: float = 0.2,
    comm_fraction: float = 0.05,
    num_nodes: int = 1,
    seed_context: str = "",
    interval_s: float = 1.0,
    max_samples: int = 600,
) -> "tuple[TelemetryTrace, EnergyReport]":
    """Sample the simulated system state over a job's runtime.

    ``mem_util``/``compute_util`` are the job's sustained utilisations
    (from the machine model); ``comm_fraction`` of the runtime shows up
    as network activity.  Sampling wiggle is deterministic per context.
    """
    duration_s = max(duration_s, interval_s)
    n = int(min(max(duration_s / interval_s, 2), max_samples))
    times = np.linspace(0.0, duration_s, n)
    power = PowerModel(node)
    samples = []
    wiggles = lognormal_factors(0.05, n, "telemetry", seed_context)
    for t, wiggle in zip(times, wiggles):
        m = min(mem_util * wiggle, 1.0)
        c = min(compute_util * wiggle, 1.0)
        net = min(comm_fraction * (num_nodes > 1) * wiggle * 4, 1.0)
        fs = min(0.02 * wiggle, 1.0)  # perflog writes are tiny
        samples.append(
            TelemetrySample(
                time_s=float(t),
                mem_bandwidth_util=m,
                network_util=float(net),
                filesystem_util=float(fs),
                watts=power.watts(m, c),
            )
        )
    trace = TelemetryTrace(samples=samples, interval_s=interval_s)
    report = EnergyReport(
        joules=trace.joules() * num_nodes,
        mean_watts=trace.mean("watts") * num_nodes,
        duration_s=duration_s,
        nodes=num_nodes,
        mean_mem_util=trace.mean("mem_bandwidth_util"),
        mean_network_util=trace.mean("network_util"),
        mean_filesystem_util=trace.mean("filesystem_util"),
    )
    return trace, report

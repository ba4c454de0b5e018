"""Run BabelStream on a simulated platform and emit its real output format.

The kernels execute for real on a scaled-down array (so each of the
hundreds of Figure 2 cells verifies in milliseconds), while DRAM traffic
is accounted at the *declared* array size and timed by the roofline model
with the programming-model efficiency for the platform.  Output matches
upstream BabelStream closely enough that the runner's regexes are the
ones a real deployment would use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.babelstream.kernels import KERNELS, StreamArrays, StreamKernels
from repro.machine.clock import lognormal_factors
from repro.machine.progmodel import (
    ModelEfficiency,
    ProgrammingModelDB,
    default_model_db,
)
from repro.machine.roofline import KernelProfile, RooflineModel
from repro.systems.hardware import NodeSpec

__all__ = ["KernelResult", "BabelStreamRun", "default_array_size",
           "MODEL_LABELS"]

#: model key -> the Implementation string BabelStream prints
MODEL_LABELS = {
    "omp": "OpenMP",
    "kokkos": "Kokkos",
    "cuda": "CUDA",
    "ocl": "OpenCL",
    "std-data": "STD (data-oriented)",
    "std-indices": "STD (index-oriented)",
    "std-ranges": "STD (ranges)",
    "tbb": "TBB",
    "sycl": "SYCL",
    "acc": "OpenACC",
}

#: mild per-kernel bandwidth personality: pure reads stream best, the
#: read-modify-write kernels pay write-allocate overheads
_KERNEL_FACTOR = {"Copy": 0.985, "Mul": 0.985, "Add": 1.0, "Triad": 1.0,
                  "Dot": 1.03}


def default_array_size(node: NodeSpec) -> int:
    """The paper's sizing rule, automated.

    Start from ``2^25`` elements and grow until a single array exceeds
    four times the total last-level cache, so data is guaranteed "to go
    beyond the L3 cache size and be read from the main memory".  On the
    512 MB-L3 Milan this lands exactly on the paper's ``2^29``; on the
    27.5 MB Cascade Lake it stays at ``2^25``.
    """
    exponent = 25
    while (1 << exponent) * 8 <= 4 * node.llc_bytes:
        exponent += 1
    return 1 << exponent


@dataclass
class KernelResult:
    name: str
    mbytes_per_sec: float
    min_seconds: float
    max_seconds: float
    avg_seconds: float

    @property
    def gbytes_per_sec(self) -> float:
        return self.mbytes_per_sec / 1e3


@dataclass
class BabelStreamRun:
    """One BabelStream execution on one platform."""

    node: NodeSpec
    model: str
    compiler: str = "gcc"
    array_size: Optional[int] = None
    num_times: int = 100
    verify_size: int = 4096
    model_db: ProgrammingModelDB = field(default_factory=default_model_db)
    seed_context: str = ""

    def __post_init__(self) -> None:
        if self.array_size is None:
            self.array_size = default_array_size(self.node)

    # -- execution ---------------------------------------------------------
    def execute(self) -> "tuple[List[KernelResult], float]":
        """Returns per-kernel results and total simulated seconds.

        Raises :class:`~repro.machine.progmodel.UnsupportedModelError` when
        the model cannot run on this platform (a Figure 2 ``*`` box) and
        :class:`~repro.apps.babelstream.kernels.VerificationError` if the
        real math went wrong.
        """
        eff: ModelEfficiency = self.model_db.efficiency(
            self.model, self.node, self.compiler
        )

        # real math at reduced size: correctness is size-independent
        arrays = StreamArrays.initialise(self.verify_size)
        kernels = StreamKernels(arrays)
        kernels.run_all(self.num_times)
        kernels.verify(self.num_times)

        roofline = RooflineModel(self.node)
        n = self.array_size
        results: List[KernelResult] = []
        total = 0.0
        for kname in KERNELS:
            traffic = kernels.bytes_for(kname, n)
            profile = KernelProfile(
                name=kname,
                bytes_moved=traffic,
                flops=kernels.flops_for(kname, n),
                working_set_bytes=3 * n * 8,
            )
            base = roofline.time_for(
                profile,
                bandwidth_efficiency=eff.factor * _KERNEL_FACTOR[kname],
            )
            times = [
                base * factor
                for factor in lognormal_factors(
                    0.015, self.num_times, "babelstream", self.seed_context,
                    self.model, self.compiler, kname, n,
                )
            ]
            tmin, tmax = min(times), max(times)
            tavg = sum(times) / len(times)
            total += sum(times)
            results.append(
                KernelResult(
                    name=kname,
                    mbytes_per_sec=traffic / tmin / 1e6,
                    min_seconds=tmin,
                    max_seconds=tmax,
                    avg_seconds=tavg,
                )
            )
        return results, total

    # -- reporting ------------------------------------------------------------
    def render_output(self) -> "tuple[str, float]":
        """(stdout in BabelStream's format, simulated seconds)."""
        results, total = self.execute()
        n = self.array_size
        array_mb = n * 8 / 1e6
        lines = [
            "BabelStream",
            "Version: 4.0",
            f"Implementation: {MODEL_LABELS.get(self.model, self.model)}",
            f"Running kernels {self.num_times} times",
            "Precision: double",
            f"Array size: {array_mb:.1f} MB (={array_mb / 1e3:.1f} GB)",
            f"Total size: {3 * array_mb:.1f} MB (={3 * array_mb / 1e3:.1f} GB)",
            "Function    MBytes/sec  Min (sec)   Max         Average",
        ]
        for r in results:
            lines.append(
                f"{r.name:<12}{r.mbytes_per_sec:<12.3f}{r.min_seconds:<12.5f}"
                f"{r.max_seconds:<12.5f}{r.avg_seconds:<12.5f}"
            )
        return "\n".join(lines) + "\n", total

"""The probe benchmark classes of the fleet-cold and incr-replay workloads.

They live in a module of their own because ``benchmark_source_hash``
reads the source file of every class it hashes: the file's size is part
of what the incr-replay campaign costs, so it is kept small and stable.
"""

from __future__ import annotations

import random

from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.fields import parameter

POINTS = 10
KERNELS = (("Copy", 1.00), ("Mul", 0.98), ("Add", 1.31), ("Triad", 1.29))


def fleet_probe(n_cases: int, seed: int):
    """A single-FOM probe sweeping ``n_cases`` points; FOMs from ``seed``."""
    offset = random.Random(seed).uniform(0.0, 100.0)

    class FleetProbe(RegressionTest):
        point = parameter(list(range(n_cases)))

        def fom(self) -> float:
            return 100.0 + offset + self.point % 977

        def program(self, ctx):
            return f"p {self.point}: {self.fom()}\n", 1.0

        def check_sanity(self, stdout):
            sn.assert_found(r"p", stdout)

        def extract_performance(self, stdout):
            v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
            return {"value": (v, "MB/s")}

    return FleetProbe


def inc_class(index: int, offset: float, rev: str = "r0"):
    """One class of the incremental campaign; ``rev`` is the edit knob.

    Editing ``rev_tag`` changes the class's source hash but not its
    output, so the re-executed delta must reproduce the cold perflogs
    byte for byte.
    """

    class IncProbe(RegressionTest):
        point = parameter(list(range(POINTS)))
        scale = float(index) + offset
        rev_tag = rev
        valid_prog_environs = ["*"]

        def rate(self, factor: float) -> float:
            return (100.0 + self.scale + self.point % 97) * factor

        def program(self, ctx):
            lines = [
                f"IncProbe v4.0 point={self.point}",
                "Running kernels 100 times",
                "Precision: double",
                "Function    MBytes/sec    Min (sec)   Max      Average",
            ]
            for kernel, factor in KERNELS:
                rate = self.rate(factor)
                t = 0.2 / rate
                lines.append(f"{kernel:<12s}{rate:<14.3f}{t:<12.5f}"
                             f"{t * 1.1:<9.5f}{t * 1.02:.5f}")
            lines.append("Validation: PASSED")
            return "\n".join(lines) + "\n", 1.0

        def check_sanity(self, stdout):
            sn.assert_found(r"Validation: PASSED", stdout)
            sn.assert_found(r"Running kernels \d+ times", stdout)

        def extract_performance(self, stdout):
            return {
                kernel.lower(): (sn.extractsingle(
                    rf"{kernel}\s+([\d.]+)", stdout, 1, float), "MB/s")
                for kernel, _ in KERNELS
            }

    IncProbe.__name__ = IncProbe.__qualname__ = f"IncProbe{index:03d}"
    return IncProbe

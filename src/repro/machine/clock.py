"""Deterministic randomness for reproducible simulated measurements.

Every simulated timing in the framework draws its noise from a generator
seeded by *what is being measured* -- (system, partition, benchmark, rep) --
never from global state.  Identical invocations therefore produce
bit-identical perflogs, which is the strongest possible form of the
reproducibility the paper's principles aim at, and what the test suite
asserts end-to-end.
"""

from __future__ import annotations

import hashlib
import threading
from typing import List

import numpy as np

__all__ = ["stable_seed", "DeterministicRNG", "lognormal_factors", "perturb"]


def stable_seed(*parts: object) -> int:
    """A 64-bit seed derived stably from string-able parts.

    Python's ``hash`` is salted per-process; sha256 is not.
    """
    blob = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


class DeterministicRNG:
    """A numpy Generator seeded from identification parts."""

    def __init__(self, *parts: object):
        self.seed = stable_seed(*parts)
        self.generator = np.random.default_rng(self.seed)

    def lognormal_factor(self, sigma: float = 0.01) -> float:
        """A multiplicative noise factor centred on 1.

        Run-to-run variation of well-behaved HPC benchmarks is roughly
        lognormal with a ~1% coefficient of variation; jittery platforms
        pass a larger sigma.
        """
        return float(np.exp(self.generator.normal(0.0, sigma)))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.generator.uniform(lo, hi))


#: below this many draws, :func:`lognormal_factors` runs the per-draw
#: ``DeterministicRNG`` loop: the batch's vectorized seeding has a fixed
#: cost that only pays off from here on (measured in DESIGN.md section 12)
BATCH_BREAK_EVEN = 8

# numpy's SeedSequence hash constants (pool size 4) and PCG64's 128-bit
# LCG multiplier.  NEP 19 keeps both seeding algorithms stable; the
# equivalence tests in tests/machine pin them against numpy itself.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int):
    """The (xor, multiply) pair of each of ``n`` successive hash steps."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = (init * mult) & _M32
        mults.append(init)
    return (np.array(xors, np.uint32)[:, None],
            np.array(mults, np.uint32)[:, None])


_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ (v >> _SHIFT)


def _seed_words(seeds: List[int]) -> List[List[int]]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    The pool is held word-major, shape ``(4, count)``, so each step of
    numpy's per-seed loops becomes one array operation over the batch.
    A seed below 2**32 has a single entropy word; numpy fills the rest
    of the pool as it would for a zero word, so one formula covers both.
    """
    arr = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = arr & np.uint64(_M32)
    pool[1] = arr >> np.uint64(32)
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    step = 4
    for src, others in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], _POOL_XOR[step:step + 3],
                          _POOL_MUL[step:step + 3])
        step += 3
        mixed = _MIX_L * pool[others] - _MIX_R * hashed
        pool[others] = mixed ^ (mixed >> _SHIFT)
    out = _hashmix(np.concatenate([pool, pool]), _OUT_XOR, _OUT_MUL)
    return np.ascontiguousarray(out.T).astype("<u4").view("<u8").tolist()


_thread = threading.local()


def lognormal_factors(sigma: float, count: int, *parts: object) -> List[float]:
    """``[DeterministicRNG(*parts, i).lognormal_factor(sigma) for i in
    range(count)]``, bit for bit, without a ``Generator`` per draw.

    Each draw still comes from its own stream: its seed is hashed as
    :func:`stable_seed` does (the shared ``parts`` prefix once), the
    seed sequence and PCG64 seeding run batched, and one thread-local
    generator is re-seeded through its ``state`` before each draw.
    """
    if count < BATCH_BREAK_EVEN:
        return [DeterministicRNG(*parts, i).lognormal_factor(sigma)
                for i in range(count)]
    prefix = hashlib.sha256(
        ("\x1f".join(str(p) for p in parts) + "\x1f").encode()
        if parts else b""
    )
    seeds = []
    for i in range(count):
        h = prefix.copy()
        h.update(str(i).encode())
        seeds.append(int.from_bytes(h.digest()[:8], "little"))
    return _seeded_lognormal_factors(sigma, seeds)


def _seeded_lognormal_factors(sigma: float, seeds: List[int]) -> List[float]:
    """``DeterministicRNG.lognormal_factor`` for a generator seeded with
    each of ``seeds``, re-seeding one thread-local generator per draw."""
    generator = getattr(_thread, "generator", None)
    if generator is None:
        generator = _thread.generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    factors = []
    for s_hi, s_lo, i_hi, i_lo in _seed_words(seeds):
        # pcg64_set_seed: state = (inc + seed) * MULT + inc, mod 2**128
        inc = ((i_hi << 65) | (i_lo << 1) | 1) & _M128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        factors.append(float(np.exp(generator.normal(0.0, sigma))))
    return factors


def perturb(value: float, sigma: float, *seed_parts: object) -> float:
    """Apply deterministic lognormal noise to a modelled quantity."""
    rng = DeterministicRNG(*seed_parts)
    return value * rng.lognormal_factor(sigma)

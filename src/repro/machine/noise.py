"""Seeded noise sources (an HPAS-style injector suite).

The paper's premise is that "noise is present on all modern computers" and
classifies it by origin -- CPU, cache, memory, storage, network (Ates et
al.).  This module implements independently switchable, seeded injectors:

* :class:`CpuNoise` -- multiplicative run-time jitter on compute kernels
  (frequency scaling, SMT interference, micro-architectural variation).
* :class:`OsJitter` -- additive detours: the OS steals the core for
  daemons/interrupts at a Poisson rate (Petrini's classic ASCI Q effect).
* :class:`MemoryNoise` -- jitter on achieved memory bandwidth.
* :class:`NetworkNoise` -- multiplicative jitter on message transfer and
  collective costs (shared-fabric interference, cf. Beni et al.).
* :class:`CounterNoise` -- run-to-run variation of the simulated
  ``PERF_COUNT_HW_INSTRUCTIONS`` counter.  Ritter et al. showed instruction
  counters are noisy but *less* noisy than run-time; the default levels
  preserve that ordering.

The engine's draws come from :class:`repro.util.rng.RngStreams`, so a
(seed, repetition) pair fully determines every noise realization.
Counter noise is applied at replay, not by the engine: its readings are
keyed by the replay's counter seed (:class:`CounterNoise`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.util.rng import (RngStreams, first_normals, keyed_uniforms,
                             stream_seed)
from repro.util.validation import check_nonnegative

__all__ = [
    "NoiseConfig",
    "NoiseModel",
    "CpuNoise",
    "OsJitter",
    "MemoryNoise",
    "NetworkNoise",
    "CounterNoise",
    "ZeroNoise",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Noise intensity per source; all dimensionless unless noted.

    The defaults produce a few-percent run-to-run variation of compute
    phases and a noticeably larger variation of communication, matching the
    qualitative picture in the paper's Sec. I ("run-to-run variation" of
    whole applications on the order of percent, communication micro-
    benchmarks much worse).
    """

    cpu_sigma: float = 0.01  # lognormal sigma of per-kernel compute factor
    os_jitter_rate: float = 25.0  # detours per second per core
    os_jitter_duration: float = 40e-6  # mean seconds per detour
    memory_sigma: float = 0.02  # lognormal sigma on achieved bandwidth
    network_sigma: float = 0.10  # lognormal sigma on transfer times
    counter_sigma: float = 0.004  # lognormal sigma on instruction counts
    counter_offset_instructions: float = 3.0e4  # kernel-entry/-exit count slop

    def scaled(self, factor: float) -> "NoiseConfig":
        """A config with every intensity multiplied by ``factor``."""
        check_nonnegative("factor", factor)
        return NoiseConfig(
            cpu_sigma=self.cpu_sigma * factor,
            os_jitter_rate=self.os_jitter_rate * factor,
            os_jitter_duration=self.os_jitter_duration,
            memory_sigma=self.memory_sigma * factor,
            network_sigma=self.network_sigma * factor,
            counter_sigma=self.counter_sigma * factor,
            counter_offset_instructions=self.counter_offset_instructions * factor,
        )


def ZeroNoise() -> NoiseConfig:
    """A config with every source switched off (fully deterministic runs)."""
    return NoiseConfig(
        cpu_sigma=0.0,
        os_jitter_rate=0.0,
        os_jitter_duration=0.0,
        memory_sigma=0.0,
        network_sigma=0.0,
        counter_sigma=0.0,
        counter_offset_instructions=0.0,
    )


def _lognormal_factor(rng: np.random.Generator, sigma: float) -> float:
    """A mean-1 multiplicative factor; degenerates to 1.0 at sigma=0."""
    if sigma <= 0.0:
        return 1.0
    return float(np.exp(rng.normal(-0.5 * sigma * sigma, sigma)))


class _FactorBuffer:
    """Prefetched mean-1 lognormal factors for one fixed-parameter stream.

    ``pop()`` yields exactly the sequence of values that repeated
    ``_lognormal_factor(rng, sigma)`` calls would produce on the same
    stream: ``Generator.normal(mu, sigma, size=n)`` consumes the bit
    stream identically to ``n`` scalar draws, and ``np.exp`` over the
    batch equals the scalar ``np.exp`` element by element (both verified
    bitwise in the engine equivalence tests).  Prefetching only moves
    the *raw* bit-generator position ahead; the injector-visible factor
    sequence -- the only thing consumed anywhere -- is unchanged, which
    keeps the engine's prebound ``pop`` draws (:mod:`repro.sim.fastpath`)
    and per-call :meth:`CpuNoise.factor`/:meth:`MemoryNoise.factor`
    callers interchangeable in any order on a shared :class:`NoiseModel`.
    """

    __slots__ = ("_rng", "_mu", "_sigma", "_vals")

    BATCH = 256

    def __init__(self, rng: np.random.Generator, sigma: float):
        self._rng = rng
        self._sigma = sigma
        self._mu = -0.5 * sigma * sigma
        self._vals: list = []

    def pop(self) -> float:
        vals = self._vals
        if not vals:
            # reversed so list.pop() replays the draw order
            vals[:] = np.exp(
                self._rng.normal(self._mu, self._sigma, self.BATCH)
            )[::-1].tolist()
        return vals.pop()


class CpuNoise:
    """Multiplicative compute-time jitter per (location, kernel execution)."""

    def __init__(self, rngs: RngStreams, config: NoiseConfig):
        self._rngs = rngs
        self._sigma = config.cpu_sigma
        self._buffers: dict = {}
        # bound once; the shared no-op singleton while observability is off
        self._injections = obs.counter("noise.injections", kind="cpu")

    def factor(self, rank: int, thread: int) -> float:
        self._injections.inc()
        if self._sigma <= 0.0:
            return 1.0
        return self.buffer(rank, thread).pop()

    def buffer(self, rank: int, thread: int) -> _FactorBuffer:
        """The location's prefetched factor stream (requires sigma > 0)."""
        key = (rank, thread)
        buf = self._buffers.get(key)
        if buf is None:
            rng = self._rngs.get("cpu-noise", rank=rank, thread=thread)
            buf = _FactorBuffer(rng, self._sigma)
            self._buffers[key] = buf
        return buf


class OsJitter:
    """Additive OS detour time accumulated over a compute interval."""

    def __init__(self, rngs: RngStreams, config: NoiseConfig):
        self._rngs = rngs
        self._rate = config.os_jitter_rate
        self._duration = config.os_jitter_duration
        self._injections = obs.counter("noise.injections", kind="os")

    def detour_time(self, rank: int, thread: int, interval: float) -> float:
        """Total stolen time while running ``interval`` seconds of work."""
        check_nonnegative("interval", interval)
        if self._rate <= 0.0 or self._duration <= 0.0 or interval <= 0.0:
            return 0.0
        rng = self._rngs.get("os-jitter", rank=rank, thread=thread)
        n = rng.poisson(self._rate * interval)
        if n == 0:
            return 0.0
        self._injections.add(int(n))
        return float(rng.exponential(self._duration, size=n).sum())


class MemoryNoise:
    """Multiplicative jitter on achieved memory bandwidth."""

    def __init__(self, rngs: RngStreams, config: NoiseConfig):
        self._rngs = rngs
        self._sigma = config.memory_sigma
        self._buffers: dict = {}
        self._injections = obs.counter("noise.injections", kind="memory")

    def factor(self, numa_id: int) -> float:
        self._injections.inc()
        if self._sigma <= 0.0:
            return 1.0
        return self.buffer(numa_id).pop()

    def buffer(self, numa_id: int) -> _FactorBuffer:
        """The domain's prefetched factor stream (requires sigma > 0)."""
        buf = self._buffers.get(numa_id)
        if buf is None:
            rng = self._rngs.get("mem-noise", numa=numa_id)
            buf = _FactorBuffer(rng, self._sigma)
            self._buffers[numa_id] = buf
        return buf


class NetworkNoise:
    """Multiplicative jitter on message / collective transfer times.

    Key ``k``'s factors are the draws of its own stream
    ``rngs.get("net-noise", key=k)``.  The engine's keys are
    ``(kind, id)`` pairs counting up from 0 -- a message's match id, a
    collective's sequence number -- and nearly every key is drawn once.
    So first draws are derived ahead for a block of consecutive ids by
    :func:`repro.util.rng.first_normals` (bit for bit the stream's first
    draw, without a generator per key); blocks hold 16, 32, 64 and 128
    ids, then 256, so a small program derives few unused keys.  A key
    drawn again continues on its own generator, advanced past the first
    draw.  Any other key shape goes straight to its own generator.
    """

    def __init__(self, rngs: RngStreams, config: NoiseConfig):
        self._rngs = rngs
        self._sigma = config.network_sigma
        self._mu = -0.5 * self._sigma * self._sigma
        self._first: dict = {}  # key -> first factor, derived, not yet drawn
        self._blocks: set = set()  # (kind, first id) of each derived block
        self._gens: dict = {}  # key -> its own stream, for later draws
        self._scratch = np.random.Generator(np.random.PCG64(0))
        self._injections = obs.counter("noise.injections", kind="network")

    def factor(self, key) -> float:
        self._injections.inc()
        if self._sigma <= 0.0:
            return 1.0
        f = self._first.pop(key, None)
        if f is not None:
            return f
        rng = self._gens.get(key)
        if rng is None:
            block = _id_block(key)
            if block is not None and (key[0], block[0]) not in self._blocks:
                self._derive(key[0], *block)
                return self._first.pop(key)
            rng = self._rngs.fresh("net-noise", key=key)
            if block is not None:
                rng.normal(self._mu, self._sigma)  # the draw its block gave
            self._gens[key] = rng
        return _lognormal_factor(rng, self._sigma)

    def _derive(self, kind, start: int, stop: int) -> None:
        self._blocks.add((kind, start))
        keys = [(kind, i) for i in range(start, stop)]
        base = self._rngs.seed
        seeds = [stream_seed(base, "net-noise", ("key", k)) for k in keys]
        normals = first_normals(seeds, self._mu, self._sigma, self._scratch)
        self._first.update(zip(keys, np.exp(normals).tolist()))


_BLOCK_MIN, _BLOCK_MAX = 16, 256
_RAMP = _BLOCK_MAX - _BLOCK_MIN  # ids in the doubling blocks 16 + ... + 128


def _id_block(key) -> Optional[Tuple[int, int]]:
    """``[start, stop)`` of the id block holding a ``(kind, id)`` key."""
    if type(key) is not tuple or len(key) != 2 or type(key[1]) is not int \
            or key[1] < 0:
        return None
    i = key[1]
    if i < _RAMP:
        b = (i // _BLOCK_MIN + 1).bit_length() - 1
        start = _BLOCK_MIN * ((1 << b) - 1)
        return start, start + (_BLOCK_MIN << b)
    start = i - (i - _RAMP) % _BLOCK_MAX
    return start, start + _BLOCK_MAX


class CounterNoise:
    """Run-to-run variation of the simulated instruction counter.

    Keyed draws: reading ``i`` of location ``(rank, thread)`` under
    counter seed ``seed`` is a pure function of the three.  Its draws are
    the :func:`~repro.util.rng.keyed_uniforms` of the location's stream
    key ``stream_seed(seed, "ctr-noise", rank, thread)`` at counters
    ``4i`` and ``4i + 1`` (one Box--Muller normal: the mean-1 lognormal
    factor) and ``4i + 2`` (``-log1p(-u)``: the exponential offset).  So a
    location's first readings do not depend on how many follow, a whole
    trace's readings are one NumPy pass, and a zero ``counter_sigma``
    leaves the offsets as they were (and the reverse).
    """

    def __init__(self, seed: int, config: NoiseConfig):
        self.seed = int(seed)
        self._sigma = config.counter_sigma
        self._offset = config.counter_offset_instructions
        self._injections = obs.counter("noise.injections", kind="counter")

    def key(self, rank: int, thread: int) -> int:
        """The stream key of location ``(rank, thread)``."""
        return stream_seed(self.seed, "ctr-noise", rank, thread)

    def readings(self, keys, index, instructions) -> np.ndarray:
        """Counter readings for true counts ``instructions``: element ``j``
        is reading ``index[j]`` of the location whose :meth:`key` is
        ``keys[j]`` (1-d sequences of one length)."""
        out = np.array(instructions, dtype=np.float64)
        self._injections.add(len(out))
        counter = np.array(index, dtype=np.uint64)
        counter <<= np.uint64(2)
        sigma = self._sigma
        # in place, so a trace-wide pass holds few arrays of its length
        if sigma > 0.0:
            z = np.log(keyed_uniforms(keys, counter))
            z *= -2.0
            np.sqrt(z, out=z)
            c = keyed_uniforms(keys, counter | np.uint64(1))
            c *= 2.0 * np.pi
            np.cos(c, out=c)
            z *= c  # one standard normal per reading (Box--Muller)
            del c
            z *= sigma
            z += -0.5 * sigma * sigma
            out *= np.exp(z, out=z)
        if self._offset > 0.0:
            u = keyed_uniforms(keys, counter | np.uint64(2))
            np.negative(u, out=u)
            np.log1p(u, out=u)
            u *= self._offset
            out -= u
        return out

    def perturb_many(self, locations, counts, instructions) -> np.ndarray:
        """Readings of location-major true counts: the first ``counts[0]``
        elements of ``instructions`` are readings ``0, 1, ...`` of
        ``locations[0]`` (a ``(rank, thread)`` pair), the next
        ``counts[1]`` those of ``locations[1]``, and so on."""
        counts = np.asarray(counts, dtype=np.int64)
        keys = np.array([self.key(r, t) for r, t in locations],
                        dtype=np.uint64)
        index = np.arange(int(counts.sum()))
        index -= np.repeat(np.cumsum(counts) - counts, counts)
        return self.readings(np.repeat(keys, counts), index, instructions)


class NoiseModel:
    """Facade bundling the engine's injectors behind one seeded object."""

    def __init__(self, config: NoiseConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        rngs = RngStreams(seed)
        self.rngs = rngs
        self.cpu = CpuNoise(rngs, config)
        self.os = OsJitter(rngs, config)
        self.memory = MemoryNoise(rngs, config)
        self.network = NetworkNoise(rngs, config)

    def compute_time(self, rank: int, thread: int, base: float) -> float:
        """Noisy duration of a compute interval of noiseless length ``base``."""
        check_nonnegative("base", base)
        noisy = base * self.cpu.factor(rank, thread)
        return noisy + self.os.detour_time(rank, thread, noisy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NoiseModel(seed={self.seed}, config={self.config})"

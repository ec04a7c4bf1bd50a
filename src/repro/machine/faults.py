"""Seeded fault injectors for the simulated machine.

Where :mod:`repro.machine.noise` perturbs *costs*, this module injects
*faults*: discrete failure events of the kinds HPC fault-tolerance work
cares about (fail-stop rank crashes, lost or duplicated messages,
degraded links, persistently slow cores).  The injectors are
independently switchable and all draws come from
:class:`repro.util.rng.RngStreams`, so a single fault seed fully
determines the fault realization -- the property the fault-sweep
experiment (:mod:`repro.experiments.faultsweep`) relies on to ask the
paper's bit-identity question under faults instead of noise.

Noise independence
------------------
Every injector keys its draws on *logical* coordinates that do not
depend on the noise realization:

* :class:`RankCrash` triggers on a drawn per-rank **progress point**
  (the index of the rank's next program action) by default, not on a
  wall-clock time -- the same program position crashes under every noise
  seed.  A ``"time"`` trigger mode exists for studying the (noise-
  dependent) alternative.
* :class:`MessageLoss` / :class:`MessageDuplication` draw per message
  occurrence on a channel -- ``(src, dst, tag, k)`` for the k-th matched
  message of that channel -- which is program-order deterministic.
* :class:`LinkDegradation` draws once per ordered ``(src, dst)`` pair,
  :class:`StragglerCore` once per ``(rank, thread)``.

All draws use :meth:`RngStreams.fresh`, so they are position-independent:
the recovery protocol's ghost replay (:mod:`repro.sim.recovery`) re-draws
the same values no matter how often an execution prefix is re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro import obs
from repro.util.rng import RngStreams
from repro.util.validation import check_nonnegative

__all__ = [
    "FaultConfig",
    "CrashPoint",
    "RankCrash",
    "MessageLoss",
    "MessageDuplication",
    "LinkDegradation",
    "StragglerCore",
    "FaultModel",
]

#: valid crash trigger modes
_TRIGGERS = ("progress", "time")


@dataclass(frozen=True)
class FaultConfig:
    """Fault intensity per injector kind; everything off by default.

    Probabilities are per drawing unit (rank, message, link, core); the
    companion magnitudes describe the fault's effect on virtual time.
    """

    #: per-rank probability of one fail-stop crash during the run
    crash_probability: float = 0.0
    #: ``"progress"`` (noise-independent, default) or ``"time"``
    crash_trigger: str = "progress"
    #: progress window (program action index) crash points are drawn from
    crash_max_progress: int = 400
    #: sim-time window (seconds) for ``"time"``-triggered crash points
    crash_max_time: float = 1.0
    #: per-message probability that the first delivery attempt is lost
    message_loss_probability: float = 0.0
    #: retransmit timeout added to a lost message's delivery (seconds)
    message_loss_timeout: float = 150e-6
    #: per-message probability of a duplicate delivery
    message_duplication_probability: float = 0.0
    #: receiver-side cost of discarding the duplicate (seconds)
    message_duplication_overhead: float = 3e-6
    #: per-ordered-link probability of a persistent bandwidth collapse
    link_degradation_probability: float = 0.0
    #: transfer-time multiplier on a degraded link
    link_degradation_factor: float = 8.0
    #: per-core probability of being a persistent straggler
    straggler_probability: float = 0.0
    #: compute-time multiplier on a straggler core
    straggler_factor: float = 1.35

    def __post_init__(self):
        if self.crash_trigger not in _TRIGGERS:
            raise ValueError(
                f"crash_trigger must be one of {_TRIGGERS}, "
                f"got {self.crash_trigger!r}"
            )
        for name in ("crash_probability", "message_loss_probability",
                     "message_duplication_probability",
                     "link_degradation_probability", "straggler_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        check_nonnegative("message_loss_timeout", self.message_loss_timeout)
        check_nonnegative("message_duplication_overhead",
                          self.message_duplication_overhead)

    def scaled(self, factor: float) -> "FaultConfig":
        """A config with every fault probability multiplied by ``factor``."""
        check_nonnegative("factor", factor)

        def clamp(p: float) -> float:
            return min(1.0, p * factor)

        return FaultConfig(
            crash_probability=clamp(self.crash_probability),
            crash_trigger=self.crash_trigger,
            crash_max_progress=self.crash_max_progress,
            crash_max_time=self.crash_max_time,
            message_loss_probability=clamp(self.message_loss_probability),
            message_loss_timeout=self.message_loss_timeout,
            message_duplication_probability=clamp(
                self.message_duplication_probability),
            message_duplication_overhead=self.message_duplication_overhead,
            link_degradation_probability=clamp(
                self.link_degradation_probability),
            link_degradation_factor=self.link_degradation_factor,
            straggler_probability=clamp(self.straggler_probability),
            straggler_factor=self.straggler_factor,
        )

    @property
    def any_enabled(self) -> bool:
        return any((
            self.crash_probability > 0.0,
            self.message_loss_probability > 0.0,
            self.message_duplication_probability > 0.0,
            self.link_degradation_probability > 0.0,
            self.straggler_probability > 0.0,
        ))


@dataclass(frozen=True)
class CrashPoint:
    """One drawn fail-stop event.

    ``at`` is a program action index for the ``"progress"`` trigger and a
    sim time (seconds) for the ``"time"`` trigger.  ``key`` identifies
    the crash across recovery attempts (each drawn crash fires at most
    once per run).
    """

    rank: int
    trigger: str
    at: Union[int, float]

    @property
    def key(self) -> Tuple[int, str]:
        return (self.rank, self.trigger)


class RankCrash:
    """Fail-stop crashes, one potential crash per rank."""

    def __init__(self, rngs: RngStreams, config: FaultConfig):
        self._rngs = rngs
        self._config = config
        self._injections = obs.counter("faults.injections", kind="crash")

    def schedule(self, n_ranks: int) -> Dict[int, CrashPoint]:
        """Drawn crash points per rank (only ranks that do crash)."""
        cfg = self._config
        out: Dict[int, CrashPoint] = {}
        if cfg.crash_probability <= 0.0:
            return out
        for rank in range(n_ranks):
            rng = self._rngs.fresh("crash", rank=rank)
            if rng.random() >= cfg.crash_probability:
                continue
            if cfg.crash_trigger == "progress":
                at: Union[int, float] = int(
                    rng.integers(1, max(2, cfg.crash_max_progress)))
            else:
                at = float(rng.uniform(0.0, cfg.crash_max_time))
            out[rank] = CrashPoint(rank, cfg.crash_trigger, at)
            self._injections.inc()
        return out


class MessageLoss:
    """Per-message Bernoulli loss; lost messages are retransmitted late."""

    def __init__(self, rngs: RngStreams, config: FaultConfig):
        self._rngs = rngs
        self._p = config.message_loss_probability
        self._injections = obs.counter("faults.injections", kind="msg_loss")

    def lost(self, src: int, dst: int, tag: int, occurrence: int) -> bool:
        if self._p <= 0.0:
            return False
        rng = self._rngs.fresh("msg-loss", src=src, dst=dst, tag=tag,
                               k=occurrence)
        hit = rng.random() < self._p
        if hit:
            self._injections.inc()
        return hit


class MessageDuplication:
    """Per-message Bernoulli duplication; the receiver pays to discard."""

    def __init__(self, rngs: RngStreams, config: FaultConfig):
        self._rngs = rngs
        self._p = config.message_duplication_probability
        self._injections = obs.counter("faults.injections", kind="msg_dup")

    def duplicated(self, src: int, dst: int, tag: int, occurrence: int) -> bool:
        if self._p <= 0.0:
            return False
        rng = self._rngs.fresh("msg-dup", src=src, dst=dst, tag=tag,
                               k=occurrence)
        hit = rng.random() < self._p
        if hit:
            self._injections.inc()
        return hit


class LinkDegradation:
    """Persistent bandwidth collapse on drawn ordered links."""

    def __init__(self, rngs: RngStreams, config: FaultConfig):
        self._rngs = rngs
        self._p = config.link_degradation_probability
        self._factor = config.link_degradation_factor
        self._cache: Dict[Tuple[int, int], float] = {}
        self._injections = obs.counter("faults.injections", kind="link")

    def factor(self, src: int, dst: int) -> float:
        key = (src, dst)
        f = self._cache.get(key)
        if f is None:
            f = 1.0
            if self._p > 0.0:
                rng = self._rngs.fresh("link", src=src, dst=dst)
                if rng.random() < self._p:
                    f = self._factor
                    self._injections.inc()
            self._cache[key] = f
        return f


class StragglerCore:
    """A persistently slow core: compute on it takes a constant factor longer."""

    def __init__(self, rngs: RngStreams, config: FaultConfig):
        self._rngs = rngs
        self._p = config.straggler_probability
        self._factor = config.straggler_factor
        self._cache: Dict[Tuple[int, int], float] = {}
        self._injections = obs.counter("faults.injections", kind="straggler")

    def factor(self, rank: int, thread: int) -> float:
        key = (rank, thread)
        f = self._cache.get(key)
        if f is None:
            f = 1.0
            if self._p > 0.0:
                rng = self._rngs.fresh("straggler", rank=rank, thread=thread)
                if rng.random() < self._p:
                    f = self._factor
                    self._injections.inc()
            self._cache[key] = f
        return f


class FaultModel:
    """Facade bundling all fault injectors behind one seeded object.

    A single instance serves a whole recovery run (all restart attempts):
    its draws are position-independent, so ghost replays observe the same
    fault realization, and the memoized link/straggler factors stay
    stable across attempts.
    """

    def __init__(self, config: FaultConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        rngs = RngStreams(seed)
        self.rngs = rngs
        self.crash = RankCrash(rngs, config)
        self.loss = MessageLoss(rngs, config)
        self.duplication = MessageDuplication(rngs, config)
        self.link = LinkDegradation(rngs, config)
        self.straggler = StragglerCore(rngs, config)
        self._schedule: Optional[Dict[int, CrashPoint]] = None

    def crash_schedule(self, n_ranks: int) -> Dict[int, CrashPoint]:
        """The run's crash schedule (memoized; pure function of the seed)."""
        if self._schedule is None:
            self._schedule = self.crash.schedule(n_ranks)
        return self._schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultModel(seed={self.seed}, config={self.config})"

"""Deterministic, seed-driven fault injection for the build service.

The group executor behind the worker pool and the shard executor
promises a timeout → restart → retry → serial-fallback ladder, but a
promise about *infrastructure failure* handling is worthless until
something actually fails.  This module is the failure generator: an
env-gated hook that makes pool/shard children **crash**, **hang** or
**run slow** on demand, deterministically, so the fault suite
(``tests/service/test_faults.py``) drives the ladder instead of
trusting it.

Design constraints, and how they are met:

* **Crosses process boundaries.**  Faults must fire inside pool worker
  processes and shard processes, which inherit nothing from the test
  but their environment — so the plan travels as JSON in the
  ``CALIBRO_FAULTS`` environment variable (:meth:`FaultPlan.to_env`,
  :func:`armed`), and :func:`maybe_inject` re-reads it wherever it runs.
* **Deterministic.**  Which task draws which fault is a pure function of
  ``(seed, site, key)`` — a SHA-256 hash mapped to ``[0, 1)`` and
  compared against the configured rates — so a failing scenario replays
  exactly, in any process, on any host.
* **Children only, by default.**  A fault that fired in the supervising
  process would sink the build (and the test runner) instead of
  exercising the ladder; ``in_parent=False`` keeps faults inside pool
  and shard children, which is also what makes the serial fallback a
  guaranteed clean landing.
* **Off means off.**  Without the environment variable the single check
  in :func:`maybe_inject` is one dict lookup; production builds pay
  nothing.

``armed`` is the test-facing context manager::

    with armed(FaultPlan(seed=1, crash=1.0, match=("pool:0",))):
        pool.map_groups(worker, payloads)   # task 0 dies in its child
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro import observability as obs
from repro.core.errors import ServiceError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "arm",
    "armed",
    "disarm",
    "maybe_inject",
]

#: Environment variable carrying the JSON fault plan (see
#: :meth:`FaultPlan.to_env`).  Set = armed; absent/empty = disabled.
FAULTS_ENV = "CALIBRO_FAULTS"

#: Exit status of a crash-injected worker — distinct from common library
#: statuses so a test can tell an injected death from a real bug.
CRASH_EXIT_CODE = 73


def _hash01(seed: int, text: str) -> float:
    """Map ``(seed, text)`` to a deterministic float in ``[0, 1)``."""
    digest = hashlib.sha256(f"{seed}:{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible chaos scenario.

    ``crash``/``hang``/``slow`` are probability masses over disjoint
    slices of the per-task hash draw (their sum must stay within 1.0);
    ``match`` restricts firing to exact ``"site:key"`` strings — the
    precise scripting mode the fault suite uses (rates of 1.0 plus a
    match list = "exactly these tasks fail").
    """

    seed: int = 0
    #: Probability that a matched task's worker dies (``os._exit``).
    crash: float = 0.0
    #: Probability that a matched task sleeps ``hang_seconds``.
    hang: float = 0.0
    #: Probability that a matched task sleeps ``slow_seconds`` first.
    slow: float = 0.0
    #: Probability that a matched task raises :class:`ServiceError`
    #: instead of running.  Unlike ``crash`` this is safe to fire in the
    #: supervising process (``in_parent=True``) — a raise unwinds, a
    #: crash exits — which is what the serve front door's ``serve:`` site
    #: uses to prove a failed build becomes a structured ``error``
    #: response instead of a wedged accept loop.
    error: float = 0.0
    hang_seconds: float = 30.0
    slow_seconds: float = 0.05
    #: Exact ``"site:key"`` strings eligible to fire; empty = all.
    match: tuple[str, ...] = field(default_factory=tuple)
    #: Allow firing outside pool/shard children (almost never what a
    #: test wants — a parent-side crash kills the supervisor itself).
    in_parent: bool = False

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "slow", "error"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ServiceError(f"fault rate {name} must be in [0, 1], got {rate}")
        if self.crash + self.hang + self.slow + self.error > 1.0 + 1e-9:
            raise ServiceError("fault rates must sum to at most 1.0")
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ServiceError("fault durations must be >= 0")

    # -- the wire format (environment JSON) ---------------------------------

    def to_spec(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "crash": self.crash,
            "hang": self.hang,
            "slow": self.slow,
            "error": self.error,
            "hang_seconds": self.hang_seconds,
            "slow_seconds": self.slow_seconds,
            "match": list(self.match),
            "in_parent": self.in_parent,
        }

    @classmethod
    def from_spec(cls, data: dict[str, object]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ServiceError(f"fault plan must be a mapping, got {type(data).__name__}")
        payload = dict(data)
        match = payload.pop("match", [])
        if not isinstance(match, (list, tuple)):
            raise ServiceError("fault plan 'match' must be a list of site:key strings")
        known = {"seed", "crash", "hang", "slow", "error", "hang_seconds",
                 "slow_seconds", "in_parent"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(f"unknown fault plan keys: {', '.join(unknown)}")
        return cls(match=tuple(str(m) for m in match), **payload)

    def to_env(self) -> str:
        """The compact JSON ``CALIBRO_FAULTS`` carries across processes."""
        return json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_env(cls, environ: "os._Environ[str] | dict[str, str] | None" = None) -> "FaultPlan | None":
        """The armed plan, or ``None`` when faults are off.  A malformed
        value raises :class:`ServiceError` — a typo'd plan must not
        silently test nothing."""
        raw = (environ if environ is not None else os.environ).get(FAULTS_ENV, "")
        if not raw:
            return None
        try:
            return cls.from_spec(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{FAULTS_ENV} is not valid JSON: {exc}") from exc

    # -- the deterministic draw ---------------------------------------------

    def decide(self, site: str, key: str) -> str | None:
        """The fault (``"crash"``/``"hang"``/``"slow"``) this task draws,
        or ``None``.  Pure function of the plan and ``site:key``."""
        full = f"{site}:{key}"
        if self.match and full not in self.match:
            return None
        draw = _hash01(self.seed, full)
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        if draw < self.crash + self.hang + self.slow:
            return "slow"
        if draw < self.crash + self.hang + self.slow + self.error:
            return "error"
        return None


# -- arming / firing ----------------------------------------------------------


def arm(plan: FaultPlan) -> None:
    os.environ[FAULTS_ENV] = plan.to_env()


def disarm() -> None:
    os.environ.pop(FAULTS_ENV, None)


@contextlib.contextmanager
def armed(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block (test harness)."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def maybe_inject(site: str, key: str) -> str | None:
    """Fire the armed fault for ``site:key``, if any.

    The group executor calls it in its children (once per dispatch
    unit at site ``pool``/``shard``, once per group at site ``group``);
    the serve front door, the ledger and the disk cache call it in the
    supervising process.  Crashes never return; hangs/slows sleep then
    return the fault name; a clean draw returns ``None``.  By default
    nothing fires in the supervising process (``in_parent``), so serial
    fallbacks always complete.
    """
    plan = FaultPlan.from_env()
    if plan is None:
        return None
    action = plan.decide(site, key)
    if action is None:
        return None
    if not plan.in_parent and multiprocessing.parent_process() is None:
        return None
    # Registered on the local tracer when one exists — traced executor
    # children install their own, so injected counts travel back.
    obs.counter_add("service.faults.injected")
    if action == "crash":
        os._exit(CRASH_EXIT_CODE)
    if action == "error":
        raise ServiceError(f"injected fault at {site}:{key}")
    time.sleep(plan.hang_seconds if action == "hang" else plan.slow_seconds)
    return action

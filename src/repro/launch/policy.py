"""LaunchPolicy: the resilience knobs a launch (or a whole RM) runs under.

The fault model (:mod:`repro.cluster.faults`) makes daemons die, stall and
straggle; this policy is the recovery structure that survives them --
designed into the launch layer per the "Scaling Reliably" argument (see
PAPERS.md), not bolted on by callers:

* **per-daemon timeout** -- a spawn attempt (image load + fork/rsh) that
  exceeds ``per_daemon_timeout`` is interrupted and counted as a failure
  (catches stragglers and FS stalls, which never return an error on their
  own);
* **bounded retry with backoff** -- each failed attempt is retried up to
  ``max_retries`` times, sleeping ``retry_backoff * 2**k`` between attempts
  (rides out transient rsh/link faults);
* **node blacklisting** -- a node whose retries are exhausted is added to
  the shared blacklist: later spawns skip it instantly and the resource
  manager never allocates it again within the session
  (:meth:`~repro.rm.base.ResourceManager.free_nodes`);
* **min-daemon fraction** -- the session-level verdict: a partial daemon
  set with at least ``ceil(min_daemon_fraction * requested)`` survivors
  proceeds in the ``DEGRADED`` session state; below it the launch raises
  and the session lands in ``FAILED`` with its nodes reclaimed;
* **handshake timeout** -- bounds the FE<->master-BE handshake so a daemon
  killed mid-handshake fails the session instead of hanging it forever
  (``0`` = wait forever, the classic behaviour);
* **fail-fast** -- stop the launch at the first daemon whose attempts
  are exhausted: the strategy records the failure in ``report.failed`` /
  ``report.failure`` and hands the exception back as
  ``LaunchResult.error`` (rsh loops stop walking, rm-bulk reaps the
  partial set and re-raises), instead of continuing past the hole.

:data:`LEGACY` is the preset every launch without an explicit policy runs
under -- one attempt, no timeout, no blacklist, fail-fast, a complete set
required: the ad-hoc rsh loop and the all-or-nothing RM job step. It is a
policy like any other; there is no separate legacy spawn path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LEGACY", "LaunchPolicy"]


@dataclass(frozen=True)
class LaunchPolicy:
    """Resilience policy for daemon launches (see module docstring)."""

    #: interrupt a single daemon's spawn attempt after this many virtual
    #: seconds (0 = no per-daemon timeout)
    per_daemon_timeout: float = 0.0
    #: extra spawn attempts per daemon after the first fails
    max_retries: int = 1
    #: base backoff between attempts; doubles per retry (exponential)
    retry_backoff: float = 0.05
    #: proceed (DEGRADED) when at least this fraction of daemons came up
    min_daemon_fraction: float = 1.0
    #: condemn nodes whose retries are exhausted (skip + never re-allocate)
    blacklist_nodes: bool = True
    #: bound the FE<->master-BE handshake (0 = wait forever, classic)
    handshake_timeout: float = 0.0
    #: stop the launch at the first exhausted daemon (see module docstring)
    fail_fast: bool = False

    def __post_init__(self) -> None:
        for name in ("max_retries", "per_daemon_timeout", "retry_backoff",
                     "handshake_timeout"):
            if getattr(self, name) < 0:
                raise ValueError(f"LaunchPolicy.{name} must be >= 0, "
                                 f"got {getattr(self, name)!r}")
        if not 0 < self.min_daemon_fraction <= 1:
            raise ValueError(
                "LaunchPolicy.min_daemon_fraction must be in (0, 1], "
                f"got {self.min_daemon_fraction!r}")

    def min_daemons(self, requested: int) -> int:
        """Smallest acceptable daemon count for a ``requested``-wide set."""
        return max(1, math.ceil(self.min_daemon_fraction * requested))


#: the classic contract: one attempt per daemon, no timeout, no blacklist,
#: stop at the first failure, and only a complete set is accepted
LEGACY = LaunchPolicy(max_retries=0, blacklist_nodes=False, fail_fast=True)

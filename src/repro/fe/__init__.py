"""repro.fe -- the LaunchMON front-end API (Section 3.2).

The FE API serves the tool client: it launches or attaches to an RM
process, co-locates back-end daemons with application tasks, launches
middleware daemons, fetches the RPDTAB, transfers tool data, controls the
job, and binds all of it through a *session* abstraction -- the seven
requirements enumerated in the paper.

Following the paper's design refinement, control/interaction and daemon
co-location are fused into single operations: :meth:`ToolFrontEnd.launch_and_spawn`
(``launchAndSpawn``) and :meth:`ToolFrontEnd.attach_and_spawn`
(``attachAndSpawn``); there are deliberately no separated variants.
Pack/unpack registration enables piggybacking tool data on LaunchMON's own
handshake exchanges.

Two faces of the same API:

* blocking -- drive a :class:`ToolFrontEnd` generator yourself (one session
  at a time, the original C API's shape);
* non-blocking -- submit operations to a :class:`ToolService` and get back
  :class:`SessionHandle` futures, with ``LMON_fe_regStatusCB``-style status
  callbacks on every :class:`SessionState` transition. This is the
  multi-tenant face: N sessions interleave on one cluster, queueing FIFO
  for nodes and (optionally) for service admission.

Sessions carry their spawn cost breakdown (``session.launch_report`` /
``SessionHandle.launch_report``, a :class:`~repro.launch.LaunchReport`
with per-phase and per-daemon-index attribution). When the resource
manager runs under a :class:`~repro.launch.LaunchPolicy` that accepts a
partial set and nodes crash mid-launch, a daemon set that meets
``min_daemon_fraction`` lands the session in the ``DEGRADED`` state
instead of failing it; see :mod:`repro.fe.session` for
the full state machine and ``docs/failure-modes.md`` for the fault model.
"""

from repro.fe.session import LMONSession, SessionState, StatusCallback
from repro.fe.api import FrontEndError, ToolFrontEnd
from repro.fe.service import SessionHandle, ToolService

__all__ = [
    "FrontEndError",
    "LMONSession",
    "SessionHandle",
    "SessionState",
    "StatusCallback",
    "ToolFrontEnd",
    "ToolService",
]

"""Per-layer tracing from outside the program: wrap each layer's entry
points, keep spans in memory, and derive the per-layer metrics.

Nothing here edits the library. :meth:`Tracer.install` swaps each entry
point in :data:`ENTRY_POINTS` for a wrapper (on the class, or in every
``repro`` module that imported the function) and :meth:`Tracer.uninstall`
puts the originals back, so an untraced run executes no wrapper at all.

Layers are generator coroutines, so a generator entry point gets one
span per *resume*: the host time from the simulator sending into it
until it yields its next event. A plain call gets one span. A layer's
self time is the time of its spans minus the time of the spans nested in
them; CPython GC pauses are spans of their own (layer ``gc``), so self
times exclude them. ``Simulator.run`` is the root span, which makes the
kernel's self time (``simx``) the run interval minus every layer span in
it. Re-entrant calls of a plain entry point into its own layer (the
recursive message-size walk) are counted but not spanned again, which
keeps the wrapper's own cost off the recursion.
"""

from __future__ import annotations

import gc
import importlib
import pkgutil
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "EntryPoint", "KERNEL", "NON_KERNEL_LAYERS",
           "Tracer", "layer_metrics", "layer_totals", "leftover_wrappers"]

KERNEL = "simx"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module:Class.attr`` or ``module:function``.

    ``layer`` is where its self time goes; ``None`` makes it count-only
    (a hot call with no interesting duration of its own). ``sid`` is the
    position of the argument naming the session or launch (an int, or an
    object with ``.id``), recorded on the span. ``on_call`` and
    ``on_return`` are hooks for counts that need the arguments or the
    result.
    """

    target: str
    layer: Optional[str]
    sid: Optional[int] = None
    on_call: Optional[Callable[["Tracer", tuple], None]] = None
    on_return: Optional[Callable[["Tracer", Any], None]] = None

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def _count_launch_retries(tracer: "Tracer", result: Any) -> None:
    report = getattr(result, "report", None)
    if report is not None:
        tracer.counts["launch.retries"] += report.n_retried


def _count_checkpoint_bytes(tracer: "Tracer", args: tuple) -> None:
    tracer.counts["ctl.checkpoint.bytes"] += len(args[1])


def _methods(module: str, cls: str, layer: Optional[str], *names: str,
             sid: Optional[int] = None) -> List[EntryPoint]:
    return [EntryPoint(f"{module}:{cls}.{n}", layer, sid) for n in names]


#: every traced boundary, grouped by layer (the ``repro.<pkg>`` names)
ENTRY_POINTS: Tuple[EntryPoint, ...] = tuple(
    [EntryPoint("repro.simx.core:Simulator.run", KERNEL),
     EntryPoint("repro.simx.core:Simulator.process", None)]
    # kernel primitives a layer calls count as kernel time, not the layer's
    + _methods("repro.simx.channels", "Store", KERNEL, "put", "get")
    + _methods("repro.simx.channels", "Channel", KERNEL, "send", "recv")
    + _methods("repro.simx.resources", "Resource", KERNEL, "request",
               "release")
    + [EntryPoint("repro.cluster.network:message_size",
                  "cluster.message_size")]
    + _methods("repro.cluster.network", "Network", "cluster",
               "transfer_time", "connect")
    + _methods("repro.cluster.node", "Node", "cluster",
               "fork_exec", "rsh_spawn")
    + _methods("repro.cluster.cluster", "SharedFilesystem", "cluster",
               "load_image", "stage_images")
    + _methods("repro.rm.base", "ResourceManager", "rm",
               "allocate", "allocate_async", "release")
    + _methods("repro.rm.slurm", "SlurmRM", "rm", "create_launcher",
               "run_launcher", "launch_job", "spawn_daemons",
               "spawn_on_allocation")
    + [EntryPoint(f"repro.launch.strategy:{cls}.launch", "launch",
                  on_return=_count_launch_retries)
       for cls in ("SerialRshStrategy", "TreeRshStrategy", "RmBulkStrategy")]
    + _methods("repro.engine.driver", "LaunchMONEngine", "engine",
               "start", "launch_and_spawn", "attach_and_spawn", "launch_mw",
               "detach", "kill_job")
    + _methods("repro.lmonp.transport", "LmonpStream", "lmonp",
               "send", "recv", "expect")
    + _methods("repro.lmonp.transport", "FrameDecoder", "lmonp", "feed")
    + _methods("repro.mpir.trace", "TracedProcess", "mpir", "attach",
               "detach", "cont", "wait_event", "read_symbol", "write_symbol",
               "read_proctable")
    + _methods("repro.mpir.rpdtab", "RPDTAB", "mpir", "to_bytes",
               "from_bytes")
    + _methods("repro.be.runtime", "BackEnd", "be", "init", "ready",
               "barrier", "broadcast", "gather", "scatter", "send_usrdata",
               "recv_usrdata", "finalize", "stream_publish",
               "stream_subscribe")
    + _methods("repro.be.iccl", "ICCLEndpoint", "be", "wireup", "barrier",
               "gather", "broadcast", "scatter")
    + [EntryPoint(f"repro.tbon.startup:{fn}", "tbon.startup")
       for fn in ("launchmon_startup", "native_startup")]
    + _methods("repro.tbon.overlay", "Overlay", "tbon.overlay",
               "start_routers", "open_stream", "repair", "_route_up",
               "_route_down")
    + _methods("repro.tbon.overlay", "Stream", "tbon.overlay", "publish",
               "next_wave", "state_at", "close")
    + _methods("repro.tbon.overlay", "OverlayEndpoint", "tbon.overlay",
               "send_wave", "recv_broadcast", "broadcast", "collect_wave")
    + [EntryPoint("repro.tbon.packets:Packet.__post_init__", None),
       EntryPoint("repro.tbon.flow:BoundedInbox.note_stall_started", None)]
    + _methods("repro.fe.api", "ToolFrontEnd", "fe", "init",
               "create_session", "reclaim", "shutdown")
    + _methods("repro.fe.api", "ToolFrontEnd", "fe", "launch_and_spawn",
               "attach_and_spawn", "launch_mw_daemons", "detach", "kill",
               sid=1)
    + _methods("repro.fe.service", "ToolService", "fe", "submit_launch",
               "submit_attach", "submit_op", "submit_chained", "drain",
               "_run")
    + _methods("repro.ctl.daemon", "ControlPlane", "ctl", "cmd_start",
               "cmd_stop")
    + _methods("repro.ctl.daemon", "CtlDaemon", "ctl", "submit", "drain",
               "stop")
    + _methods("repro.ctl.daemon", "CtlDaemon", "ctl", "end_session", sid=1)
    + _methods("repro.ctl.client", "CtlClient", "ctl", "launch")
    + _methods("repro.ctl.client", "CtlClient", "ctl", "wait", "end", "info",
               sid=1)
    + [EntryPoint("repro.ctl.daemon:CtlDaemon.build_checkpoint",
                  "ctl.checkpoint"),
       EntryPoint("repro.ctl.checkpoint:encode_checkpoint", "ctl.checkpoint"),
       EntryPoint("repro.ctl.store:CheckpointStore.write", "ctl.checkpoint",
                  on_call=_count_checkpoint_bytes)]
    + _methods("repro.fleet.gossip", "GossipMesh", "fleet.gossip",
               "run_round")
    + [EntryPoint(f"repro.fleet.placement:{cls}.choose", "fleet.placement")
       for cls in ("ConsistentHashPolicy", "LeastLoadedPolicy",
                   "LocalityAwarePolicy")]
    + _methods("repro.fleet.frontdoor", "FleetFrontDoor", "fleet.frontdoor",
               "submit_launch", "effective_view", "_place", "_supervise",
               "_gossip_driver", "reconcile", "drain")
)

#: layer totals ranked against each other (kernel and GC excluded)
NON_KERNEL_LAYERS = {
    "cluster": ("cluster", "cluster.message_size"),
    "rm": ("rm",),
    "launch": ("launch",),
    "engine": ("engine",),
    "lmonp": ("lmonp",),
    "mpir": ("mpir",),
    "be": ("be",),
    "tbon": ("tbon.startup", "tbon.overlay"),
    "fe": ("fe",),
    "ctl": ("ctl", "ctl.checkpoint"),
    "fleet": ("fleet.gossip", "fleet.placement", "fleet.frontdoor"),
}


def _resolve(target: str):
    """(owner, attribute, raw attribute) for ``module:Class.attr`` or
    ``module:function``; the raw attribute is the class ``__dict__`` entry
    (a classmethod stays a classmethod)."""
    module_name, path = target.split(":", 1)
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(module, cls_name)
        if attr not in vars(owner):
            raise AttributeError(f"{target}: not defined on {cls_name}")
        return owner, attr, vars(owner)[attr]
    return module, path, getattr(module, path)


#: spans kept in memory for the trace file (the rest are aggregated only)
SPAN_CAP = 50_000


class Tracer:
    """Spans, self times and call counts for one traced run. Spans are kept
    in memory up to :data:`SPAN_CAP` and written out by :meth:`chrome_trace`.
    """

    def __init__(self):
        #: open frames: [layer, t0, child seconds, span id, name, sid]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = Counter()
        #: self seconds per entry point, and each entry point's layer
        self.self_by_name: Dict[str, float] = Counter()
        self.layer_of: Dict[str, str] = {"gen0": "gc", "gen1": "gc",
                                         "gen2": "gc"}
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: kept spans: (id, parent id, name, layer, t0, t1, sid)
        self.spans: List[tuple] = []
        self.n_spans = 0
        self.gc_collections: Counter = Counter()
        self._patched: List[Tuple[Any, str, Any]] = []
        self._gc_frame: Optional[list] = None
        self.t_origin = perf_counter()

    # -- spans ---------------------------------------------------------------
    def _open(self, layer: str, name: str, sid: Any) -> list:
        self.n_spans += 1
        frame = [layer, perf_counter(), 0.0, self.n_spans, name, sid]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self.stack
        stack.pop()
        dur = t1 - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        self.self_by_name[frame[4]] += dur - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], parent[3] if parent else 0,
                               frame[4], frame[0], frame[1], t1, frame[5]))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_frame = self._open("gc", f"gen{info['generation']}", None)
        elif self._gc_frame is not None:
            self._close(self._gc_frame)
            self._gc_frame = None
            self.gc_collections[info["generation"]] += 1

    # -- wrappers ------------------------------------------------------------
    def _traced_gen(self, gen, layer: str, name: str, sid: Any,
                    on_return):
        """Drive ``gen`` exactly as ``yield from`` would, one span per
        resume."""
        value = None
        exc = None
        while True:
            frame = self._open(layer, name, sid)
            try:
                if exc is None:
                    event = gen.send(value)
                else:
                    event = gen.throw(exc)
            except StopIteration as stop:
                self._close(frame)
                if on_return is not None:
                    on_return(self, stop.value)
                return stop.value
            except BaseException:
                self._close(frame)
                raise
            self._close(frame)
            try:
                value = yield event
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                value = None
                exc = thrown

    def _wrap(self, fn, ep: EntryPoint):
        calls = self.calls
        name = ep.name
        layer = ep.layer
        self.layer_of[name] = layer
        if layer is None:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            counted._perfbench_wrapper = True
            return counted
        stack = self.stack
        sid_pos = ep.sid
        on_call = ep.on_call
        on_return = ep.on_return
        traced_gen = self._traced_gen

        def sid_of(args):
            if sid_pos is None or len(args) <= sid_pos:
                return None
            arg = args[sid_pos]
            return arg if isinstance(arg, int) else getattr(arg, "id", None)

        def traced(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(self, args)
            if stack and stack[-1][0] is layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._open(layer, name, sid_of(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame)
            if type(result) is GeneratorType:
                wrapped = traced_gen(result, layer, name, sid_of(args),
                                     on_return)
                # Process names come from the generator's __name__
                wrapped.__name__ = result.__name__
                wrapped.__qualname__ = result.__qualname__
                return wrapped
            if on_return is not None:
                on_return(self, result)
            return result

        traced.__wrapped__ = fn
        traced._perfbench_wrapper = True
        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; functions are replaced in every loaded
        ``repro`` module that holds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # a module imported while installed would keep the wrapper for
        # good, so every module is loaded (and patched) up front
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):  # runs a CLI on import
                importlib.import_module(info.name)
        try:
            for ep in ENTRY_POINTS:
                owner, attr, raw = _resolve(ep.target)
                if isinstance(owner, type):
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(raw.__func__, ep))
                    else:
                        new = self._wrap(raw, ep)
                    self._patch(owner, attr, raw, new)
                    continue
                new = self._wrap(raw, ep)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, new)
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, original, new) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Restore every original; safe to call more than once."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------
    def chrome_trace(self, meta: dict) -> dict:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = self.t_origin
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": round((start - t0) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "args": {"span": span, "parent": parent,
                            **({"session": sid} if sid is not None else {})}}
                  for span, parent, name, layer, start, end, sid in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {**meta, "spans_total": self.n_spans,
                              "spans_kept": len(self.spans)}}


def leftover_wrappers() -> List[str]:
    """Names of wrappers still reachable from a ``repro`` module or class
    (must be empty whenever no tracer is installed)."""
    found = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            holders = [(key, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                holders += [(f"{key}.{k}", getattr(v, "__func__", v))
                            for k, v in vars(value).items()]
            found += [f"{module.__name__}:{name}" for name, obj in holders
                      if getattr(obj, "_perfbench_wrapper", False)]
    return found


def layer_metrics(tracer: Tracer, outcome,
                  traced_total: float) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (see BENCHMARK.json);
    ``traced_total`` is its host seconds, set-up included."""
    s = tracer.self_s
    c = tracer.calls
    n = tracer.counts
    stats = outcome.sim.stats
    events = stats.events
    messages = c["Network.transfer_time"]
    parts = outcome.parts
    rms = parts.get("rms", [])
    door = parts.get("door")
    store = parts.get("store")
    writes = store.writes if store is not None else 0
    identical = store.identical_writes if store is not None else 0
    summary = door.summary() if door is not None else None
    attempts = (sum(len(h.attempts) for h in door.handles)
                if door is not None else 0)
    return {
        "simx.events": events,
        "simx.processes": c["Simulator.process"],
        "simx.fast_lane_share": stats.fast_events / events if events else 0.0,
        "simx.heap_high_water": stats.heap_high_water,
        "simx.self_s": s[KERNEL],
        "simx.ns_per_event": s[KERNEL] / events * 1e9 if events else 0.0,
        "gc.pause_s": s["gc"],
        "gc.collections.gen2": tracer.gc_collections[2],
        "gc.pause_share": s["gc"] / traced_total if traced_total else 0.0,
        "cluster.messages": messages,
        "cluster.fork_exec.calls": c["Node.fork_exec"],
        "cluster.message_size.calls": c["message_size"],
        "cluster.message_size.calls_per_message": (
            c["message_size"] / messages if messages else 0.0),
        "cluster.message_size.self_s": s["cluster.message_size"],
        "cluster.self_s": s["cluster"] + s["cluster.message_size"],
        "rm.allocate.calls": (c["ResourceManager.allocate"]
                              + c["ResourceManager.allocate_async"]),
        "rm.alloc_queue_peak": max((rm.alloc_queue_peak for rm in rms),
                                   default=0),
        "rm.spawn_daemons.calls": c["SlurmRM.spawn_daemons"],
        "rm.self_s": s["rm"],
        "launch.self_s": s["launch"],
        "launch.retries": n["launch.retries"],
        "engine.self_s": s["engine"],
        "lmonp.messages": c["LmonpStream.send"],
        "lmonp.self_s": s["lmonp"],
        "mpir.self_s": s["mpir"],
        "be.self_s": s["be"],
        "be.iccl.broadcast.calls": c["ICCLEndpoint.broadcast"],
        "be.iccl.gather.calls": c["ICCLEndpoint.gather"],
        "tbon.startup.self_s": s["tbon.startup"],
        "tbon.overlay.self_s": s["tbon.overlay"],
        "tbon.packets": c["Packet.__post_init__"],
        "tbon.flow.stalls": c["BoundedInbox.note_stall_started"],
        "fe.sessions": c["ToolFrontEnd.create_session"],
        "fe.self_s": s["fe"],
        "ctl.self_s": s["ctl"] + s["ctl.checkpoint"],
        "ctl.checkpoint.writes": writes,
        "ctl.checkpoint.identical_writes": identical,
        "ctl.checkpoint.useful_ratio": (
            (writes - identical) / writes if writes else 0.0),
        "ctl.checkpoint.bytes_per_write": (
            n["ctl.checkpoint.bytes"] / writes if writes else 0.0),
        "ctl.checkpoint.self_s": s["ctl.checkpoint"],
        "fleet.gossip.rounds": c["GossipMesh.run_round"],
        "fleet.gossip.self_s": s["fleet.gossip"],
        "fleet.placement.calls": sum(
            v for k, v in c.items() if k.endswith("Policy.choose")),
        "fleet.placement.self_s": s["fleet.placement"],
        "fleet.frontdoor.self_s": s["fleet.frontdoor"],
        "fleet.attempts": attempts,
        "fleet.useful_attempt_ratio": (summary["completed"] / attempts
                                       if attempts else 0.0),
        "fleet.failovers": summary["failovers"] if summary else 0,
        "trace.spans": tracer.n_spans,
    }


def layer_totals(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per non-kernel layer (sub-layers folded in)."""
    return {layer: sum(tracer.self_s[sub] for sub in subs)
            for layer, subs in NON_KERNEL_LAYERS.items()}


"""TBON reduction filters: one interface, one registry.

A filter reduces the payloads of one wave's child packets (plus the local
contribution, if any) into a single upstream payload. Filters are
registered by name so topologies/streams can reference them portably --
mirroring MRNet's filter-id mechanism.

Every filter is a :class:`Filter` subclass with a single per-wave
``merge(payloads)``. ``reduce(payloads, state)`` folds that merge into
per-position running state (created by ``initial_state()``); a filter that
keeps no state inherits the default ``(merge(payloads), state)``. Both
planes use the same objects: a one-shot wave reduction
(:class:`~repro.tbon.Overlay` with its ``streams`` specs) calls ``merge``,
and a persistent stream (:meth:`repro.tbon.Overlay.open_stream`) calls
``reduce``. :func:`register_filter` adds a class under its ``name``;
:func:`make_filter` is the one way to build an instance.

Algebraic contract (the executable spec lives in
``tests/tbon/test_filter_properties.py``): the per-wave merge of every
built-in filter is **associative and commutative**, so the value the root
delivers is independent of fanout, depth, and child arrival order --
reducing through any tree shape equals one flat reduction over all leaf
payloads. The *state* is where windowing lives: each position folds its
subtree's per-wave merges into a running aggregate over the last
``window`` waves (0 = unbounded). Emitting the wave *delta* upstream while
keeping the running aggregate in local state is what lets every level hold
a live windowed view of its subtree without ever double-counting history.

Built-in filters and their MRNet/paper correspondence:

==================  ====================================================
``concat``          MRNet TFILTER_CONCAT / waitforall (stateless)
``sum`` / ``max``   MRNet TFILTER_SUM / TFILTER_MAX (stateless)
``histogram``       running histogram: payloads are ``{bin: count}``
                    dicts, merged pointwise (ScalAna-style per-resource
                    accumulation)
``top_k``           exact distributed top-k: payloads are
                    ``[value, key]`` item lists, key-deduplicated by max
``ewma``            EWMA of per-wave aggregate sums (a continuous
                    sampler's rate estimator)
``prefix_tree_merge``  STAT's call-graph prefix-tree union, promoted here
                    from ``repro.tools.stat_tool`` (pure dict merge, no
                    tool import needed)
==================  ====================================================
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["Filter", "filter_names", "make_filter", "register_filter"]

#: filter classes by name (one registry for both planes)
_REGISTRY: dict[str, type["Filter"]] = {}


def register_filter(cls: type["Filter"]) -> type["Filter"]:
    """Register (or replace) filter class ``cls`` under ``cls.name``.

    Returns ``cls``, so it doubles as a class decorator.
    """
    _REGISTRY[cls.name] = cls
    return cls


def filter_names() -> list[str]:
    """Every registered filter name, sorted."""
    return sorted(_REGISTRY)


def _stateful(cls: type["Filter"]) -> bool:
    return cls.reduce is not Filter.reduce


def make_filter(name: str, window: int = 0, **params: Any) -> "Filter":
    """Instantiate filter ``name``.

    Stateful filters honour ``window`` (and filter-specific ``params``
    like ``k`` or ``alpha``); a stateless filter ignores ``window`` and
    takes no ``params``.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown TBON filter {name!r}; registered: "
                       f"{sorted(_REGISTRY)}") from None
    if params and not _stateful(cls):
        raise KeyError(
            f"TBON filter {name!r} is stateless; it takes no parameters "
            f"{sorted(params)} (stateful filters: "
            f"{sorted(n for n, c in _REGISTRY.items() if _stateful(c))})")
    return cls(window=window, **params)


class Filter:
    """A TBON reduction filter.

    ``merge(payloads)`` reduces one wave's child payloads into the
    upstream payload; it MUST be associative and commutative -- that is
    what makes the root's result independent of tree shape and arrival
    order. ``reduce(payloads, state)`` merges one wave *and* folds the
    merge into ``state`` (created by :meth:`initial_state`; one state
    lives per (stream, position), passed back in on every wave); stateful
    filters override it, using ``window`` (the last ``window`` waves, 0 =
    unbounded). Instances carry no per-position data themselves, so one
    instance can serve a whole stream.
    """

    name = "?"

    def __init__(self, window: int = 0):
        self.window = max(0, int(window))

    def initial_state(self) -> Any:
        return None

    def merge(self, payloads: Sequence[Any]) -> Any:
        raise NotImplementedError

    def reduce(self, payloads: Sequence[Any],
               state: Any) -> tuple[Any, Any]:
        return self.merge(payloads), state


# -- stateless built-in filters ----------------------------------------------

@register_filter
class ConcatFilter(Filter):
    """Waitforall concatenation: list of all child payloads (no reduction)."""

    name = "concat"

    def merge(self, payloads: Sequence[Any]) -> list:
        out: list = []
        for p in payloads:
            if isinstance(p, list):
                out.extend(p)
            else:
                out.append(p)
        return out


@register_filter
class SumFilter(Filter):
    name = "sum"

    def merge(self, payloads: Sequence[Any]) -> Any:
        return sum(payloads)


@register_filter
class MaxFilter(Filter):
    name = "max"

    def merge(self, payloads: Sequence[Any]) -> Any:
        return max(payloads)


# -- stateful built-in filters ------------------------------------------------

@register_filter
class RunningHistogramFilter(Filter):
    """Pointwise-summed histograms with a running windowed total.

    Wave payloads are ``{bin: count}`` dicts; the merge is a pointwise sum
    over all children (associative, commutative). ``state["running"]`` is
    the pointwise sum of the last ``window`` merged waves (all waves when
    ``window=0``) -- at the root that is the windowed histogram of every
    leaf sample in flight-order-independent form.
    """

    name = "histogram"

    def initial_state(self) -> dict:
        return {"waves": [], "running": {}}

    @staticmethod
    def merge(payloads: Sequence[dict]) -> dict:
        out: dict = {}
        for p in payloads:
            for b, c in p.items():
                out[b] = out.get(b, 0) + c
        return dict(sorted(out.items(), key=lambda kv: str(kv[0])))

    def reduce(self, payloads: Sequence[dict],
               state: dict) -> tuple[dict, dict]:
        merged = self.merge(payloads)
        state["waves"].append(merged)
        running = state["running"]
        for b, c in merged.items():
            running[b] = running.get(b, 0) + c
        if self.window and len(state["waves"]) > self.window:
            evicted = state["waves"].pop(0)
            for b, c in evicted.items():
                running[b] -= c
                if not running[b]:
                    del running[b]
        return merged, state


@register_filter
class TopKFilter(Filter):
    """Exact distributed top-k over ``[value, key]`` items.

    Items are deduplicated per key by **max** value, ranked by
    ``(-value, str(key))`` and truncated to ``k``. Max-dedup keeps the
    truncated merge exact: if an item belongs to the global top-k, fewer
    than k items beat it in any subtree, so its best instance survives
    every intermediate truncation (the associativity argument the property
    tests pin down). ``state["running"]`` is the top-k over the last
    ``window`` waves.
    """

    name = "top_k"

    def __init__(self, k: int = 8, window: int = 0):
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        super().__init__(window)
        self.k = int(k)

    def initial_state(self) -> dict:
        return {"waves": [], "running": []}

    def merge(self, payloads: Sequence[list]) -> list:
        best: dict = {}
        for p in payloads:
            for value, key in p:
                kk = key if isinstance(key, (str, int, float, bool)) \
                    else repr(key)
                if kk not in best or value > best[kk][0]:
                    best[kk] = [value, key]
        ranked = sorted(best.values(), key=lambda it: (-it[0], str(it[1])))
        return [list(it) for it in ranked[:self.k]]

    def reduce(self, payloads: Sequence[list],
               state: dict) -> tuple[list, dict]:
        merged = self.merge(payloads)
        state["waves"].append(merged)
        if self.window and len(state["waves"]) > self.window:
            state["waves"].pop(0)
        state["running"] = self.merge(state["waves"])
        return merged, state


@register_filter
class EwmaRateFilter(Filter):
    """Per-wave aggregate sum with an EWMA rate estimate in state.

    Wave payloads are numbers; the merge is their sum (associative,
    commutative -- exactly so for ints, to float tolerance otherwise).
    ``state["ewma"]`` tracks ``alpha * wave + (1-alpha) * ewma`` over this
    position's subtree aggregates; ``state["last"]`` and ``state["waves"]``
    expose the raw series tail for rate computations. ``window`` bounds the
    retained raw series (the EWMA itself needs no window).
    """

    name = "ewma"

    def __init__(self, alpha: float = 0.5, window: int = 0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"ewma needs 0 < alpha <= 1, got {alpha}")
        super().__init__(window)
        self.alpha = float(alpha)

    def initial_state(self) -> dict:
        return {"waves": [], "ewma": None, "last": None, "n_waves": 0}

    def merge(self, payloads: Sequence[float]) -> float:
        return sum(payloads)

    def reduce(self, payloads: Sequence[float],
               state: dict) -> tuple[float, dict]:
        total = self.merge(payloads)
        prev = state["ewma"]
        state["ewma"] = total if prev is None else (
            self.alpha * total + (1.0 - self.alpha) * prev)
        state["last"] = total
        state["n_waves"] += 1
        state["waves"].append(total)
        if self.window and len(state["waves"]) > self.window:
            state["waves"].pop(0)
        return total, state


def _merge_tree_nodes(nodes: Sequence[dict]) -> dict:
    """Pointwise union of prefix-tree wire nodes (``{"r": [...], "c": {}}``)."""
    ranks: set = set()
    for n in nodes:
        ranks.update(n["r"])
    frames = sorted({f for n in nodes for f in n["c"]})
    return {"r": sorted(ranks),
            "c": {f: _merge_tree_nodes([n["c"][f] for n in nodes
                                        if f in n["c"]])
                  for f in frames}}


@register_filter
class PrefixTreeMergeFilter(Filter):
    """STAT's call-graph union as a stream filter with a windowed view.

    The merge is a pointwise set union -- associative, commutative and
    idempotent -- so any tree shape reduces losslessly.
    ``state["running"]`` unions the last ``window`` merged waves.
    """

    name = "prefix_tree_merge"

    def initial_state(self) -> dict:
        return {"waves": [], "running": None}

    @staticmethod
    def merge(payloads: Sequence[dict]) -> dict:
        """Merge prefix-tree payloads (``PrefixTree.to_dict`` wire form).

        Promoted from ``repro.tools.stat_tool.prefix_tree``: the union is
        computed directly on the JSON-able dicts, byte-identical to
        round-tripping through :class:`~repro.tools.stat_tool.PrefixTree`,
        so the TBON layer needs no tool import.
        """
        return {"tree": _merge_tree_nodes([p["tree"] for p in payloads]),
                "n": sum(p.get("n", 0) for p in payloads)}

    def reduce(self, payloads: Sequence[dict],
               state: dict) -> tuple[dict, dict]:
        merged = self.merge(payloads)
        state["waves"].append(merged)
        if self.window:
            if len(state["waves"]) > self.window:
                state["waves"].pop(0)
            state["running"] = self.merge(state["waves"])
        else:
            state["running"] = (merged if state["running"] is None
                                else self.merge([state["running"], merged]))
        return merged, state


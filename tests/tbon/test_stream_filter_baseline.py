"""Byte-identity guard for every built-in filter on a persistent stream.

Each of the seven built-in filters runs one small saturating stream cell
(``measure_stream(300, window=3, credit_limit=2, n_waves=5, fanout=8,
exact_head=64)``), fully simulated and on the hybrid tier. The delivered
waves, the root's final state, the simulator event count, the summed wave
latency and the delivered-wave count must match
``tests/baselines/stream_filters.txt`` byte for byte: one JSON line per
(filter, tier) cell.

If this fails after an intentional change to a filter or to the stream
data plane, regenerate the file with
``PYTHONPATH=src python tests/tbon/test_stream_filter_baseline.py >
tests/baselines/stream_filters.txt`` and say which cells moved and why.
"""

import json
from pathlib import Path

from repro.experiments.streaming import measure_stream

BASELINE = Path(__file__).parent.parent / "baselines" / "stream_filters.txt"

BUILTINS = ("concat", "sum", "max", "histogram", "top_k", "ewma",
            "prefix_tree_merge")

FIELDS = ("waves", "final_state", "sim_events", "total_latency",
          "delivered")


def render() -> str:
    lines = []
    for name in BUILTINS:
        for hybrid in (False, True):
            cell = measure_stream(300, filter_name=name, window=3,
                                  credit_limit=2, n_waves=5, fanout=8,
                                  hybrid=hybrid, exact_head=64)
            row = {"filter": name, "hybrid": hybrid}
            row.update((k, cell[k]) for k in FIELDS)
            lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_builtin_stream_filters_match_baseline_byte_for_byte():
    assert render() == BASELINE.read_text()


if __name__ == "__main__":
    print(render(), end="")

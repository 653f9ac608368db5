"""Byte-identity guard for every strategy's failure path.

The ablations (``A1``-``A4``, quick) and the resilience sweep (``res``,
full) drive all three launch strategies through fault-free, fail-fast and
resilient launches. Their rendered tables must match
``tests/baselines/launch_contract.txt`` byte for byte -- exactly what
``python -m repro.experiments A1 A2 A3 A4 --quick`` followed by
``python -m repro.experiments res`` prints.

If this fails after an intentional change to the launch contract,
regenerate the file with those two commands and say which cells moved and
why; a drift nobody intended is a bug in the spawn path.
"""

from pathlib import Path

from repro.experiments.cli import QUICK_SWEEPS, RUNNERS

BASELINE = Path(__file__).parent.parent / "baselines" / "launch_contract.txt"


def test_ablations_and_resilience_match_baseline_byte_for_byte():
    runs = [(name, QUICK_SWEEPS[name]) for name in ("A1", "A2", "A3", "A4")]
    runs.append(("res", {}))
    rendered = "".join(RUNNERS[name](**kwargs).format_table() + "\n\n"
                       for name, kwargs in runs)
    assert rendered == BASELINE.read_text()

"""Pinned result rows of the placement experiments.

Each experiment that runs Meyerson, online k-means or Algorithm 2 is run
at a reduced size and seed 3, and the SHA-256 of its result rows (floats
rounded to 10 significant digits) is compared with a pinned digest.  A
change to what any of the three online algorithms decides changes a
row, so it fails here rather than only shifting EXPERIMENTS.md.  When a
change is meant to alter the decisions, re-pin the digests and say why.
"""

import hashlib
import json
import numbers

import pytest

from repro.experiments import run_fig4, run_fig6, run_fig10, run_table3, run_table5

SEED = 3

PINNED = {
    "fig4": (lambda: run_fig4(seed=SEED, trials=10), "13cc111e08f0e5ce"),
    "fig6": (lambda: run_fig6(seed=SEED, trials=6), "33b41b25307399dc"),
    "fig10": (
        lambda: run_fig10(seed=SEED, n_windows=4, volume=900), "0e0ddb94e05d7d97"
    ),
    "table3": (lambda: run_table3(seed=SEED, trials=10), "cb900dc6205d948a"),
    "table5": (lambda: run_table5(seed=SEED, volume=900), "ea288b33fa1d96fe"),
}


def _canonical(value):
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return format(float(value), ".10g")
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"unexpected cell type {type(value).__name__}")


def rows_digest(result) -> str:
    """First 16 hex digits of the SHA-256 of the canonical rows."""
    text = json.dumps(_canonical(result.rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rows_match_pinned_digest(name):
    run, digest = PINNED[name]
    assert rows_digest(run()) == digest

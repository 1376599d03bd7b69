"""Summary statistics shared by the benchmark runner and the steadiness script.

Everything here is pure arithmetic over lists of floats, so the tests in
``perfbench/tests`` pin it down without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples beyond it ...
TAIL_SAMPLES_BEYOND = 10
#: ... and the sample must hold at least this many values in all.
TAIL_MIN_SAMPLES = 40


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with ten samples beyond it, or ``None``.

    With fewer than forty samples only the median is reported: any
    higher percentile would rest on fewer than ten values and be no tail.
    """
    if n < TAIL_MIN_SAMPLES:
        return None
    best = None
    for p in PERCENTILE_LADDER[1:]:
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def normalise(op_seconds: Sequence[float], ref_seconds: Sequence[float]) -> list[float]:
    """Divide each op's time by the reference op measured beside it."""
    if len(op_seconds) != len(ref_seconds):
        raise ValueError(
            f"{len(op_seconds)} op times but {len(ref_seconds)} reference times"
        )
    out = []
    for op, ref in zip(op_seconds, ref_seconds):
        if not ref > 0.0:
            raise ValueError(f"reference op time must be positive, got {ref}")
        out.append(op / ref)
    return out


#: Reference-op time of the machine ``setup_s`` is scaled to, in seconds
#: (about that of the 2-core box the README's figures come from, whose
#: ``ref.op_ms`` reads 87-106).
REF_NOMINAL_S = 0.1


def scaled_setup_seconds(setups: Sequence[float], refs: Sequence[float]) -> float:
    """Median set-up time in reference ops, times :data:`REF_NOMINAL_S`.

    ``refs`` are the reference ops of the same run.  Raw set-up seconds
    follow the shared machine's speed, which drifted by ~18% between two
    sets of ten runs; set-up time over the run's median reference op
    cancels that drift.
    """
    ref = statistics.median(refs)
    if not ref > 0.0:
        raise ValueError(f"reference op time must be positive, got {ref}")
    return statistics.median(setups) / ref * REF_NOMINAL_S


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a flat sample)."""
    q1, med, q3 = quartiles(values)
    if med == 0.0:
        return 0.0 if q1 == q3 else math.inf
    return (q3 - q1) / abs(med)


def claim_gain(
    parent: Sequence[float], change: Sequence[float], better: str
) -> dict[str, object]:
    """Apply the pairwise rule for claiming that ``change`` beats ``parent``.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  The change wins a
    pair when it is strictly better; ties count for neither side.  A gain
    is claimed only when the change wins at least nine tenths of the
    pairs and the medians differ by more than the parent's own
    interquartile distance.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("claim_gain needs two equally long, non-empty samples")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = sign * (p_med - c_med)
    claimed = wins >= 0.9 * len(parent) and gap > (p_q3 - p_q1)
    return {
        "pairs": len(parent),
        "wins": wins,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": p_q3 - p_q1,
        "claimed": claimed,
    }

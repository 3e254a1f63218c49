"""Metric arithmetic of the benchmark: percentiles, self time from nested
spans, and the end-to-end summary of one measured pass.  Pure functions over
plain data, so the unit tests can feed them synthetic inputs."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise one slow case decides it.
TAIL_SAMPLES = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples (rounded
    first, so that 99.9 % of 10000 is 9990 and not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def tail_percentile(n: int) -> float | None:
    """The highest of TAIL_PERCENTILES with at least TAIL_SAMPLES of ``n``
    samples beyond it, or None when even p90 lacks them."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_SAMPLES:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Per span ``(start, end, parent index or -1)``: its duration minus the
    part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, []), start, end)
        for i, (start, end, _) in enumerate(spans)
    ]


def speed_factors(gaps: list[list[float]], window: int, nominal: float) -> list[float]:
    """Scale factors that put CPU times at a nominal host speed.

    ``gaps[i]`` holds the times of a fixed calibration loop run just before
    timed segment ``i`` (the last gap follows the last segment).  Segment
    ``i`` is scaled by
    ``nominal`` over the median loop time in gaps ``i - window`` to
    ``i + 1 + window``, so a host that runs everything slower for a while
    slows the loop alike and the scaled time stays put.
    """
    factors = []
    for i in range(len(gaps) - 1):
        samples = [t for gap in gaps[max(0, i - window): i + window + 2] for t in gap]
        factors.append(nominal / statistics.median(samples))
    return factors


@dataclass
class CaseResult:
    """One case of a pass.  ``outcome`` is ``ok``, ``error:<exception>`` or
    ``check:<what failed>``; only ``ok`` cases count as completed.
    ``cpu_seconds`` is as measured, ``seconds`` scaled to nominal host
    speed by ``speed``, which the run sets from its calibration."""

    name: str
    rows: int
    cpu_seconds: float
    outcome: str
    digest: str | None = None
    counts: dict = field(default_factory=dict)
    speed: float = 1.0
    segments: range = range(0)

    @property
    def seconds(self) -> float:
        return self.cpu_seconds * self.speed

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def summarize(results: list[CaseResult]) -> dict:
    """End-to-end figures of a pass.  Failed cases add their time but no
    rows; case times are over completed cases only."""
    attempted = len(results)
    done = [r.seconds for r in results if r.ok]
    seconds = sum(r.seconds for r in results)
    out = {
        "attempted": attempted,
        "failed": attempted - len(done),
        "fail_ratio": (attempted - len(done)) / attempted if attempted else 0.0,
        "rows_per_s": (sum(r.rows for r in results if r.ok) / seconds
                       if seconds > 0 else 0.0),
        "case_s.p50": statistics.median(done) if done else None,
        "case_s.samples": len(done),
    }
    tail = tail_percentile(len(done))
    out["case_s.tail_percentile"] = tail
    out["case_s.p90"] = percentile(done, 90.0) if tail is not None else None
    return out

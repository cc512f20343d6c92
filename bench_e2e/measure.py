"""Small numeric helpers: percentiles, Zipf sampling, memory, seeds."""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from typing import List, Optional, Sequence


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile; ``share`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= share <= 1.0:
        raise ValueError("share must be within [0, 1]")
    ordered = sorted(values)
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there was nothing to divide by."""
    return numerator / denominator if denominator else 0.0


class ZipfSampler:
    """Ranks ``0..size-1`` drawn with probability proportional to
    ``1 / (rank + 1) ** exponent``."""

    def __init__(self, size: int, exponent: float = 1.0) -> None:
        if size < 1:
            raise ValueError("size must be positive")
        weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
        self._cumulative: List[float] = list(itertools.accumulate(weights))

    def probability(self, rank: int) -> float:
        previous = self._cumulative[rank - 1] if rank else 0.0
        return (self._cumulative[rank] - previous) / self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one named stream of a workload seed."""
    digest = hashlib.sha256(("%d/%s" % (seed, label)).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a live process (this one by default), less the
    file-backed pages resident now.

    How much of an mmap'd snapshot is resident is the kernel's business:
    fault-around maps whatever neighbours the page cache happens to hold,
    and the same run reads 165 or 291 MB depending on how the file last
    entered the cache.  What the process itself allocated repeats to a
    percent, so that is what carries the bound; the mapped side is tracked
    by ``snapshot_bytes_per_vertex`` and ``storage.bytes_*``.
    """
    fields = {}
    with open("/proc/%s/status" % (pid or "self"), "r", encoding="ascii") as stream:
        for line in stream:
            name, _, rest = line.partition(":")
            if name in ("VmHWM", "RssFile", "RssShmem"):
                fields[name] = int(rest.split()[0])
    return (fields["VmHWM"] - fields["RssFile"] - fields["RssShmem"]) / 1024.0

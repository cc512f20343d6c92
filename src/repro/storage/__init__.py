"""Persistence: one mmap'd, versioned snapshot file holds every
query-time index (see :mod:`repro.storage.snapshot`)."""

from repro.storage.snapshot import SnapshotError, SnapshotFile, write_snapshot

__all__ = [
    "SnapshotError",
    "SnapshotFile",
    "write_snapshot",
]

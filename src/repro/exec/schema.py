"""The version stamp shared by the on-disk stores under a cache root.

The result cache (:mod:`repro.exec.cache`) and the slot-trace store
(:mod:`repro.exec.tracestore`) record both values in every entry and
read any other value as a miss, so one rule invalidates both
(docs/exec.md, "Invalidation rules").
"""

from __future__ import annotations

#: Bump when the entry format, the simulator's behaviour or the trace
#: generator's output changes (docs/exec.md, "Invalidation rules").
#: 2: payload checksum added.
SCHEMA_VERSION = 2


def repro_version() -> str:
    """The package version that writes an entry, a second guard that
    invalidates every entry across releases."""
    import repro

    return getattr(repro, "__version__", "0")

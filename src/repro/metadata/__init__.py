"""Shared metadata stores.

Monitors keep *critical* metadata (the minimal state sufficient for filtering
decisions, Section 5.1) in these structures; FADE's Metadata Read stage reads
them through the MD RF / MD cache timing models, and software handlers update
them.  Non-critical metadata (reference counts, origin labels, access-history
tables) stay private to each monitor.
"""

from repro.metadata.shadow import ShadowMemory, ShadowRegisters, WordBytes

__all__ = ["ShadowMemory", "ShadowRegisters", "WordBytes"]

"""The five monitoring tools of the paper's evaluation (Section 6), plus the
base classes for writing new ones.

==========  ===========================  =========================================
Monitor     Category                     Bugs found
==========  ===========================  =========================================
AddrCheck   memory tracking              accesses to unallocated memory
MemCheck    propagation tracking         + use of uninitialised values
TaintCheck  propagation tracking         overwrite-based security exploits
MemLeak     propagation tracking         memory leaks (reference counting)
AtomCheck   memory tracking (parallel)   atomicity violations (AVIO invariants)
==========  ===========================  =========================================

New monitors plug in through :data:`MONITOR_REGISTRY` (usually via
:func:`repro.api.register_monitor`); every consumer — the CLI, ``quick_run``
and the experiment harnesses — resolves names through it.
"""

from typing import Callable, Dict, List

from repro.common.registry import Registry
from repro.monitors.addrcheck import AddrCheck
from repro.monitors.atomcheck import AtomCheck
from repro.monitors.base import HandlerClass, HandlerResult, Monitor
from repro.monitors.handlers import (
    ADDRCHECK_COSTS,
    ATOMCHECK_COSTS,
    MEMCHECK_COSTS,
    MEMLEAK_COSTS,
    TAINTCHECK_COSTS,
    HandlerCosts,
)
from repro.monitors.memcheck import MemCheck
from repro.monitors.memleak import MemLeak
from repro.monitors.reports import BugKind, BugReport
from repro.monitors.taintcheck import TaintCheck

#: The built-in monitors' factories by name, whatever is registered now.
BUILTIN_MONITORS: Dict[str, Callable[[], Monitor]] = {
    "addrcheck": AddrCheck,
    "memcheck": MemCheck,
    "taintcheck": TaintCheck,
    "memleak": MemLeak,
    "atomcheck": AtomCheck,
}

#: Factory registry: canonical monitor name -> constructor.
MONITOR_REGISTRY: Registry[Callable[[], Monitor]] = Registry("monitor")
for _name, _factory in BUILTIN_MONITORS.items():
    MONITOR_REGISTRY.register(_name, _factory)

#: Display-order list matching the paper's figures.  Deliberately *not* the
#: full registry: figure sweeps cover the paper's five monitors even after
#: extensions register more (see :func:`monitor_names` for everything).
MONITOR_NAMES: List[str] = ["addrcheck", "atomcheck", "memcheck", "memleak", "taintcheck"]


def register_monitor(
    name: str, factory: Callable[[], Monitor], *, replace: bool = False
) -> Callable[[], Monitor]:
    """Make a new monitor constructible by name everywhere.

    ``factory`` is any zero-argument callable returning a fresh
    :class:`Monitor` (typically the class itself).  Duplicate names raise
    unless ``replace=True``.
    """
    return MONITOR_REGISTRY.register(name, factory, replace=replace)


def monitor_names() -> List[str]:
    """All registered monitor names: the paper's five first, then extras."""
    extras = [name for name in MONITOR_REGISTRY.names() if name not in MONITOR_NAMES]
    return list(MONITOR_NAMES) + extras


def is_builtin_monitor(name: str) -> bool:
    """Whether ``name`` constructs one of the built-in monitors (not a
    factory registered over it with ``replace=True``)."""
    return MONITOR_REGISTRY.get(name) is BUILTIN_MONITORS.get(
        MONITOR_REGISTRY.canonical(name)
    )


def create_monitor(name: str) -> Monitor:
    """Instantiate a fresh monitor by canonical (lower-case) name."""
    return MONITOR_REGISTRY.get(name)()


__all__ = [
    "ADDRCHECK_COSTS",
    "ATOMCHECK_COSTS",
    "AddrCheck",
    "AtomCheck",
    "BUILTIN_MONITORS",
    "BugKind",
    "BugReport",
    "HandlerClass",
    "HandlerCosts",
    "HandlerResult",
    "MEMCHECK_COSTS",
    "MEMLEAK_COSTS",
    "MONITOR_NAMES",
    "MONITOR_REGISTRY",
    "MemCheck",
    "MemLeak",
    "Monitor",
    "TAINTCHECK_COSTS",
    "TaintCheck",
    "create_monitor",
    "is_builtin_monitor",
    "monitor_names",
    "register_monitor",
]

"""Property-based tests of the central correctness claim.

**Filter soundness**: whenever FADE filters an event, the software handler
it elided would have been a no-op — no metadata change, no bug report.  We
check this over randomly generated traces for every monitor by running the
filtering pipeline and the software handler side by side on every event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fade import Fade, FadeConfig
from repro.isa.events import MonitoredEvent
from repro.monitors import create_monitor
from repro.workload import generate_trace, get_profile
from repro.workload.trace import HighLevelEvent


def _drive(monitor_name, benchmark, seed, num_instructions=1200):
    """Run FADE and the software handlers in lockstep over a trace.

    Returns (filtered checked, violations) where a violation is a filtered
    event whose handler would *not* have been a no-op.
    """
    monitor = create_monitor(monitor_name)
    fade = Fade(
        monitor.fade_program(),
        monitor.critical_regs,
        monitor.critical_mem,
        FadeConfig(non_blocking=True),
    )
    trace = generate_trace(get_profile(benchmark), num_instructions, seed=seed)
    checked = 0
    violations = []
    for index, item in enumerate(trace):
        if isinstance(item, HighLevelEvent):
            for inv_id, value in monitor.runtime_invariant_updates(item):
                fade.write_invariant(inv_id, value)
            monitor.handle_high_level(item)
            continue
        if not monitor.wants(item):
            continue
        event = MonitoredEvent.from_instruction(item, index)
        if event.is_stack_update:
            if fade.suu is not None:
                fade.process_stack_update(event.stack_update)
                monitor.on_suu_stack_update(event.stack_update)
            else:
                monitor.handle_stack_update(event.stack_update)
            continue
        outcome = fade.process_event(event)
        # Run the handler regardless; for filtered events it must be a noop,
        # so running it cannot perturb state when the property holds.
        result = monitor.handle_event(event, outcome.handler_kind)
        fade.handler_completed(event.sequence)
        if outcome.filtered:
            checked += 1
            if not result.is_noop:
                violations.append((index, event, result))
    return checked, violations


SOUNDNESS_CASES = [
    ("addrcheck", "astar"),
    ("addrcheck", "omnetpp"),
    ("memcheck", "gcc"),
    ("memcheck", "astar"),
    ("taintcheck", "omnetpp"),
    ("taintcheck", "bzip"),
    ("memleak", "astar"),
    ("memleak", "omnetpp"),
    ("atomcheck", "water"),
    ("atomcheck", "streamcluster"),
]


@pytest.mark.parametrize("monitor_name,bench", SOUNDNESS_CASES)
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_filter_soundness(monitor_name, bench, seed):
    """Property: FADE never filters an event whose handler would have acted."""
    checked, violations = _drive(monitor_name, bench, seed)
    assert checked > 0, "trace produced no filtered events to check"
    assert not violations, (
        f"{len(violations)} unsound filters out of {checked}; "
        f"first: {violations[0]}"
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=6, deadline=None)
def test_critical_metadata_converge_with_handlers(seed):
    """Property: after every handler completion the critical metadata match
    the authoritative state (the Non-Blocking hints never persist wrongly).

    Spot-checked via TaintCheck, whose authoritative state is a plain set.
    """
    monitor = create_monitor("taintcheck")
    fade = Fade(
        monitor.fade_program(), monitor.critical_regs, monitor.critical_mem
    )
    trace = generate_trace(get_profile("astar"), 800, seed=seed)
    for index, item in enumerate(trace):
        if isinstance(item, HighLevelEvent):
            monitor.handle_high_level(item)
            continue
        if not monitor.wants(item):
            continue
        event = MonitoredEvent.from_instruction(item, index)
        if event.is_stack_update:
            fade.process_stack_update(event.stack_update)
            monitor.on_suu_stack_update(event.stack_update)
            continue
        outcome = fade.process_event(event)
        if not outcome.filtered:
            monitor.handle_event(event, outcome.handler_kind)
            fade.handler_completed(event.sequence)
    # Authoritative taint state must equal the critical bytes.
    for word, value in monitor.critical_mem.items():
        assert (value == 0x01) == (word in monitor._tainted_words)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=200, max_value=1000),
)
@settings(max_examples=8, deadline=None)
def test_generator_determinism_property(seed, n):
    """Property: trace generation is a pure function of (profile, n, seed)."""
    first = generate_trace(get_profile("gobmk"), n, seed=seed)
    second = generate_trace(get_profile("gobmk"), n, seed=seed)
    assert first.items == second.items

"""What a warm ``/run`` puts on the wire and reads from the store.

The server streams a warm hit's result as the text the store holds and
encodes a computed result once; these tests pin that the bytes it sends
and stores are exactly what encoding each event and entry afresh gives,
on both store backends; that each spec reads the store once; that a warm
batch leaves in one write; and that the ``server.stream`` fault probe
still sees one ordinal per line, in order.
"""

import asyncio
import copy
import dataclasses
import json

import pytest

from repro.api import (
    ExperimentSettings,
    ParallelRunner,
    ResultStore,
    RunSpec,
    spec_grid,
)
from repro.api.store import content_key, result_json
from repro.faults import FaultEvent, FaultPlan, install_plan, uninstall_plan
from repro.monitors import MONITOR_REGISTRY, register_monitor
from repro.monitors.addrcheck import AddrCheck
from repro.service import CampaignServer, ServiceClient
from repro.service import server as server_module
from repro.service.scheduler import SpecScheduler
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.workload.profiles import (
    PROFILE_REGISTRY,
    get_profile,
    register_profile,
)

TINY = ExperimentSettings(num_instructions=1500, seed=11)

GRID = spec_grid(
    ["astar", "mcf"],
    ["memleak", "addrcheck"],
    [SystemConfig()],
    TINY,
)

BACKENDS = {"json": "store", "sqlite": "store.db"}


@pytest.fixture(autouse=True)
def _clean_injector():
    uninstall_plan()
    yield
    uninstall_plan()


@pytest.fixture(scope="module")
def reference():
    """Each GRID spec's content key → its locally computed result."""
    results = ParallelRunner(jobs=1).run(GRID).results
    return {content_key(spec): result for spec, result in zip(GRID, results)}


@pytest.fixture(params=sorted(BACKENDS))
def server(request, tmp_path):
    store = ResultStore(tmp_path / BACKENDS[request.param])
    instance = CampaignServer(
        store=store,
        socket_path=str(tmp_path / "server.sock"),
        scheduler=SpecScheduler(store=store, workers=1),
    )
    address = instance.start_background()
    yield instance, address
    instance.stop_background()


def post_run(address, specs, results=True):
    """The raw NDJSON body of one ``/run`` (a truncated last line too)."""
    raw = json.dumps({
        "specs": [spec.to_dict() for spec in specs], "results": results,
    }).encode()
    status, stream = ServiceClient(address)._request("POST", "/run", raw)
    assert status == 200
    with stream:
        return stream.read().decode()


def spec_line(index, spec, status, reference, results=True):
    """A spec event encoded afresh, its result from ``to_dict()``."""
    key = content_key(spec)
    event = {"event": "spec", "index": index, "key": key, "status": status}
    if results:
        event["result"] = reference[key].to_dict()
    return json.dumps(event, sort_keys=True) + "\n"


def event_line(event):
    return json.dumps(event, sort_keys=True) + "\n"


def server_stats(address):
    return ServiceClient(address).stats()


class TestWireBytes:
    def test_every_answer_is_its_fresh_encoding(self, server, reference):
        """Computed, coalesced (a repeat in the batch) and warm lines are
        byte-identical to ``json.dumps(event, sort_keys=True)``."""
        _, address = server
        batch = [GRID[0], GRID[1], GRID[0]]
        body = post_run(address, batch)
        lines = body.splitlines(keepends=True)
        assert lines[0] == event_line({"event": "accepted", "count": 3})
        assert lines[-1] == event_line({
            "event": "done", "total": 3,
            "statuses": {"computed": 2, "coalesced": 1},
        })
        spec_lines = lines[1:-1]
        statuses = {}
        for line in spec_lines:
            event = json.loads(line)
            statuses[event["index"]] = event["status"]
            assert line == spec_line(
                event["index"], batch[event["index"]], event["status"],
                reference,
            )
        assert sorted(statuses.values()) == [
            "coalesced", "computed", "computed",
        ]
        # Warm: one write, in submission order, from the stored text.
        assert post_run(address, batch) == "".join(
            [event_line({"event": "accepted", "count": 3})]
            + [spec_line(i, spec, "warm", reference)
               for i, spec in enumerate(batch)]
            + [event_line({"event": "done", "total": 3,
                           "statuses": {"warm": 3}})]
        )

    def test_results_false_lines_are_unchanged(self, server, reference):
        _, address = server
        post_run(address, GRID[:1])
        body = post_run(address, GRID[:2], results=False)
        lines = body.splitlines(keepends=True)
        statuses = {0: "warm", 1: "computed"}
        for line in lines[1:-1]:
            index = json.loads(line)["index"]
            assert line == spec_line(
                index, GRID[index], statuses[index], reference,
                results=False,
            )

    def test_stored_payload_is_its_fresh_encoding(self, server, reference):
        instance, address = server
        post_run(address, GRID[:2])
        for spec in GRID[:2]:
            key = content_key(spec)
            stored = instance.store._backend.read(key)
            if isinstance(stored, bytes):
                stored = stored.decode()
            assert stored == json.dumps(
                {"key": key, "spec": spec.to_dict(),
                 "result": reference[key].to_dict()},
                sort_keys=True, allow_nan=False,
            )

    def test_non_finite_result_is_an_error_never_stored(
        self, server, monkeypatch
    ):
        instance, address = server
        clean = ParallelRunner(jobs=1).run_one(GRID[0])

        def broken(spec, cache):
            result = copy.deepcopy(clean)
            result.baseline_cycles = float("nan")
            return result

        monkeypatch.setattr("repro.api.runner.execute_spec", broken)
        lines = post_run(address, GRID[:1]).splitlines()
        event = json.loads(lines[1])
        assert event["status"] == "error"
        assert "'baseline_cycles'" in event["error"]
        assert instance.store.lookup(content_key(GRID[0])) is None
        assert len(instance.store) == 0


class TestOneStoreRead:
    def test_cold_then_warm_batches(self, server):
        instance, address = server
        store = instance.store
        # A cold batch with a repeat: each submitted spec misses once.
        batch = [GRID[0], GRID[1], GRID[2], GRID[0]]
        post_run(address, batch)
        assert (store.hits, store.misses) == (0, len(batch))
        stats = server_stats(address)["server"]
        assert (stats["specs_received"], stats["warm_hits"],
                stats["coalesced"], stats["computed"]) == (4, 0, 1, 3)
        # An all-warm batch: one hit per spec, no miss.
        post_run(address, batch)
        assert (store.hits, store.misses) == (len(batch), len(batch))
        stats = server_stats(address)["server"]
        assert (stats["specs_received"], stats["warm_hits"],
                stats["coalesced"], stats["computed"]) == (8, 4, 1, 3)

    def test_warm_batch_leaves_in_one_write(self, server, monkeypatch):
        _, address = server
        post_run(address, GRID)
        writes = []
        original = asyncio.StreamWriter.write

        def counted(writer, data):
            writes.append(len(data))
            return original(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        body = post_run(address, GRID)
        assert len(writes) == 1
        # The head and the whole body went out together.
        assert writes[0] > len(body)


    def test_memo_served_warm_batch_builds_no_result(
        self, server, reference, monkeypatch
    ):
        """The second warm batch is answered from payloads the store
        validated on the first: no ``RunResult`` is built, and its bytes
        are the first warm batch's."""
        _, address = server
        post_run(address, GRID)
        warm = post_run(address, GRID)
        calls = []
        original = RunResult.from_dict.__func__

        def counted(cls, data):
            calls.append(1)
            return original(cls, data)

        monkeypatch.setattr(RunResult, "from_dict", classmethod(counted))
        assert post_run(address, GRID) == warm
        assert calls == []
        assert warm.count('"status": "warm"') == len(GRID)


class AddrCheckAgain(AddrCheck):
    """A different monitor implementation under a re-registered name."""


def warm_key(instance, address, spec):
    """The key of ``spec``'s answer to a ``/run``, stored beforehand under
    the spec's current content key so that it is answered warm."""
    text = result_json(ParallelRunner(jobs=1).run_one(GRID[0]))
    instance.store.put_text(content_key(spec), spec, text)
    lines = post_run(address, [spec], results=False).splitlines()
    event = json.loads(lines[1])
    assert event["status"] == "warm", event
    return event["key"]


class TestSpecTextMemo:
    """The server parses and keys each distinct spec text once, and keys
    it afresh when a registry entry the key reads changes."""

    def test_profile_replacement_rekeys(self, server):
        instance, address = server
        profile = dataclasses.replace(get_profile("astar"), name="memoprobe")
        register_profile(profile)
        try:
            spec = RunSpec("memoprobe", "addrcheck", SystemConfig(), TINY)
            first = warm_key(instance, address, spec)
            assert warm_key(instance, address, spec) == first
            register_profile(
                dataclasses.replace(profile, locality=0.5), replace=True
            )
            second = warm_key(instance, address, spec)
            assert second == content_key(spec) != first
        finally:
            PROFILE_REGISTRY.unregister("memoprobe")

    def test_monitor_reregistration_rekeys(self, server):
        instance, address = server
        register_monitor("memoprobe", AddrCheck)
        try:
            spec = RunSpec("astar", "memoprobe", SystemConfig(), TINY)
            first = warm_key(instance, address, spec)
            register_monitor("memoprobe", AddrCheckAgain, replace=True)
            second = warm_key(instance, address, spec)
            assert second == content_key(spec) != first
        finally:
            MONITOR_REGISTRY.unregister("memoprobe")

    def test_invalid_text_is_not_remembered(self, server):
        instance, address = server
        spec = RunSpec("astar", "addrcheck", SystemConfig(), TINY)
        raw = dict(spec.to_dict(), monitor="memoprobe")
        body = json.dumps({"specs": [raw], "results": False}).encode()

        def answer():
            status, stream = ServiceClient(address)._request(
                "POST", "/run", body
            )
            with stream:
                return json.loads(stream.read().decode().splitlines()[1])

        assert answer()["status"] == "error"
        register_monitor("memoprobe", AddrCheck)
        try:
            registered = RunSpec.from_dict(raw)
            instance.store.put_text(
                content_key(registered), registered,
                result_json(ParallelRunner(jobs=1).run_one(GRID[0])),
            )
            event = answer()
            assert event["status"] == "warm"
            assert event["key"] == content_key(registered)
        finally:
            MONITOR_REGISTRY.unregister("memoprobe")
        assert answer()["status"] == "error"

    def test_equal_values_of_other_types_are_apart(self):
        instance = CampaignServer()
        base = GRID[0].to_dict()
        raws = []
        # A seed of 7.0 or True is refused at construction; a warmup
        # fraction may be an int or a float.
        for settings in ({"warmup_fraction": 0},
                         {"warmup_fraction": 0.0},
                         {"warmup_fraction": -0.0}):
            raws.append(dict(base, settings=dict(base["settings"],
                                                 **settings)))
        for _ in range(2):  # First sight, then the memo.
            for raw in raws:
                spec, key = instance._parse(raw)
                assert spec == RunSpec.from_dict(raw)
                assert key == content_key(RunSpec.from_dict(raw))
        assert len({instance._parse(raw)[1] for raw in raws}) == 3

    def test_memo_is_bounded(self):
        instance = CampaignServer()
        size = server_module._SPEC_MEMO_SIZE
        base = GRID[0].to_dict()
        for seed in range(size + 3):
            instance._parse(
                dict(base, settings=dict(base["settings"], seed=seed))
            )
        assert len(instance._specs) == size


class TestFaultOrdinals:
    @staticmethod
    def plan(ordinal):
        return FaultPlan(
            events=(FaultEvent(
                "e0", "server_disconnect", "server.stream", at=ordinal
            ),),
            seed=0,
        )

    def test_disconnect_truncates_the_kth_line(self, server, reference):
        """On an all-warm batch the k-th probe of the site cuts the k-th
        line in half (``accepted`` is the first; plan ordinals count from
        0); the lines before it arrive whole."""
        _, address = server
        batch = GRID[:3]
        post_run(address, batch)
        whole = post_run(address, batch).splitlines(keepends=True)
        assert len(whole) == len(batch) + 2
        computed = server_stats(address)["server"]["computed"]
        for line in range(1, len(whole) + 1):
            install_plan(self.plan(line - 1))
            cut = whole[line - 1]
            assert post_run(address, batch) == (
                "".join(whole[: line - 1]) + cut[: max(1, len(cut) // 2)]
            )
            install_plan(self.plan(line - 1))
            results = ServiceClient(address).run_specs(batch)
            for spec, result in zip(batch, results.results):
                assert result.to_dict() == (
                    reference[content_key(spec)].to_dict()
                )
            uninstall_plan()
        assert server_stats(address)["server"]["computed"] == computed

#!/usr/bin/env python
"""Campaign-server walkthrough — and the CI service-smoke driver.

Submits one campaign from N concurrent clients and verifies the server's
single-flight contract: every distinct spec simulated exactly once, every
client handed bit-identical results, and (with a store) two
resubmissions answered entirely warm, each answer carrying the result the
first pass received.  The first resubmission reads payloads the server's
store validates on first sight; the second is answered from the ones it
has already validated.

Run against a live server:

    repro serve --socket /tmp/repro.sock --result-cache /tmp/repro.db &
    python examples/service_client.py --server unix:///tmp/repro.sock \\
        --clients 2 --expect-dedup --expect-warm

Or self-contained (spawns an in-process background server):

    python examples/service_client.py --clients 2 --expect-dedup
"""

import argparse
import json
import sys
import tempfile

sys.path.insert(0, "src")  # Allow running from a source checkout.

import concurrent.futures
import pathlib

from repro.api import ResultStore
from repro.service import Campaign, CampaignServer, ServiceClient

DEFAULT_CAMPAIGN = pathlib.Path(__file__).parent / "campaign.yml"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--server",
        help="address of a running server (unix:///path or http://host:port);"
        " omitted: spawn an in-process background server",
    )
    parser.add_argument(
        "--campaign", default=str(DEFAULT_CAMPAIGN),
        help="campaign file to submit (default: examples/campaign.yml)",
    )
    parser.add_argument(
        "--clients", type=int, default=2,
        help="number of concurrent clients (default: 2)",
    )
    parser.add_argument(
        "--expect-dedup", action="store_true",
        help="fail unless each distinct spec was computed exactly once",
    )
    parser.add_argument(
        "--expect-warm", action="store_true",
        help="resubmit twice and fail unless every answer came warm from "
        "the store with the first pass's result (needs a server-side "
        "store)",
    )
    args = parser.parse_args()

    campaign = Campaign.load(args.campaign)
    print(f"campaign {campaign.name}: {len(campaign.specs)} spec(s), "
          f"{args.clients} concurrent client(s)")

    owned_server = None
    tmp = None
    if args.server:
        address = args.server
    else:
        tmp = tempfile.TemporaryDirectory(prefix="repro-service-")
        store = ResultStore(pathlib.Path(tmp.name) / "store.db")
        owned_server = CampaignServer(
            store=store, socket_path=str(pathlib.Path(tmp.name) / "sock")
        )
        address = owned_server.start_background()
        print(f"spawned in-process server at {address}")

    try:
        client = ServiceClient(address)
        before = client.stats()["server"]

        with concurrent.futures.ThreadPoolExecutor(args.clients) as pool:
            outputs = list(
                pool.map(
                    lambda _: ServiceClient(address).run_specs(campaign.specs),
                    range(args.clients),
                )
            )

        reference = json.dumps(outputs[0].to_dict(), sort_keys=True)
        for result_set in outputs[1:]:
            if json.dumps(result_set.to_dict(), sort_keys=True) != reference:
                print("FAIL: clients received differing results")
                return 1
        print(f"all {args.clients} client(s) got identical results "
              f"({len(campaign.specs)} spec(s) each)")

        after = client.stats()["server"]
        computed = after["computed"] - before["computed"]
        coalesced = after["coalesced"] - before["coalesced"]
        warm = after["warm_hits"] - before["warm_hits"]
        unique = len({json.dumps(s.to_dict(), sort_keys=True)
                      for s in campaign.specs})
        print(f"server counters: computed={computed} coalesced={coalesced} "
              f"warm={warm} (unique specs: {unique})")

        if args.expect_dedup:
            total = args.clients * len(campaign.specs)
            if computed > unique:
                print(f"FAIL: {computed} computations for {unique} "
                      "unique spec(s) — in-flight dedup broken")
                return 1
            if computed + coalesced + warm != total:
                print("FAIL: outcome counters do not cover the submissions")
                return 1
            print("dedup OK: every distinct spec simulated at most once")

        if args.expect_warm:
            # Each warm answer must carry the very result the first pass
            # received (computed or coalesced on a fresh server).
            first = [
                json.dumps(record.result.to_dict(), sort_keys=True)
                for record in outputs[0].records
            ]
            for attempt in ("first", "second"):
                events = [
                    event for event in client.submit(campaign.specs)
                    if event.get("event") == "spec"
                ]
                not_warm = [
                    e["status"] for e in events if e["status"] != "warm"
                ]
                if not_warm:
                    print(f"FAIL: {attempt} resubmission produced non-warm "
                          f"statuses {sorted(set(not_warm))} — store not "
                          "serving")
                    return 1
                differing = [
                    event["index"] for event in events
                    if json.dumps(event["result"], sort_keys=True)
                    != first[event["index"]]
                ]
                if differing:
                    print(f"FAIL: {attempt} resubmission's warm answers for "
                          f"spec(s) {sorted(differing)} differ from the "
                          "first pass's results")
                    return 1
                print(f"warm OK: {attempt} resubmission answered "
                      f"{len(events)}/{len(campaign.specs)} spec(s) from the "
                      "store, each with the first pass's result")
    finally:
        if owned_server is not None:
            owned_server.stop_background()
        if tmp is not None:
            tmp.cleanup()

    return 0


if __name__ == "__main__":
    raise SystemExit(main())

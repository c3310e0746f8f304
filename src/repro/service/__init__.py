"""The grid service: a long-running campaign server over the execution layer.

:mod:`repro.service` promotes the one-shot CLI grid into shared
infrastructure — the "heavy traffic from many users" architecture of the
roadmap: N clients, one warm :class:`~repro.api.ResultStore`, zero
recomputation.

* :mod:`repro.service.scheduler` — the concurrency core: a bounded worker
  pool behind an asyncio front, single-flight deduplication of identical
  in-flight specs by store content key, warm answers straight from the
  shared store.
* :mod:`repro.service.server` — ``repro serve``: JSON over HTTP on
  localhost or a Unix socket, streaming per-spec progress/results back as
  NDJSON.
* :mod:`repro.service.client` — a thin synchronous client
  (:class:`ServiceClient`) speaking that protocol.
* :mod:`repro.service.campaign` — declarative YAML campaigns
  (``repro campaign run campaign.yml``): parameter grids expanded into
  spec batches, submitted in-process or to a running server.
"""

import importlib as _importlib

#: Each public name and the module that defines it.  A name is imported on
#: first access, so an in-process campaign (``repro.service.campaign``)
#: loads neither the server nor the scheduler, nor ``asyncio``, ``socket``
#: or the process pool.
_EXPORTS = {
    "Campaign": "repro.service.campaign",
    "CampaignServer": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "ServiceDisconnected": "repro.common.errors",
    "ServiceError": "repro.common.errors",
    "SpecOutcome": "repro.service.scheduler",
    "SpecScheduler": "repro.service.scheduler",
    "expand_campaign": "repro.service.campaign",
    "load_campaign": "repro.service.campaign",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}"
        )
    value = getattr(_importlib.import_module(module), name)
    globals()[name] = value  # Later reads skip this hook.
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""``repro.serve`` — the asynchronous campaign service.

Turns the in-process ``ExperimentRunner.run(spec)`` API into a
multi-tenant service: submissions enter a priority job queue, decompose
into (environment, mode, chip, core) units, coalesce against concurrent
jobs through the artifact cache's content-addressed keys, and run from
one priority queue drained by in-process threads — one block runner,
one per-unit retry budget, and graceful degradation (a poisoned cell
fails its job with a structured report; the service keeps serving
everyone else).

Three front doors:

* In process — :class:`CampaignService` (``submit``/``status``/
  ``progress``/``result``/``cancel``/``stats``).
* Over a socket — ``python -m repro.serve daemon`` and
  :class:`ServiceClient`, speaking the JSON-lines protocol of
  :mod:`repro.serve.protocol`.
* Batch — ``python -m repro.exps fig10 --service HOST:PORT`` delegates
  the ladder to a running daemon (:func:`run_ladder_remote`).
"""

from .batch import run_ladder_remote
from .coalesce import CellTask, InFlightRegistry, UnitTask, build_cell
from .daemon import DEFAULT_ADDRESS, ServiceClient, ServiceDaemon, parse_address
from .jobs import CellFailure, Job, JobState
from .protocol import (
    PROTOCOL_VERSION,
    SUPPORTED_PROTOCOL_VERSIONS,
    ProtocolError,
    ProtocolVersionError,
    UnknownWorkloadError,
    check_version,
    spec_from_wire,
    spec_to_wire,
    summaries_from_wire,
    summaries_to_wire,
    workloads_from_wire,
    workloads_to_wire,
)
from .scheduler import CellScheduler
from .service import (
    CampaignService,
    JobCancelledError,
    JobFailedError,
    ServiceBusyError,
    ServiceError,
    UnknownJobError,
)

__all__ = [
    "CampaignService",
    "CellFailure",
    "CellScheduler",
    "CellTask",
    "DEFAULT_ADDRESS",
    "InFlightRegistry",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobState",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ProtocolVersionError",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "ServiceBusyError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "UnitTask",
    "UnknownJobError",
    "UnknownWorkloadError",
    "build_cell",
    "check_version",
    "parse_address",
    "run_ladder_remote",
    "spec_from_wire",
    "spec_to_wire",
    "summaries_from_wire",
    "summaries_to_wire",
    "workloads_from_wire",
    "workloads_to_wire",
]

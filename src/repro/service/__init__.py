"""Provider-side inspection service: batching, parallelism, memoization.

The paper's pipeline inspects one binary per provisioning run.  This
package is the scaling layer a cloud provider actually deploys: a
content-addressed verdict cache (:mod:`repro.service.cache`), a parallel
batch front-end with per-binary error isolation
(:mod:`repro.service.batch`), and deterministic variant corpora for
stress and differential testing (:mod:`repro.service.corpus`).

The service never touches the pipeline itself — every verdict is still
produced by :class:`repro.core.EnGarde`, and the differential tests hold
the batch path byte-identical to the sequential baseline.

The batch front-end is also where the fail-closed resilience layer
lives: retry-with-backoff, per-item deadlines, a :class:`Quarantine`
for repeat offenders, and pool-to-serial degradation (see
``docs/RESILIENCE.md``).

On top of all of it sits the long-lived serving layer (see
``docs/DAEMON.md``): :class:`InspectionDaemon` keeps the whole stack
warm behind a framed, versioned socket protocol with per-connection
attestation, and :class:`InspectionClient` is the tenant SDK that
verifies the daemon before trusting a single verdict.  Given a
:class:`TieredCache` over a :class:`VerdictStore`, the daemon's
verdicts outlive the process.
"""

from .batch import (
    BatchInspector,
    BatchItemResult,
    BatchReport,
    BatchSummary,
    Quarantine,
    default_workers,
)
from .cache import CacheStats, InspectionCache, cache_key, policy_digest
from .client import (
    ClientVerdict,
    InspectionClient,
    RemoteError,
    device_key_from_announce,
)
from .corpus import VARIANT_KINDS, generate_variant_corpus
from .daemon import InspectionDaemon
from .metrics import DaemonMetrics, LatencyHistogram
from .pool import EnclavePool, PooledEnclave
from .store import ZERO_STORE, TieredCache, VerdictStore

__all__ = [
    "BatchInspector", "BatchItemResult", "BatchReport", "BatchSummary",
    "Quarantine", "default_workers",
    "InspectionCache", "CacheStats", "cache_key", "policy_digest",
    "generate_variant_corpus", "VARIANT_KINDS",
    "InspectionDaemon", "InspectionClient", "ClientVerdict", "RemoteError",
    "device_key_from_announce",
    "EnclavePool", "PooledEnclave", "DaemonMetrics", "LatencyHistogram",
    "VerdictStore", "TieredCache", "ZERO_STORE",
]

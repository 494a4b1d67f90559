"""Reproduction of *"An Agent-Based Approach to Extending the Native
Active Capability of Relational Database Systems"* (Chakravarthy & Li,
ICDE 1999 / AFRL-IF-RS-TR-1999-20).

The package turns a passive relational engine into a full active database
system by interposing a mediator -- the **ECA Agent** -- between clients
and the server, exactly as the paper describes:

- :mod:`repro.sqlengine` -- the passive SQL server substrate (stands in
  for Sybase SQL Server 11);
- :mod:`repro.snoop` -- the Snoop composite-event specification language;
- :mod:`repro.led` -- the Local Event Detector (Sentinel's LED);
- :mod:`repro.agent` -- the ECA Agent mediator itself;
- :mod:`repro.core` -- the public facade (:class:`~repro.core.ActiveDatabase`);
- :mod:`repro.baselines` -- the alternative approaches the paper compares
  against qualitatively (polling, embedded situation checks);
- :mod:`repro.workloads` -- workload generators for the benchmarks;
- :mod:`repro.ged` -- the Global Event Detector extension (Section 6
  future work);
- :mod:`repro.obs` -- the observability layer (metrics registry and one
  event stream viewed as span trace, provenance journal and slow-op log);
- :mod:`repro.faults` -- the robustness layer (deterministic fault
  injection and retry policies, with chaos-tested recovery).
"""

from repro.core import ActiveDatabase, Context, Coupling
from repro.errors import ConfigurationError, NotSupportedError, ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    SimulatedCrash,
    TransientFaultError,
)

__version__ = "1.1.0"

__all__ = [
    "ActiveDatabase",
    "ConfigurationError",
    "Context",
    "Coupling",
    "FaultInjector",
    "FaultPlan",
    "NotSupportedError",
    "ReproError",
    "RetryPolicy",
    "SimulatedCrash",
    "TransientFaultError",
    "__version__",
]

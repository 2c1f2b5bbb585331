"""Workload generation.

Filebench-style profiles drive every performance experiment:

* :mod:`repro.workloads.profiles` — parameterized mixes: ``fileserver``
  (create/write/read/delete), ``varmail`` (small appends + heavy
  fsync), ``webserver`` (read-mostly over a pre-populated tree), and
  ``metadata`` (mkdir/rename/unlink churn);
* :mod:`repro.workloads.generator` — a seeded op-stream generator that
  models the namespace and descriptor table it is creating, so the
  stream is valid against any :class:`~repro.api.FilesystemAPI`
  implementation and *identical* across them (the differential tests
  depend on this);
* :mod:`repro.workloads.apps` — :class:`SimulatedApplication`, which
  executes a stream against a filesystem while tracking the content it
  believes it wrote, self-verifying on read — the paper's "only
  applications can detect their corruption" observer.
"""

from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import (
    Profile,
    fileserver_profile,
    metadata_profile,
    varmail_profile,
    webserver_profile,
)
from repro.workloads.apps import AppStats, SimulatedApplication

__all__ = [
    "Profile",
    "fileserver_profile",
    "varmail_profile",
    "webserver_profile",
    "metadata_profile",
    "WorkloadGenerator",
    "SimulatedApplication",
    "AppStats",
]

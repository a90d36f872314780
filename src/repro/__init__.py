"""repro — the arbitrary tree-structured replica control protocol.

A production-quality reproduction of Bahsoun, Basmadjian & Guerraoui,
*"An Arbitrary Tree-Structured Replica Control Protocol"* (ICDCS 2008):

* :mod:`repro.core` — the arbitrary protocol: logical/physical trees,
  Algorithm 1, quorum construction, closed-form metrics, the six named
  configurations and a tuning advisor;
* :mod:`repro.quorums` — quorum-system theory (coteries, strategies, the
  optimal-load LP, availability);
* :mod:`repro.protocols` — the baselines the paper compares against
  (tree quorums, HQC, ROWA, majority, grid, finite projective planes);
* :mod:`repro.sim` — a discrete-event distributed-system simulator
  implementing the paper's Section 2.2 system model (fail-stop sites,
  lossy links, partitions, timestamps, 2PC, centralised locking);
* :mod:`repro.analysis` — figure/table sweeps used by the benchmarks.

Quickstart::

    from repro import core

    tree = core.from_spec("1-3-5")          # the paper's running example
    protocol = core.ArbitraryProtocol(tree)
    summary = core.analyse(tree, p=0.7)
    print(summary.read_cost, summary.write_load)

Subpackages load on first attribute access (PEP 562), so a process that
needs only part of the library — a replica site serving one socket —
never pays for numpy, scipy or the analysis code.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["analysis", "core", "protocols", "quorums", "sim", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""What a site process loads, and the lazy package re-exports behind it.

A real cluster's launcher imports the serving path once and forks every
site from it, so each module that path imports is paid at every cluster
start.  These checks run in a fresh interpreter and inspect
``sys.modules`` — no timing — so they are deterministic: neither the site
entry module nor the launcher may drag in numpy, scipy, the CLI, the
analysis code, the optimal-load LP, the coordinator or the simulation
engine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.sim
from repro.runtime.cluster import LAUNCHER

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a site process never needs.
SITE_FORBIDDEN = (
    "numpy",
    "scipy",
    "repro.cli",
    "repro.analysis",
    "repro.quorums.load",
    "repro.sim.coordinator",
    "repro.sim.engine",
)


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=60, check=True,
        stdin=subprocess.DEVNULL,  # the launcher serves until stdin EOF
    )


def _loaded_after(statement: str, candidates) -> list[str]:
    """Which of ``candidates`` are in ``sys.modules`` after ``statement``."""
    probe = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {list(candidates)!r} "
        f"if m in sys.modules]))"
    )
    return json.loads(_run("-c", probe).stdout)


def test_site_entry_module_loads_only_the_serving_path():
    loaded = _loaded_after("import repro.runtime.siteserver", SITE_FORBIDDEN)
    assert loaded == []


def test_launcher_entry_loads_only_the_serving_path():
    # The launcher's own entry, run with a host and no SIDs to fork.
    statement = f"sys.argv[1:] = ['127.0.0.1']\n{LAUNCHER}"
    assert _loaded_after(statement, SITE_FORBIDDEN) == []


def test_probe_detects_heavy_imports():
    # Guards the check above against passing vacuously.
    loaded = _loaded_after("import repro.sim.engine", SITE_FORBIDDEN)
    assert "repro.sim.engine" in loaded and "numpy" in loaded


def test_importing_the_package_does_not_load_scipy():
    assert _loaded_after("import repro", ("scipy",)) == []


@pytest.mark.parametrize("package", [repro, repro.sim],
                         ids=["repro", "repro.sim"])
def test_every_reexport_resolves_and_is_listed(package):
    listing = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listing


@pytest.mark.parametrize("package", [repro, repro.sim],
                         ids=["repro", "repro.sim"])
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_reexports_are_the_defining_objects():
    from repro.sim.engine import SimulationConfig
    from repro.sim.site import Site

    assert repro.sim.SimulationConfig is SimulationConfig
    assert repro.sim.Site is Site
    assert repro.core.from_spec("1-3-5").n == 8


def test_repro_serve_help_lists_the_site_flags():
    usage = _run("-m", "repro", "serve", "--help").stdout
    for flag in ("--sid", "--host", "--port", "--service-time"):
        assert flag in usage

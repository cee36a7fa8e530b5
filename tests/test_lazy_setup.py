"""Set-up loads only what a run executes, and the lazy exports hold.

Package ``__init__`` modules resolve their names on first access
(``repro._lazy``), so importing the workloads' entry modules must not
compile figures, ablations, sweeps, the experiment catalogue, the flow
or the trace report and sinks, and nothing may import ``numpy.ma``.
Every module a run executes is imported at set-up, so a Table-1 row or
a campaign loads nothing more.  Each check runs in a fresh interpreter:
this process has imported most of the package already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The entry modules of the paper's workloads (Table 1 and a campaign)
#: and their stage drivers.
ENTRY_MODULES = (
    "repro.experiments.table1",
    "repro.runtime.campaign",
    "repro.runtime.artifacts",
    "repro.runtime.parallel",
    "repro.optimize.portfolio",
    "repro.netlist.benchmarks",
    "repro.faultsim.atpg",
)

#: Modules no workload runs: experiments other than Table 1, the
#: catalogue, the flow, trace reporting and export, and the optimisers
#: only the ablations use.  A name matches itself and its submodules.
NOT_AT_SETUP = (
    "repro.experiments.ablations",
    "repro.experiments.catalog",
    "repro.experiments.complement",
    "repro.experiments.corners",
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure45",
    "repro.experiments.motivation",
    "repro.experiments.sweeps",
    "repro.flow",
    "repro.obs.report",
    "repro.obs.sinks",
    "repro.optimize.force_directed",
    "repro.optimize.greedy",
    "repro.optimize.random_search",
)

PACKAGES = (
    "netlist",
    "analysis",
    "optimize",
    "faultsim",
    "obs",
    "sensors",
    "partition",
    "library",
    "runtime",
    "flow",
    "experiments",
)

_SETUP_PROBE = """
import importlib, json, sys, tempfile
import numpy

numpy_loads_ma = "numpy.ma" in sys.modules

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

for module in {entry!r}:
    importlib.import_module(module)
from repro.netlist.benchmarks import TABLE1_CIRCUITS, load_iscas85

for name in TABLE1_CIRCUITS:
    load_iscas85(name).compiled
setup, setup_ma = loaded(), "numpy.ma" in sys.modules

from repro.experiments.table1 import run_table1

run_table1(("c17",), quick=True)
after_table1 = loaded()

from repro.runtime.campaign import CampaignConfig, run_campaign

with tempfile.TemporaryDirectory() as cache:
    run_campaign(CampaignConfig(circuits=("c17",), jobs=1, cache_dir=cache, quick=True))
print(json.dumps({{
    "numpy_loads_ma": numpy_loads_ma,
    "setup": setup,
    "setup_ma": setup_ma,
    "after_table1": after_table1,
    "after_campaign": loaded(),
    "runs_ma": "numpy.ma" in sys.modules,
}}))
"""

_EXPORTS_PROBE = """
import importlib, json, pkgutil, sys, types

problems = []
for short in {packages!r}:
    name = "repro." + short
    package = importlib.import_module(name)
    star = {{}}
    exec("from " + name + " import *", star)
    listing = dir(package)
    submodules = [
        importlib.import_module(name + "." + info.name)
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")
    ]
    for attr in package.__all__:
        value = getattr(package, attr)
        if star.get(attr) is not value:
            problems.append(name + "." + attr + ": import * binds another object")
        if attr not in listing:
            problems.append(name + "." + attr + ": missing from dir()")
        if isinstance(value, types.ModuleType):
            if value is not sys.modules.get(name + "." + attr):
                problems.append(name + "." + attr + ": not the submodule")
            continue
        owners = {{m.__name__ for m in submodules if vars(m).get(attr) is value}}
        home = getattr(value, "__module__", None)
        if not owners:
            problems.append(name + "." + attr + ": no submodule binds it")
        elif isinstance(home, str) and home.startswith(name + ".") and home not in owners:
            problems.append(name + "." + attr + ": not " + home + "'s object")
    if hasattr(package, "no_such_name"):
        problems.append(name + ": resolves an unknown name")
print(json.dumps(problems))
"""


#: Every experiment module the catalogue can run.
EXPERIMENT_MODULES = (
    "repro.experiments.ablations",
    "repro.experiments.complement",
    "repro.experiments.corners",
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure45",
    "repro.experiments.motivation",
    "repro.experiments.sweeps",
    "repro.experiments.table1",
)

_CATALOG_PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m in {modules!r})

from repro.experiments.catalog import experiment_names, run_experiment

names = experiment_names()
listed = loaded()
listed_repro = sorted(m for m in sys.modules if m.startswith("repro"))

import repro.experiments.table1 as table1

full = table1.run_table1
table1.run_table1 = lambda quick: full(("c17",), quick=quick)
result = run_experiment("table1", quick=True)
print(json.dumps({{
    "names": list(names),
    "listed": listed,
    "listed_repro": listed_repro,
    "ran": loaded(),
    "title": result.render().splitlines()[0],
    "rows": [row[0] for row in result.rows],
}}))
"""


def _run(source: str) -> object:
    """Run ``source`` in a fresh interpreter on this checkout's package;
    returns the JSON its last output line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    for knob in ("REPRO_TRACE", "REPRO_METRICS", "REPRO_JOBS"):
        env.pop(knob, None)
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def setup_probe() -> dict:
    return _run(_SETUP_PROBE.format(entry=ENTRY_MODULES))


def test_setup_skips_modules_no_workload_runs(setup_probe):
    loaded = [
        module for module in setup_probe["setup"]
        if any(module == name or module.startswith(name + ".") for name in NOT_AT_SETUP)
    ]
    assert loaded == []


def test_setup_and_runs_never_import_numpy_ma(setup_probe):
    if setup_probe["numpy_loads_ma"]:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert not setup_probe["setup_ma"]
    assert not setup_probe["runs_ma"]


def test_runs_import_no_module_after_setup(setup_probe):
    """A quick c17 Table-1 row and a serial c17 campaign run only what
    set-up imported, so no module compiles inside the timed part."""
    setup = set(setup_probe["setup"])
    assert sorted(set(setup_probe["after_table1"]) - setup) == []
    assert sorted(set(setup_probe["after_campaign"]) - setup) == []


def test_catalog_loads_only_the_experiment_it_runs():
    """Listing the experiments loads none of their modules, nor what
    they render with, and running Table 1 (here on c17 alone) loads
    only its own."""
    probe = _run(_CATALOG_PROBE.format(modules=EXPERIMENT_MODULES))
    assert "table1" in probe["names"] and "figure2" in probe["names"]
    assert probe["listed"] == []
    assert probe["listed_repro"] == [
        "repro",
        "repro._lazy",
        "repro.errors",
        "repro.experiments",
        "repro.experiments.catalog",
    ]
    assert probe["ran"] == ["repro.experiments.table1"]
    assert probe["rows"] == ["c17"]
    assert probe["title"].startswith("== ")


def test_every_export_resolves_to_its_submodule():
    """Each package's ``__all__`` resolves lazily to a submodule's own
    object, lists in ``dir()`` and binds under ``import *``."""
    assert _run(_EXPORTS_PROBE.format(packages=PACKAGES)) == []

"""Meta-tests: the public API is documented and coherent."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro", "repro.cli", "repro.config",
    "repro.errors", "repro.units",
    "repro.sim", "repro.sim.events", "repro.sim.environment",
    "repro.sim.process", "repro.sim.sync", "repro.sim.resources",
    "repro.sim.fluid", "repro.sim.rand", "repro.sim.kernel",
    "repro.mem", "repro.mem.block", "repro.mem.device", "repro.mem.allocator",
    "repro.mem.topology", "repro.mem.mover", "repro.mem.registry",
    "repro.mem.cache",
    "repro.machine", "repro.machine.node",
    "repro.machine.knl", "repro.machine.stream",
    "repro.runtime", "repro.runtime.message", "repro.runtime.entry",
    "repro.runtime.chare", "repro.runtime.pe", "repro.runtime.converse",
    "repro.runtime.interception", "repro.runtime.reduction",
    "repro.runtime.loadbalance", "repro.runtime.runtime",
    "repro.core", "repro.core.api", "repro.core.ooc_task", "repro.core.hbm",
    "repro.core.eviction", "repro.core.manager",
    "repro.core.strategies", "repro.core.strategies.base",
    "repro.apps", "repro.apps.stencil3d", "repro.apps.matmul",
    "repro.apps.stream_app", "repro.apps.jacobi2d", "repro.apps.spmv",
    "repro.lint", "repro.lint.findings", "repro.lint.rules",
    "repro.lint.static_checker", "repro.lint.sanitizer",
    "repro.lint.dataflow", "repro.lint.traffic",
    "repro.lint.guidance", "repro.lint.callgraph", "repro.lint.phases",
    "repro.lint.sarif", "repro.lint.cache", "repro.lint.nodeindex",
    "repro.hooks",
    "repro.race", "repro.race.clock",
    "repro.race.detector", "repro.race.model_checker", "repro.race.explorer",
    "repro.metrics", "repro.metrics.instruments",
    "repro.metrics.registry", "repro.metrics.recorder",
    "repro.metrics.export", "repro.metrics.bind", "repro.metrics.session",
    "repro.exec", "repro.exec.spec", "repro.exec.fingerprint",
    "repro.exec.cache", "repro.exec.runners", "repro.exec.engine",
    "repro.exec.apps",
    "repro.obs", "repro.obs.spans", "repro.obs.critpath",
    "repro.obs.stats", "repro.obs.report", "repro.obs.trend",
    "repro.obs.html",
    "repro.trace", "repro.bench",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, \
        f"{module_name} lacks a meaningful module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    public = getattr(module, "__all__", None)
    if public is None:
        return
    undocumented = []
    for name in public:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name}: undocumented public items {undocumented}"


def test_all_subpackage_modules_are_listed():
    """Every module under repro/ appears in the doc checklist above."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        found.add(info.name)
    missing = {m for m in found
               if m not in MODULES
               and not m.endswith("__main__")
               # strategy implementations are documented via the registry
               and not m.startswith("repro.core.strategies.")
               and not m.startswith("repro.trace.")
               and not m.startswith("repro.bench.")}
    assert not missing, f"modules missing from the doc checklist: {missing}"


def test_version_is_consistent():
    import tomllib
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["version"] == repro.__version__

"""Every library module is reached from the CLI or a REGISTRY experiment.

The paper's results are the REGISTRY experiments and the CLI commands
that run them (``run``, ``report``, ``pipeline``). A module none of them
imports is library code that no golden digest or ``report`` shape check
pins, so it may not exist. The walk is static: it parses each module
with :mod:`ast` and follows every ``import`` in it, including the ones
inside functions, starting from ``repro.__main__`` and from the module
of each REGISTRY driver.

A package ``__init__`` is a facade. Importing one name from it follows
only the import in the facade that binds that name, not every
re-export, so a module that is merely re-exported does not count as
reached. A name the facade defines itself (``REGISTRY``) uses the whole
facade.
"""

import ast
import pathlib

import repro
from repro.experiments import REGISTRY

SRC = pathlib.Path(repro.__file__).parent

#: Modules no experiment needs. The version string is read through
#: ``repro.__version__`` and by packaging only. The others are library
#: code that no experiment calls but that keeps its own unit tests; the
#: list may only shrink (each entry must stay unreached and present).
ALLOWED_UNREACHED = {
    "repro.version",
    "repro.analysis.energy",
    "repro.analysis.scheduling",
    "repro.cpu.faults",
    "repro.dram.profiling",
    "repro.dram.scrubber",
    "repro.simkit.process",
    "repro.simkit.resources",
    "repro.viruses.dpbench",
    "repro.workloads.traces",
}


def _module_files():
    """Dotted module name -> source file, for every module under repro."""
    files = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


class ImportGraph:
    """Static import reachability over the ``repro`` source tree."""

    def __init__(self):
        self.files = _module_files()
        self.reached = set()
        self._walked = set()

    def _is_package(self, module):
        return self.files[module].name == "__init__.py"

    def _tree(self, module):
        return ast.parse(self.files[module].read_text(), str(self.files[module]))

    def _load(self, module):
        """Mark *module* and the packages above it as loaded."""
        parts = module.split(".")
        for end in range(1, len(parts) + 1):
            self.reached.add(".".join(parts[:end]))

    def _base(self, module, node):
        """Absolute module named by an ``ImportFrom`` node in *module*."""
        if not node.level:
            return node.module
        package = module if self._is_package(module) else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}" if node.module else package

    def walk(self, module):
        """Use *module*'s whole body: follow every import in it."""
        if module in self._walked or module not in self.files:
            return
        self._walked.add(module)
        self._load(module)
        for node in ast.walk(self._tree(module)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.walk(alias.name)
            elif isinstance(node, ast.ImportFrom):
                self.import_from(self._base(module, node),
                                 [alias.name for alias in node.names])

    def import_from(self, base, names):
        """Follow ``from base import names``."""
        if base not in self.files:
            return
        if not self._is_package(base):
            self.walk(base)
            return
        self._load(base)
        for name in names:
            if f"{base}.{name}" in self.files:
                self.walk(f"{base}.{name}")
            else:
                self._follow_binding(base, name)

    def _follow_binding(self, package, name):
        """Follow the import in *package*'s facade that binds *name*."""
        for node in self._tree(package).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        self.import_from(self._base(package, node), [alias.name])
                        return
        self.walk(package)


def test_every_module_is_reached_from_the_cli_or_an_experiment():
    graph = ImportGraph()
    for root in {"repro.__main__"} | {fn.__module__ for fn in REGISTRY.values()}:
        graph.walk(root)
    unreached = sorted(set(graph.files) - graph.reached - ALLOWED_UNREACHED)
    assert not unreached, (
        "modules no experiment or CLI command reaches (make them "
        f"reachable or delete them): {unreached}")
    # An allowlisted module that becomes reachable or is deleted leaves the list.
    assert ALLOWED_UNREACHED <= set(graph.files) - graph.reached


def test_facade_reexports_are_followed_only_by_name():
    """Importing one name from a facade does not reach its siblings."""
    graph = ImportGraph()
    graph.import_from("repro.soc", ["Chip"])
    assert {"repro", "repro.soc", "repro.soc.chip"} <= graph.reached
    assert "repro.soc.slimpro" not in graph.reached

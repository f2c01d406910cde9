"""Documentation quality gates.

The library promises doc comments on every public item; these tests
keep that promise honest as the code evolves.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import shlex

import pytest

import repro
from repro.__main__ import build_parser
from repro.core.faults import FaultSpec
from repro.experiments import REGISTRY

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent


def _all_modules():
    for info in pkgutil.walk_packages([str(PACKAGE_ROOT)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_all_modules())


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their origin
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


def test_public_methods_documented_in_key_classes():
    from repro.core.framework import CharacterizationFramework
    from repro.core.vmin import VminSearch
    from repro.dram.ecc import SecdedCode
    from repro.soc.chip import Chip
    for cls in (Chip, SecdedCode, VminSearch, CharacterizationFramework):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert member.__doc__ and member.__doc__.strip(), \
                f"{cls.__name__}.{name}"


def test_design_and_experiments_docs_exist():
    repo_root = PACKAGE_ROOT.parent.parent
    for doc in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
        path = repo_root / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 1000, doc


#: A ``python -m repro ...`` command in a doc, up to a comment or the
#: closing backtick of an inline code span.
DOC_COMMAND = re.compile(r"python -m repro\b([^`#\n]*)")
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _doc_commands():
    for doc in ("README.md", "EXPERIMENTS.md"):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for match in DOC_COMMAND.finditer(line):
                yield f"{doc}:{lineno}", shlex.split(match.group(1))


DOC_COMMANDS = list(_doc_commands())


def test_docs_show_cli_commands():
    assert len(DOC_COMMANDS) >= 20


@pytest.mark.parametrize("where,argv", DOC_COMMANDS,
                         ids=[where for where, _ in DOC_COMMANDS])
def test_documented_cli_commands_parse(where, argv):
    """Every documented command parses with the CLI's own parser (it is
    not run), names a known experiment and a well-formed fault spec."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{where}: python -m repro {' '.join(argv)} does not parse")
    if args.command == "run" and args.experiment != "all":
        assert args.experiment in REGISTRY, where
    if getattr(args, "faults", None) is not None:
        FaultSpec.parse(args.faults)

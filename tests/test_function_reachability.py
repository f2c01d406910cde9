"""Every ``src/`` function is entered by a CLI command or an example.

``tests/test_reachability.py`` keeps every *module* reachable. This
guard does the same per function. One fresh interpreter installs
:func:`sys.setprofile` before ``import repro`` (so calls made at import
time count), runs :data:`COMMANDS` through :func:`repro.__main__.main`
and then every script in ``examples/``. Each top-level function and each
method of a top-level class under ``src/repro`` that the interpreter
never entered must be on :data:`ALLOWED_UNENTERED` with a reason; every
other one fails the test, by name.

The allowlist may only shrink: an entry whose function is entered, or
no longer exists, fails the test too. It holds four groups: code that
runs only inside pool workers (another process, so the profiler cannot
see it); the scalar oracles tests compare batched paths against; fault
paths no command reaches; and input validation.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: Heavy module: deselected from the smoke tier (``pytest -m "not slow"``).
pytestmark = pytest.mark.slow

SRC = pathlib.Path(repro.__file__).parent
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

#: ``(argv, exit code)`` run in order; ``{dir}`` is a scratch directory.
COMMANDS = (
    (["report"], 0),
    (["run", "all"], 0),
    (["run", "table1", "--faults", "thermal=3"], 0),
    (["run", "fig8a", "--faults", "thermal=3"], 0),
    (["run", "fig4", "--fast", "--faults", "real=3"], 0),
    # A faulted checkpointed pipeline, then its fully resumed rerun.
    (["pipeline", "--fast", "--faults", "random=11",
      "--resume", "{dir}/resume"], 0),
    (["pipeline", "--fast", "--faults", "random=11",
      "--resume", "{dir}/resume"], 0),
    (["pipeline", "--fast", "--transport", "serial",
      "--faults", "random=11"], 0),
    # A pool run: the parent-side supervisor code.
    (["run", "fig4", "--fast", "--jobs", "2", "--faults", "real=3",
      "--unit-timeout", "60"], 0),
    (["pipeline", "--fast", "--out", "{dir}/cloud.csv"], 0),
    (["run", "fig4", "--jobs", "0"], 2),
    # A poisoned shard is quarantined, then resurfaces from the checkpoint.
    (["pipeline", "--fast", "--faults", "real=3", "--max-retries", "0",
      "--resume", "{dir}/quarantine"], 0),
    (["pipeline", "--fast", "--faults", "real=3", "--max-retries", "0",
      "--resume", "{dir}/quarantine"], 0),
)

_WORKER = "runs only inside a pool worker process"
_ORACLE = "scalar oracle the batched-path tests compare against"
_ZONE = ("zone-quarantine path: FaultSpec draws only recoverable thermal "
         "plans, so no command quarantines a zone")
_SECDED = ("SECDED decoder path: the scrub decodes only words with >= 3 "
           "failing bits, and no traced budget produces one")

#: ``module:qualified name`` -> why nothing above enters it.
ALLOWED_UNENTERED = {
    # Pool workers.
    "repro.core.supervisor:_worker": _WORKER,
    "repro.core.faults:run_injected_real_fault": _WORKER,
    # Scalar oracles.
    "repro.soc.chip:Chip.observe_run": _ORACLE,
    "repro.core.classify:classify_run_log": _ORACLE,
    "repro.dram.ecc:SecdedCode.decode_with_truth": _ORACLE,
    "repro.cpu.execution:blas_threads":
        "the BLAS thread-count reading the pinning tests compare against",
    # Fault paths no command reaches.
    "repro.thermal.testbed:ThermalTestbed.quarantine_zone": _ZONE,
    "repro.thermal.monitor:ZoneMonitor.force_quarantine": _ZONE,
    "repro.thermal.monitor:ZoneMonitor._trip": _ZONE,
    "repro.thermal.monitor:ZoneQuarantine.describe": _ZONE,
    "repro.dram.geometry:DramGeometry.device_location": _ZONE,
    "repro.core.faults:thermal_faults_recoverable": _ZONE,
    "repro.core.faults:ThermalFault.overlaps": _ZONE,
    "repro.core.faults:ThermalFault.recoverable": _ZONE,
    "repro.core.faults:FaultPlan.thermal_recoverable": _ZONE,
    "repro.thermal.monitor:ZoneMonitor._strike_spd":
        "SPD strikes accrue only while the SPD reading is implausible or "
        "disagrees; the traced thermal=3 plan never makes it so",
    "repro.errors:SupervisionError.__init__":
        "raised only when a unit is quarantined and the caller unwraps "
        "the map; the experiments report quarantines instead",
    "repro.dram.ecc:SecdedCode.encode": _SECDED,
    "repro.dram.ecc:SecdedCode.flip_bits": _SECDED,
    "repro.dram.ecc:SecdedCode.decode": _SECDED,
    "repro.dram.ecc:SecdedCode._syndrome": _SECDED,
    "repro.dram.ecc:SecdedCode._locate": _SECDED,
    # Input validation.
    "repro.core.classify:RunLog.__post_init__":
        "rejects negative error counts",
    "repro.soc.domains:DomainName.__str__":
        "names the rail in the regulators' range-check errors",
}

#: Runs in the traced interpreter: argv[1] is a JSON job description.
_CHILD = """
import contextlib, io, json, runpy, sys, threading

job = json.loads(sys.argv[1])
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
threading.setprofile(profile)

from repro.__main__ import main

codes = []
for argv in job["commands"]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
for script in job["examples"]:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(script, run_name="__main__")
sys.setprofile(None)
threading.setprofile(None)
with open(job["out"], "w") as handle:
    json.dump({"codes": codes,
               "entered": sorted({(c.co_filename, c.co_firstlineno)
                                  for c in entered})}, handle)
"""


def _functions():
    """``module:qualified name`` -> ``(file, first line)`` for every
    top-level function and method of a top-level class under ``SRC``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] +
                                [d.lineno for d in node.decorator_list])
                    found[f"{module}:{prefix}{node.name}"] = (str(path), first)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")

        visit(tree.body, "")
    return found


@pytest.fixture(scope="module")
def unentered(tmp_path_factory):
    """Qualified names of the functions the traced run never entered."""
    scratch = tmp_path_factory.mktemp("traced")
    out = scratch / "entered.json"
    job = {
        "commands": [[arg.replace("{dir}", str(scratch)) for arg in argv]
                     for argv, _code in COMMANDS],
        "examples": [str(path) for path in sorted(EXAMPLES.glob("*.py"))],
        "out": str(out),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(job)],
                            capture_output=True, text=True, timeout=900,
                            env=env, cwd=str(scratch))
    assert result.returncode == 0, result.stderr[-3000:]
    traced = json.loads(out.read_text())
    assert traced["codes"] == [code for _argv, code in COMMANDS]
    entered = {tuple(site) for site in traced["entered"]}
    return {name for name, site in _functions().items()
            if site not in entered}


def test_every_function_is_entered_or_allowlisted(unentered):
    stray = sorted(unentered - set(ALLOWED_UNENTERED))
    assert not stray, (
        "src functions no CLI command or example enters (make them "
        f"reachable, allowlist them with a reason, or delete them): {stray}")


def test_allowlist_only_shrinks(unentered):
    gone = sorted(set(ALLOWED_UNENTERED) - set(_functions()))
    assert not gone, f"allowlisted functions that no longer exist: {gone}"
    entered = sorted(set(ALLOWED_UNENTERED) - unentered)
    assert not entered, (
        f"allowlisted functions the traced run now enters (drop them "
        f"from the allowlist): {entered}")

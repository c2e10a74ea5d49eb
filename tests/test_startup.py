"""Start-up: each command runs only the module bodies it needs.

Every `packbound` process compiles the modules it imports, so a command
that never touches a module should not run its body.  These tests run
commands in a fresh interpreter (no bytecode written, a cleared
environment) under an audit hook that records the file of every code
object executed with `exec`, which is how the import system runs a module
body.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import packbound

PACKAGE = Path(packbound.__file__).resolve().parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

ADVERSARIES = {"adversary", "knownopt", "squares", "clcbp"}

# what `import packbound.cli` runs.  The benchmark's tracer reads
# `sys.modules` right after that import, and each of its set-up spawns must
# record at least one CPU-speed probe (one per 5 ms of CPU time): compiled
# from source, the import and the parser record 4-8, down from 7-13 while
# the records were dataclasses; the other modules are registered lazily.
CORE = {"__init__", "cli", "exact", "model", "algorithms", "optoracle", "reports"}


def run_fresh(statement: str, result: str, setup: str = ""):
    """The JSON value of the expression `result` in a fresh interpreter that
    runs `setup` and then `statement`, with the statement's stdout discarded."""
    script = (
        f"import contextlib, io, json, sys\n{setup}"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statement}\n"
        f"print(json.dumps({result}))\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", script],
                          env={"PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def bodies_run(statement: str) -> set[str]:
    """The packbound modules whose bodies run in a fresh interpreter that
    executes `statement`."""
    hook = ("ran = []\n"
            "def hook(event, args):\n"
            "    if event == 'exec':\n"
            "        ran.append(args[0].co_filename)\n"
            "sys.addaudithook(hook)\n")
    files = [Path(f) for f in run_fresh(statement, "ran", hook)]
    return {f.stem for f in files if f.parent == PACKAGE}


def command(*argv: str) -> str:
    """A statement that runs one successful `packbound` command."""
    return f"from packbound.cli import main; assert main({list(argv)!r}) == 0"


def command_bodies(*argv: str) -> set[str]:
    """The module bodies one successful `packbound` command runs."""
    return bodies_run(command(*argv))


class TestCommandModules:
    def test_import_runs_the_eager_core(self):
        assert bodies_run("import packbound.cli") == CORE

    def test_oracle_runs_no_program_and_no_adversary(self):
        ran = command_bodies("oracle", "--instance", str(FIXTURES / "oracle" / "plain.json"))
        assert not ran & ({"mathprog", "algebra", "shapes", "oracle"} | ADVERSARIES)

    def test_a_ko_duel_runs_its_adversary_only(self):
        ran = command_bodies("duel", "--variant", "ko", "--algorithm", "first-fit", "--m", "8")
        assert {"knownopt", "adversary", "oracle", "shapes"} <= ran
        assert not ran & {"mathprog", "algebra", "squares", "clcbp"}

    @pytest.mark.parametrize("variant", [["sp", "--algorithm", "shelf-first-fit"],
                                         ["clcbp", "--t", "2", "--algorithm", "ccff"]])
    def test_the_other_duels_run_no_program(self, variant):
        ran = command_bodies("duel", "--variant", *variant, "--m", "12")
        assert not ran & {"mathprog", "algebra"}

    def test_bounds_runs_no_adversary(self):
        ran = command_bodies("bounds")
        assert {"mathprog", "algebra", "shapes"} <= ran
        assert not ran & (ADVERSARIES | {"oracle"})

    def test_the_polynomial_algebra_runs_no_other_module(self):
        # it imports only the standard library, and no packbound.exact
        assert bodies_run("import packbound.algebra") == {"__init__", "algebra"}


class TestNoDataclasses:
    """No command imports `dataclasses`: it pulls in `inspect`, `dis`, `ast`
    and `tokenize`, and each `@dataclass` builds its methods with `exec`.
    The records are NamedTuples or plain classes."""

    @pytest.mark.parametrize("statement", [
        "import packbound.cli",
        command("oracle", "--instance", str(FIXTURES / "oracle" / "plain.json")),
        command("duel", "--variant", "ko", "--algorithm", "first-fit", "--m", "8"),
        command("duel", "--variant", "sp", "--algorithm", "shelf-first-fit", "--m", "8"),
        command("duel", "--variant", "clcbp", "--t", "2", "--algorithm", "ccff", "--m", "6"),
        command("bounds"),
        command("verify"),
    ], ids=["import", "oracle", "duel-ko", "duel-sp", "duel-clcbp", "bounds", "verify"])
    def test_command_loads_no_dataclasses(self, statement):
        assert "dataclasses" not in run_fresh(statement, "sorted(sys.modules)")


class TestLazyExports:
    def test_import_runs_no_submodule(self):
        assert bodies_run("import packbound") == {"__init__"}

    @pytest.mark.parametrize("name", [n for n in packbound.__all__ if n != "__version__"])
    def test_each_name_is_its_modules_attribute(self, name):
        value = getattr(packbound, name)
        assert value.__module__.startswith("packbound.")
        assert getattr(sys.modules[value.__module__], name) is value

    # the package's own __all__ is checked name by name above
    @pytest.mark.parametrize("module", sorted(f.stem for f in PACKAGE.glob("*.py")
                                              if f.stem != "__init__"))
    def test_each_submodule_binds_its_all(self, module):
        namespace = {}
        exec(f"from packbound.{module} import *", namespace)  # each name in __all__ must resolve
        assert set(getattr(sys.modules[f"packbound.{module}"], "__all__", ())) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            packbound.no_such_name
        assert not hasattr(packbound, "cli_main")

    def test_dir_lists_every_name(self):
        assert set(packbound.__all__) <= set(dir(packbound))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from packbound import *", namespace)
        assert set(packbound.__all__) <= set(namespace)
        assert namespace["min_bins"] is packbound.optoracle.min_bins

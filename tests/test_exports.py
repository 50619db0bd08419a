import ast
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import youngbasis


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(youngbasis.__path__):
        module = importlib.import_module(f"youngbasis.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_package_import_resolves():
    tree = ast.parse(Path(youngbasis.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"youngbasis.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(youngbasis, alias.asname or alias.name) is \
                getattr(module, alias.name)


def test_benchmark_tracer_targets_resolve(capsys):
    # the tracer wraps functions by name and finds the op counter by the
    # parameter name "counter": a renamed target would go untraced.
    # verify builds its matrix with transition_recursive (transition
    # streams the columns of recursive_columns instead)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from youngbasis.cli import main
    t = tracer.Tracer(0)
    t.install()
    try:
        assert set(t.missing) <= {"youngbasis.weights:plain_axial_weight"}
        assert t.root(main, ["verify", "--shape", "3,2,1"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.counts["transition.scalar_ops"] > 0


def test_benchmark_outputs_are_byte_identical():
    # without --write the script only compares every benchmark request's
    # exit code and stdout digest with perfbench/digests.json
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "perfbench/make_digests.py"],
                          cwd=root, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"^\d+ requests, 0 differ$", done.stdout, re.M), \
        done.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # each is ~7 ms and ~0.9 MB of every process; compare with a bare
    # interpreter, so a site hook that loads them anyway is not counted
    src = Path(youngbasis.__file__).resolve().parent.parent
    code = ("import sys; before = set(sys.modules); import youngbasis.cli; "
            "print(sorted({'dataclasses', 'inspect'} "
            "& (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={"PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"

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


def test_every_imported_name_is_used():
    # the unused-import rule of a linter, which the project does not
    # run: a name a module imports is read in it or exported by its
    # __all__, except on an import marked "# noqa: F401" (an alias the
    # benchmark tracer wraps by name)
    package = Path(youngbasis.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        imported = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and not any("# noqa: F401" in line for line in
                                lines[node.lineno - 1:node.end_lineno])):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                exported.update(ast.literal_eval(node.value))
        unused = sorted(imported - used - exported)
        assert not unused, (path.name, unused)


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


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # each costs milliseconds and memory in every process; the child runs
    # without the site module (-S), so no site hook preloads one of them
    # and hides an import made by the package
    src = Path(youngbasis.__file__).resolve().parent.parent
    code = ("import sys; import youngbasis.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_package_name_is_in_the_readme():
    # the public surface is what the README names: a name the package
    # exports appears in README.md as code, in a code block or a
    # backquoted span
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    tree = ast.parse(Path(youngbasis.__file__).read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names
    missing = [name for name in names
               if not re.search(rf"\b{re.escape(name)}\b", code)]
    assert not missing, missing

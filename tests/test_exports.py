import ast
import importlib
import pkgutil
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

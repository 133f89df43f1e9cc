"""Public-API integrity: every exported name exists and is importable.

A library a downstream user adopts must not ship dangling ``__all__``
entries or modules that fail to import; this locks that in.
"""

import importlib
import pkgutil

import pytest

import repro

# __main__ runs the CLI on import; everything else must be importable
# side-effect-free.
_FOUND = [
    info
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")
]
MODULES = sorted(["repro", *(info.name for info in _FOUND)])
PACKAGES = sorted(["repro", *(info.name for info in _FOUND if info.ispkg)])


class TestImports:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_all_names_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        exported = getattr(pkg, "__all__", [])
        missing = [name for name in exported if not hasattr(pkg, name)]
        assert missing == [], f"{pkg_name}.__all__ has dangling names: {missing}"

    @pytest.mark.parametrize("pkg_name", PACKAGES)
    def test_all_has_no_duplicates(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        exported = list(getattr(pkg, "__all__", []))
        assert len(exported) == len(set(exported))

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    @pytest.mark.parametrize("pkg_name", MODULES)
    def test_every_module_has_docstring(self, pkg_name):
        module = importlib.import_module(pkg_name)
        assert module.__doc__ and module.__doc__.strip(), f"{pkg_name} lacks a docstring"

"""The README's module table names only what the package has."""

import importlib
import pathlib
import pkgutil
import re

import slln_lab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_private_names_in_the_module_table_exist():
    # a private name may live in another module than its row's, as _gammainc_cutoff does
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `slln_lab.")]
    names = {name for row in rows for name in re.findall(r"`(_\w+)`", row)}
    modules = [importlib.import_module(f"slln_lab.{info.name}") for info in pkgutil.iter_modules(slln_lab.__path__)]
    assert len(rows) == len(modules) and names
    assert sorted(name for name in names if not any(hasattr(module, name) for module in modules)) == []

"""The code names the README quotes exist in the package.

Every backticked `module.name` whose module is a submodule of acscheck
(written with or without the `acscheck.` prefix), and every bare backticked
private `_name`, must resolve to an attribute of an acscheck submodule, so a
rename or a deletion cannot leave the README naming code that is gone.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import acscheck

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {
    info.name: importlib.import_module(f"acscheck.{info.name}")
    for info in pkgutil.iter_modules(acscheck.__path__)
}
QUOTED = sorted(set(re.findall(r"`([A-Za-z_][\w.]*)`", README.read_text(encoding="utf-8"))))


def _resolves(module, parts) -> bool:
    obj = module
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_dotted_module_names_resolve():
    dotted = [name for name in QUOTED if "." in name]
    ours = {name: name.removeprefix("acscheck.").split(".") for name in dotted}
    ours = {name: parts for name, parts in ours.items() if parts[0] in MODULES}
    assert ours, "the README quotes no module.name of acscheck"
    assert [name for name, parts in ours.items() if not _resolves(MODULES[parts[0]], parts[1:])] == []


def test_bare_private_names_resolve():
    private = [name for name in QUOTED if name.startswith("_") and "." not in name]
    assert [name for name in private if not any(hasattr(m, name) for m in MODULES.values())] == []

"""The README's code and test references name what the package and the suite define."""

import importlib
import pkgutil
import re
from pathlib import Path

import sdrkit

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = "|".join(m.name for m in pkgutil.iter_modules(sdrkit.__path__))


def test_every_backticked_module_attribute_resolves():
    """`irt.loading_matrix`, `administer.MAX_RETRY_WAIT_S`, `core.Inventory.units`, ..."""
    refs = sorted(set(re.findall(rf"`(?:sdrkit\.)?((?:{MODULES})\.[\w.]+)`", README)))
    assert refs, "no backticked sdrkit reference found"
    missing = []
    for ref in refs:
        module, *attrs = ref.split(".")
        obj = importlib.import_module(f"sdrkit.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(ref)
    assert missing == []


def test_every_cited_test_exists():
    """`test_administer::test_keyed_uniform_table_rows_are_each_keys_uniforms`
    names the file; a bare `test_...` may be defined in any test file."""
    defined = {
        path.stem: set(re.findall(r"^def (test_\w+)\(", path.read_text(encoding="utf-8"), re.M))
        for path in (ROOT / "tests").glob("test_*.py")
    }
    refs = sorted(set(re.findall(r"`((?:test_\w+::)?test_\w+)`", README)))
    assert refs, "no cited test found"
    missing = []
    for ref in refs:
        stem, _, name = ref.rpartition("::")
        if not any(name in names for s, names in defined.items() if stem in ("", s)):
            missing.append(ref)
    assert missing == []

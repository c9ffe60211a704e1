"""The README's library example runs and prints what its comment says, and
the package exports every name it lists, each loaded on first use."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import monowit
from util import fresh_interpreter

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_its_comment():
    code = quick_start_block()
    expected = re.search(r"^print\(.*\)\s+# (.+)$", code, re.M).group(1).strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [expected]
    assert expected == "x2^6*x3^4*x4*x5^5*x6^5*x7^2*x8^13"


def test_star_import_exports_every_listed_name():
    exec("from monowit import *", {})  # a listed name that is gone raises here
    assert len(set(monowit.__all__)) == len(monowit.__all__)


def test_every_listed_name_is_its_submodules_object():
    for name in monowit.__all__:
        module = importlib.import_module(f"monowit.{monowit._MODULE_OF[name]}")
        assert getattr(monowit, name) is getattr(module, name), name


def test_submodules_resolve_after_a_bare_import():
    probe = ("import sys, monowit; loaded = 'monowit.rings' in sys.modules; "
             "print(loaded, monowit.rings.__name__, monowit.RingContext.__module__)")
    assert fresh_interpreter(probe) == "False monowit.rings monowit.rings\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Ring'"):
        monowit.Ring
    assert not hasattr(monowit, "witnesses")


def test_dir_lists_every_exported_name():
    assert set(monowit.__all__) <= set(dir(monowit))

"""The boundary with C: kernel.py alone imports ctypes and calls `kernel.load`,
so each entry of epoch.c has one call path and one out-of-memory error; and
the kernel builds without a warning."""

import ast
import subprocess
from pathlib import Path

import pytest

from astvec import kernel

PACKAGE = Path(kernel.__file__).parent


def crossings(source: str) -> list[str]:
    """What `source` does that only kernel.py may: import ctypes, or reach
    the kernel's `load`."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            found += [a.name for a in n.names if a.name.split(".")[0] == "ctypes"]
        elif isinstance(n, ast.ImportFrom):
            module = n.module or ""
            if module.split(".")[0] == "ctypes":
                found.append(f"from {module} import")
            elif module.endswith("kernel") and any(a.name == "load" for a in n.names):
                found.append(f"from {module} import load")
        elif (isinstance(n, ast.Attribute) and n.attr == "load"
              and isinstance(n.value, ast.Name) and n.value.id == "kernel"):
            found.append("kernel.load")
    return found


def test_only_kernel_crosses_into_c():
    modules = sorted(PACKAGE.glob("*.py"))
    assert "kernel.py" in [p.name for p in modules]
    found = {p.name: crossings(p.read_text(encoding="utf-8")) for p in modules}
    assert found.pop("kernel.py")
    assert {name: f for name, f in found.items() if f} == {}


@pytest.mark.parametrize("source, want", [
    ("import ctypes\nfrom . import kernel\nkernel.load().train_epoch()\n",
     ["ctypes", "kernel.load"]),
    ("import ctypes.util\n", ["ctypes.util"]),
    ("from ctypes import c_double\n", ["from ctypes import"]),
    ("from .kernel import load\n", ["from kernel import load"]),
    ("from astvec.kernel import code_rows, load\n", ["from astvec.kernel import load"]),
    ("from . import kernel\nkernel.code_rows(p, ids, coef, n)\nnp.load(path)\n", []),
])
def test_crossings(source, want):
    assert crossings(source) == want


def test_kernel_builds_without_warnings(tmp_path):
    proc = subprocess.run(
        [*kernel.COMPILE, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "epoch.so"),
         str(kernel.KERNEL_SOURCE)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

#!/usr/bin/env python3
"""Regenerate golden AST fixtures from the .c sources in tests/fixtures/golden/.

Uses pycparser as the independent reference parser so the fixtures do not
depend on the package's own parser. Run from the repository root:

    python3 scripts/gen_golden_fixtures.py
"""

import sys
from pathlib import Path

from pycparser import c_parser

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import GOLDEN_DIR, pycparser_dump  # noqa: E402


def main() -> int:
    parser = c_parser.CParser()
    count = 0
    for src_path in sorted(GOLDEN_DIR.glob("*.c")):
        source = src_path.read_text(encoding="utf-8")
        ast = parser.parse(source, filename=str(src_path))
        out = src_path.with_suffix(".ast.json")
        out.write_text(pycparser_dump(ast) + "\n", encoding="utf-8")
        count += 1
        print(f"wrote {out.relative_to(ROOT)}")
    if count == 0:
        print("no .c sources found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

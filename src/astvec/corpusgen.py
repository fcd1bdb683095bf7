"""Deterministic generator for the bundled desk-scale classification corpus.

Four program classes of small C-subset sources: accumulation loops, array
sorting, matrix arithmetic, and string scanning. Variation is structural
(loop constructs, guard clauses, helper declarations), not just renaming,
since identifier spellings vanish at parse time.
"""

from __future__ import annotations

import numpy as np

from .ast_core import LabeledProgram
from .cparse import ParseMemo

CLASS_LABELS = ("accumulate", "sorting", "matrix", "strings")


def _loop(rng, var: str, bound: str, body: str, indent: str = "    ") -> str:
    style = rng.integers(0, 3)
    if style == 0:
        return (
            f"{indent}for (int {var} = 0; {var} < {bound}; {var}++) {{\n"
            f"{body}{indent}}}\n"
        )
    if style == 1:
        return (
            f"{indent}int {var} = 0;\n"
            f"{indent}while ({var} < {bound}) {{\n"
            f"{body}{indent}    {var}++;\n{indent}}}\n"
        )
    return (
        f"{indent}int {var} = 0;\n"
        f"{indent}do {{\n{body}{indent}    {var}++;\n"
        f"{indent}}} while ({var} < {bound});\n"
    )


def _maybe_enum(rng) -> str:
    if rng.random() < 0.2:
        return "enum Mode { FAST, SLOW = 4, SAFE };\n\n"
    return ""


def _maybe_typedef(rng) -> str:
    roll = rng.random()
    if roll < 0.15:
        return "typedef unsigned long count_t;\n\n"
    if roll < 0.25:
        return "typedef struct Stats { int lo; int hi; } Stats;\n\n"
    return ""


def _gen_accumulate(rng) -> str:
    parts = [_maybe_enum(rng), _maybe_typedef(rng)]
    if rng.random() < 0.2:
        parts.append(
            "struct Range {\n    int lo;\n    int hi;\n};\n\n"
            "int span(struct Range r) {\n    return r.hi - r.lo;\n}\n\n"
        )
    op = rng.choice(["+", "*", "^", "|"])
    if rng.random() < 0.15:
        parts.append(
            "int accumulate(int n, int limit) {\n"
            "    int acc = 0;\n"
            "    int i = 0;\n"
            "again:\n"
            "    if (i < n) {\n"
            f"        acc = acc {op} i;\n"
            "        i++;\n"
            "        goto again;\n"
            "    }\n"
            "    return acc;\n}\n"
        )
        return "".join(parts)
    guard = rng.integers(0, 4)
    body = "        acc = acc " + op + " i;\n"
    if guard == 1:
        body = (
            "        if (i % 2 == 0) {\n            continue;\n        }\n" + body
        )
    elif guard == 2:
        body = (
            "        if (i > limit) {\n            break;\n        }\n" + body
        )
    elif guard == 3:
        body = "        acc = acc " + op + " (i > 3 ? i : -i);\n"
    parts.append("int accumulate(int n, int limit) {\n")
    parts.append("    int acc = %d;\n" % rng.integers(0, 3))
    parts.append(_loop(rng, "i", "n", body))
    if rng.random() < 0.3:
        parts.append("    acc = (int) ((long) acc % 97);\n")
    parts.append("    return acc;\n}\n")
    if rng.random() < 0.5:
        parts.append(
            "\nint total(int n) {\n"
            "    int t = 0;\n"
            "    for (int k = 1; k <= n; k++) {\n"
            "        t += accumulate(k, n);\n"
            "    }\n"
            "    return t;\n}\n"
        )
    return "".join(parts)


def _gen_sorting(rng) -> str:
    parts = [_maybe_typedef(rng)]
    algo = rng.integers(0, 3)
    parts.append("void sort(int a[], int n) {\n")
    if algo == 0:  # bubble
        parts.append(
            "    for (int i = 0; i < n - 1; i++) {\n"
            "        for (int j = 0; j < n - 1 - i; j++) {\n"
            "            if (a[j] > a[j + 1]) {\n"
            "                int tmp = a[j];\n"
            "                a[j] = a[j + 1];\n"
            "                a[j + 1] = tmp;\n"
            "            }\n"
            "        }\n"
            "    }\n"
        )
    elif algo == 1:  # selection
        parts.append(
            "    for (int i = 0; i < n - 1; i++) {\n"
            "        int best = i;\n"
            "        for (int j = i + 1; j < n; j++) {\n"
            "            if (a[j] < a[best]) {\n"
            "                best = j;\n"
            "            }\n"
            "        }\n"
            "        int tmp = a[i];\n"
            "        a[i] = a[best];\n"
            "        a[best] = tmp;\n"
            "    }\n"
        )
    else:  # insertion
        parts.append(
            "    for (int i = 1; i < n; i++) {\n"
            "        int key = a[i];\n"
            "        int j = i - 1;\n"
            "        while (j >= 0 && a[j] > key) {\n"
            "            a[j + 1] = a[j];\n"
            "            j--;\n"
            "        }\n"
            "        a[j + 1] = key;\n"
            "    }\n"
        )
    parts.append("}\n")
    if rng.random() < 0.6:
        init = "{3, 1, 4, 1, 5}" if rng.random() < 0.5 else "{9, 2, 6}"
        size = init.count(",") + 1
        parts.append(
            "\nint smallest() {\n"
            f"    int data[{size}] = {init};\n"
            f"    sort(data, {size});\n"
            "    return data[0];\n}\n"
        )
    if rng.random() < 0.15:
        parts.append(
            "\nvoid spin(int n) {\n"
            "    int i;\n"
            "    for (i = 0; i < n; i++) {\n"
            "        ;\n"
            "    }\n}\n"
        )
    if rng.random() < 0.3:
        parts.append(
            "\nint is_sorted(int a[], int n) {\n"
            "    for (int i = 1; i < n; i++) {\n"
            "        if (a[i - 1] > a[i]) {\n"
            "            return 0;\n"
            "        }\n"
            "    }\n"
            "    return 1;\n}\n"
        )
    return "".join(parts)


def _gen_matrix(rng) -> str:
    parts = [_maybe_enum(rng)]
    dim = int(rng.integers(2, 5))
    op = rng.integers(0, 3)
    if op == 0:  # addition
        parts.append(
            f"void add(float a[{dim}][{dim}], float b[{dim}][{dim}], float out[{dim}][{dim}]) {{\n"
            f"    for (int i = 0; i < {dim}; i++) {{\n"
            f"        for (int j = 0; j < {dim}; j++) {{\n"
            "            out[i][j] = a[i][j] + b[i][j];\n"
            "        }\n    }\n}\n"
        )
    elif op == 1:  # multiplication
        parts.append(
            f"void mul(float a[{dim}][{dim}], float b[{dim}][{dim}], float out[{dim}][{dim}]) {{\n"
            f"    for (int i = 0; i < {dim}; i++) {{\n"
            f"        for (int j = 0; j < {dim}; j++) {{\n"
            "            float cell = 0.0;\n"
            f"            for (int k = 0; k < {dim}; k++) {{\n"
            "                cell += a[i][k] * b[k][j];\n"
            "            }\n"
            "            out[i][j] = cell;\n"
            "        }\n    }\n}\n"
        )
    else:  # transpose
        parts.append(
            f"void transpose(float m[{dim}][{dim}]) {{\n"
            f"    for (int i = 0; i < {dim}; i++) {{\n"
            f"        for (int j = i + 1; j < {dim}; j++) {{\n"
            "            float tmp = m[i][j];\n"
            "            m[i][j] = m[j][i];\n"
            "            m[j][i] = tmp;\n"
            "        }\n    }\n}\n"
        )
    if rng.random() < 0.6:
        parts.append(
            f"\nfloat trace(float m[{dim}][{dim}]) {{\n"
            "    float t = 0.0;\n"
            f"    for (int i = 0; i < {dim}; i++) {{\n"
            "        t += m[i][i];\n"
            "    }\n"
            "    return t;\n}\n"
        )
    if rng.random() < 0.15:
        parts.append(
            "\nunion Cell {\n    int i;\n    float f;\n};\n\n"
            "int cell_bits(union Cell c) {\n    return c.i;\n}\n"
        )
    if rng.random() < 0.3:
        parts.append(
            f"\nvoid scale(float m[{dim}][{dim}], float s) {{\n"
            f"    for (int i = 0; i < {dim}; i++) {{\n"
            f"        for (int j = 0; j < {dim}; j++) {{\n"
            "            m[i][j] = m[i][j] * s;\n"
            "        }\n    }\n}\n"
        )
    return "".join(parts)


def _gen_strings(rng) -> str:
    parts = []
    task = rng.integers(0, 4)
    if task == 0:  # length
        parts.append(
            "int length(char *s) {\n"
            "    int n = 0;\n"
            "    while (s[n] != '\\0') {\n"
            "        n++;\n"
            "    }\n"
            "    return n;\n}\n"
        )
    elif task == 1:  # count character
        parts.append(
            "int count_char(char *s, char c) {\n"
            "    int hits = 0;\n"
            "    for (int i = 0; s[i] != '\\0'; i++) {\n"
            "        if (s[i] == c) {\n"
            "            hits++;\n"
            "        }\n"
            "    }\n"
            "    return hits;\n}\n"
        )
    elif task == 2:  # classify characters with switch
        parts.append(
            "int classify(char *s) {\n"
            "    int vowels = 0, spaces = 0, other = 0;\n"
            "    int i = 0;\n"
            "    while (s[i] != '\\0') {\n"
            "        switch (s[i]) {\n"
            "            case 'a':\n"
            "            case 'e':\n"
            "                vowels++;\n"
            "                break;\n"
            "            case ' ':\n"
            "                spaces++;\n"
            "                break;\n"
            "            default:\n"
            "                other++;\n"
            "        }\n"
            "        i++;\n"
            "    }\n"
            "    return vowels + spaces - other;\n}\n"
        )
    else:  # reverse in place
        parts.append(
            "void reverse(char *s, int n) {\n"
            "    int i = 0;\n"
            "    int j = n - 1;\n"
            "    while (i < j) {\n"
            "        char tmp = s[i];\n"
            "        s[i] = s[j];\n"
            "        s[j] = tmp;\n"
            "        i++;\n"
            "        j--;\n"
            "    }\n}\n"
        )
    if rng.random() < 0.5:
        parts.append(
            "\nint equals(char *a, char *b) {\n"
            "    int i = 0;\n"
            "    while (a[i] != '\\0' && b[i] != '\\0') {\n"
            "        if (a[i] != b[i]) {\n"
            "            return 0;\n"
            "        }\n"
            "        i++;\n"
            "    }\n"
            "    return a[i] == b[i];\n}\n"
        )
    if rng.random() < 0.3:
        parts.append(
            "\nchar first_or(char *s, char fallback) {\n"
            "    return s[0] != '\\0' ? s[0] : fallback;\n}\n"
        )
    if rng.random() < 0.15:
        parts.append(
            "\nstruct Slice {\n    int start;\n    int stop;\n};\n\n"
            "int window(int n) {\n"
            "    struct Slice s = (struct Slice){1, n};\n"
            "    return s.stop - s.start;\n}\n"
        )
    return "".join(parts)


_GENERATORS = {
    "accumulate": _gen_accumulate,
    "sorting": _gen_sorting,
    "matrix": _gen_matrix,
    "strings": _gen_strings,
}


def generate_sources(seed: int = 0, per_class: int = 55) -> list[tuple[str, str, str]]:
    """(label, source_id, source text) triples, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for label in CLASS_LABELS:
        gen = _GENERATORS[label]
        for i in range(per_class):
            out.append((label, f"{label}_{i:03d}", gen(rng)))
    return out


def generate_corpus(seed: int = 0, per_class: int = 55) -> list[LabeledProgram]:
    """The generated sources, parsed; the trees share one `NodeTable`, and a
    source generated again is not parsed again."""
    parse = ParseMemo()
    programs = []
    for label, source_id, source in generate_sources(seed, per_class):
        ast = parse(source)
        programs.append(LabeledProgram(ast=ast, label=label, source_id=source_id))
    return programs

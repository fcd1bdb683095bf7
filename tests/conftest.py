import json
import re
from pathlib import Path

import numpy as np
import pytest

from astvec.ast_core import (
    KIND_NAMES,
    MAX_JSON_NESTING,
    AstFormatError,
    AstNode,
    LabeledProgram,
    NodeTable,
    UnknownKindError,
    kind_by_name,
    load_corpus,
)
from astvec.classify import Batch, ClassifierModel
from astvec.cparse import KEYWORDS, TokenizeError
from astvec.coder import Hyperparams, ModelParams, l2_penalty, l2_rate
from astvec.sampling import TrainingSample, build_training_set, pack_samples

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "fixtures" / "golden"
INVALID_DIR = REPO / "tests" / "fixtures" / "invalid"
CORPUS_PATH = REPO / "data" / "corpus.jsonl"

# the two-line function-returning-double snippet; its golden pair is fixture g01
SNIPPET_SRC = GOLDEN_DIR / "g01_double_times_two.c"


@pytest.fixture(scope="session")
def corpus():
    return load_corpus(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def golden_pairs():
    pairs = []
    for src in sorted(GOLDEN_DIR.glob("*.c")):
        golden = src.with_suffix(".ast.json")
        assert golden.exists(), f"missing golden for {src.name}"
        pairs.append((src, golden))
    return pairs


def golden_sources():
    return sorted(GOLDEN_DIR.glob("*.c"))


def invalid_sources():
    return sorted(INVALID_DIR.glob("*.c"))


# Valid C with one construct nested n deep. scripts/artifact_digests.py
# bisects each one's deepest parse; tests/test_cparse.py checks that each
# stops at cparse.MAX_NESTING, except casts and unary operators, which are
# read in a loop and nest without limit.
NESTING = {
    "parentheses": lambda n: "int x = " + "(" * n + "1" + ")" * n + ";",
    "calls": lambda n: "int x = " + "f(" * n + "1" + ")" * n + ";",
    "sizeof": lambda n: "int x = " + "sizeof(" * n + "1" + ")" * n + ";",
    "subscripts": lambda n: "int x = " + "a[" * n + "0" + "]" * n + ";",
    "blocks": lambda n: "void f(void) " + "{" * (n + 1) + "}" * (n + 1),
    "switch": lambda n: "void f(void) {" + "switch (x) {" * n + "}" * (n + 1),
    "if": lambda n: "void f(void) {" + "if (x) " * n + "; }",
    "while": lambda n: "void f(void) {" + "while (x) " * n + "; }",
    "do": lambda n: "void f(void) {" + "do " * n + ";" + " while (x);" * n + " }",
    "for": lambda n: "void f(void) {" + "for (;;) " * n + "; }",
    "labels": lambda n: "void f(void) {" + "l: " * n + "; }",
    "structs": lambda n: "struct {" * n + " int x; " + "} a;" * n,
    "pointer declarators": lambda n: "int " + "(*" * n + "p" + ")" * n + ";",
    "casts": lambda n: "int x = " + "(int)" * n + "1;",
    "unary": lambda n: "int x = " + "!" * n + "1;",
    "ternary": lambda n: "int x = " + "x ? 1 : " * n + "0;",
    "initializer lists": lambda n: "int x[1] = " + "{" * n + "1" + "}" * n + ";",
}


# A character beyond ASCII outside a literal or a comment, in each of the
# classes that Unicode-aware \d, \w and \s would take in: (source, line,
# column of the character). pycparser stops at each with "Illegal character".
NON_ASCII_SOURCES = [
    ("int x = \u0661\u0662;", 1, 9),  # Arabic-Indic digits
    ("int x\u00e9 = 1;", 1, 6),
    ("int\u00a0x;", 1, 4),  # no-break space
    ("int x;\u2028int y;", 1, 7),  # line separator
    ("int x = 1\u3000;", 1, 10),  # ideographic space
]


def count_leaves_obj(obj: dict) -> int:
    """Independent leaf counter over the raw interchange JSON."""
    children = obj["children"]
    if not children:
        return 1
    return sum(count_leaves_obj(c) for c in children)


def node(kind_name: str, *children: AstNode) -> AstNode:
    """A tree built from a kind name and its subtrees, not hash-consed."""
    return AstNode(kind_by_name(kind_name), children)


def convert(c_ast) -> dict:
    """The interchange document of a pycparser tree: its class names as
    kinds, `FileAST` as Root."""
    kind = type(c_ast).__name__
    if kind == "FileAST":
        kind = "Root"
    return {
        "kind": kind,
        "children": [convert(child) for _, child in c_ast.children()],
    }


def pycparser_dump(tree) -> str:
    """A pycparser tree dumped as the golden fixtures are made."""
    return json.dumps(convert(tree), separators=(",", ":"))


def load_golden_obj(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def leaf_count(root: AstNode) -> int:
    """Number of leaf descendants; a leaf counts itself as 1."""
    total = 0
    stack = [root]
    while stack:
        n = stack.pop()
        if n.children:
            stack.extend(n.children)
        else:
            total += 1
    return total


def reference_walk(root: AstNode):
    """The nodes of a tree in preorder, as a generator, with an explicit
    stack, so any depth works."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def shared_ladder(depth: int) -> tuple[AstNode, AstNode]:
    """(shared, tree) built through one table: `shared` is Return(ID), and
    `tree` is `depth` nested BinaryOp levels, each with `shared` on its
    right and ID at the bottom."""
    table = NodeTable()
    shared = table.node(kind_by_name("Return"), [table.node(kind_by_name("ID"), [])])
    tree = table.node(kind_by_name("ID"), [])
    for _ in range(depth):
        tree = table.node(kind_by_name("BinaryOp"), [tree, shared])
    return shared, tree


def reference_dump(tree: AstNode) -> str:
    """Oracle for `dump_ast`: recursive, so for shallow trees only."""
    kids = ",".join(map(reference_dump, tree.children))
    return f'{{"kind":"{KIND_NAMES[tree.kind]}","children":[{kids}]}}'


def reference_histogram(tree: AstNode) -> np.ndarray:
    """Oracle for `classify.node_histogram`: the kinds of a walk, counted."""
    return np.bincount([n.kind for n in reference_walk(tree)], minlength=len(KIND_NAMES))


def extract_samples(tree: AstNode) -> list[TrainingSample]:
    """The samples of one tree, as `build_training_set` extracts them."""
    return build_training_set([LabeledProgram(tree, "", "")])


def reference_build_training_set(corpus: list[LabeledProgram]) -> list[TrainingSample]:
    """Oracle for `build_training_set`: every program walked in preorder,
    however often its root repeats, each distinct node sampled once and equal
    samples interned."""
    made: dict[int, TrainingSample] = {}
    interned: dict[TrainingSample, TrainingSample] = {}
    samples: list[TrainingSample] = []
    for program in corpus:
        for n in reference_walk(program.ast):
            if not n.children:
                continue
            sample = made.get(id(n))
            if sample is None:
                sample = TrainingSample(
                    n.kind,
                    tuple(c.kind for c in n.children),
                    tuple(c.leaves / n.leaves for c in n.children),
                )
                sample = made[id(n)] = interned.setdefault(sample, sample)
            samples.append(sample)
    return samples


def per_node_samples(tree: AstNode) -> list[TrainingSample]:
    """Oracle for sample extraction: every non-leaf node in preorder, with its
    children's leaves counted afresh at each node."""
    samples = []
    for n in reference_walk(tree):
        if n.children:
            leaves = [leaf_count(c) for c in n.children]
            samples.append(TrainingSample(
                parent=n.kind,
                children=tuple(c.kind for c in n.children),
                coefficients=tuple(lc / sum(leaves) for lc in leaves),
            ))
    return samples


def unshared(tree: AstNode) -> AstNode:
    """A copy of `tree` with a new node object at every position."""
    return AstNode(tree.kind, tuple(unshared(c) for c in tree.children))


# The coder in numpy: the oracle of the epoch kernel's forward pass and step
# (epoch.c), which `trainer.gradient_and_hinge` runs once.

def reference_forward(ids: np.ndarray, coef: np.ndarray, params: ModelParams):
    """The coder on a batch of packed rows: ids (..., 1+K), parent id then
    child ids; coef (..., 2, 1+K), broadcast against the rows.

    Returns (s, h, e): s (..., 2 N_f) the children's left- and right-weighted
    vector sums side by side, h = tanh([W_l W_r] s + b) the coded vectors and
    e the parent vectors minus h.
    """
    vectors = params.embeddings.take(ids, axis=0)
    s = (coef @ vectors).reshape(*ids.shape[:-1], -1)
    h = np.tanh(s @ params.w.T + params.b)
    return s, h, vectors[..., 0, :] - h


def reference_hinge(d: float, d_c: float, delta: float) -> float:
    return max(0.0, delta + d - d_c)


# d(d - d_c)/d(e) is 2e on the real row of a pair and -2e on the corrupted one.
_PAIR_SIGN = np.array([[2.0], [-2.0]])


def reference_gradient_and_hinge(
    ids: np.ndarray,
    coef: np.ndarray,
    params: ModelParams,
    hyper: Hyperparams,
) -> tuple[np.ndarray, float]:
    """Oracle for `trainer.gradient_and_hinge`: the exact gradient of one
    pair's objective, its hinge plus the l2 penalty, and the hinge value.

    ids (2, 1+K) holds the packed row of the real sample, then that of its
    corrupted copy; coef (2, 1+K) is their shared row of child weights. The
    gradient is a flat array in the layout of `params.flat`. Both rows share
    one forward pass, which the gradient reuses.

    At the hinge kink (margin exactly met) the subgradient 0 is used, so a
    satisfied pair contributes only the l2 part.
    """
    s, h, e = reference_forward(ids, coef, params)
    d, d_c = (e * e).sum(axis=1).tolist()
    hinge = reference_hinge(d, d_c, hyper.delta)
    flat = np.zeros(params.flat.size)
    w_span = params.w_span
    np.multiply(params.flat[w_span], l2_rate(hyper), out=flat[w_span])
    if hinge > 0.0:
        grad = ModelParams.of_flat(flat, params.n_f)
        de = _PAIR_SIGN * e
        dz = de * (h * h - 1.0)
        grad.b[:] = dz[0] + dz[1]
        grad.w += dz.T @ s
        # slot j of row p: coef[0, j] W_l^T dz_p + coef[1, j] W_r^T dz_p,
        # which is 0 on the parent slot, where the parent's own term goes
        slots = coef.T @ (dz @ params.w).reshape(2, 2, -1)
        slots[:, 0] += de
        np.add.at(grad.embeddings, ids, slots)
    return flat, hinge


def _sample_rows(samples):
    packed = pack_samples(samples)
    return packed.ids[packed.rows], packed.coef[packed.rows]


def code_children(sample: TrainingSample, params: ModelParams) -> np.ndarray:
    """Oracle for one sample's coded vector:
    tanh( sum_i l_i W_i vec(c_i) + b ) with W_i from child_weight."""
    _, h, _ = reference_forward(*_sample_rows([sample]), params)
    return h[0]


def distance(sample: TrainingSample, params: ModelParams) -> float:
    """Squared Euclidean distance between the parent vector and the coded one."""
    _, _, e = reference_forward(*_sample_rows([sample]), params)
    return float(e[0] @ e[0])


def pair_loss(
    sample: TrainingSample,
    negative: TrainingSample,
    params: ModelParams,
    hyper: Hyperparams,
) -> float:
    """Per-pair objective: hinge term plus the l2 share on W_l, W_r."""
    d = distance(sample, params)
    d_c = distance(negative, params)
    return reference_hinge(d, d_c, hyper.delta) + l2_penalty(params, hyper)


# Pairs per batch in `reference_objective`.
OBJECTIVE_CHUNK = 256


def reference_objective(pairs, params: ModelParams, hyper: Hyperparams) -> float:
    """Oracle for `coder.objective`: the coder in numpy, OBJECTIVE_CHUNK pairs
    at a time, each distinct sample of a chunk coded once, the hinges summed
    by numpy."""
    total = 0.0
    for start in range(0, len(pairs), OBJECTIVE_CHUNK):
        chunk = pairs[start : start + OBJECTIVE_CHUNK]
        packed = pack_samples(s for pair in chunk for s in pair)
        _, _, e = reference_forward(packed.ids, packed.coef, params)
        d = (e * e).sum(axis=1)[packed.rows].reshape(-1, 2)
        total += float(np.maximum(0.0, hyper.delta + d[:, 0] - d[:, 1]).sum())
    return total / (2.0 * len(pairs)) + l2_penalty(params, hyper)


# Oracle for `classify.loss_and_gradients`: the same loss, accuracy and
# gradient computed over every row of X, repeats included, with no `Batch`.
def reference_loss_and_gradients(model, X: np.ndarray, y: np.ndarray, fine_tune: bool):
    n = X.shape[0]
    hist = X / np.maximum(X.sum(axis=1, keepdims=True), 1.0)
    x = X.astype(np.float64) if model.embed is None else hist @ model.embed
    activations = [(x - model.mu) / model.sigma]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        activations.append(np.tanh(activations[-1] @ W + b))
    logits = activations[-1] @ model.weights[-1] + model.biases[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    accuracy = float((np.argmax(probs, axis=1) == y).mean())
    loss = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    delta = (probs - onehot) / n

    grad = np.zeros_like(model.flat)
    grad_embed, grads_w, grads_b = model.views(grad)
    grads_w[-1][...] = activations[-1].T @ delta
    grads_b[-1][...] = delta.sum(axis=0)
    upstream = delta @ model.weights[-1].T
    for layer in range(len(model.weights) - 2, -1, -1):
        dz = upstream * (1.0 - activations[layer + 1] ** 2)
        grads_w[layer][...] = activations[layer].T @ dz
        grads_b[layer][...] = dz.sum(axis=0)
        upstream = dz @ model.weights[layer].T

    if grad_embed is not None and fine_tune:
        grad_embed[...] = hist.T @ (upstream / model.sigma)
    return loss, accuracy, grad


def model_with_probabilities(probs: np.ndarray, shift: float = 0.0):
    """A logistic regression, and the batch of the rows of the identity
    labelled 0, whose class probabilities on row i are probs[i]: the
    weights are their logs plus `shift`, which the softmax takes out, and
    the input is not standardized. Set the batch's labels with
    `batch._replace(y=...)`."""
    rows, classes = probs.shape
    model = ClassifierModel([(rows, classes), (classes,)],
                            np.concatenate([np.log(probs).ravel() + shift, np.zeros(classes)]),
                            np.zeros(rows), np.ones(rows))
    return model, Batch.of(np.eye(rows), np.zeros(rows, dtype=np.int64))


# Oracle for `load_ast` and `load_corpus`: `json.loads`, then a recursive walk
# of what it returns. Text that is not canonical, that is not as `dump_ast` and
# `dump_corpus` write it, is refused as "nesting too deep" when it holds more
# than MAX_JSON_NESTING containers open at once, counted here afresh. Canonical
# text loads at any height; the walks recurse once per level, and a text they
# cannot reach the end of raises ReferenceTooDeep, for which there is no verdict.

class ReferenceTooDeep(Exception):
    pass


def reference_nesting(text: str) -> int:
    """The most JSON containers open at once in `text`, outside strings: a
    string runs from a quote to the next quote no backslash escapes, or to
    the end of the text."""
    depth = most = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            most = max(most, depth)
        elif ch in "]}":
            depth -= 1
    return most


def _reference_tree(obj, path: str, table: NodeTable) -> AstNode:
    if not isinstance(obj, dict):
        raise AstFormatError(f"expected object at {path or 'root'}, got {type(obj).__name__}")
    if "kind" not in obj:
        raise AstFormatError(f"missing 'kind' at {path or 'root'}")
    name = obj["kind"]
    if not isinstance(name, str):
        raise AstFormatError(f"'kind' must be a string at {path or 'root'}")
    if name not in KIND_NAMES:
        raise UnknownKindError(name, path or "root")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise AstFormatError(f"'children' must be an array at {path or 'root'}")
    kids = [
        _reference_tree(c, f"{path}/{i}" if path else str(i), table)
        for i, c in enumerate(children)
    ]
    return table.node(kind_by_name(name), kids)


def _reference_loads(text: str, where: str = ""):
    if reference_nesting(text) > MAX_JSON_NESTING:
        raise AstFormatError(f"{where}nesting too deep")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise AstFormatError(f"{where}invalid JSON: {exc}") from exc


def _reference_ast(text: str, table: NodeTable) -> AstNode:
    """The tree of a node document: a canonical one at any height, any other
    within the nesting limit."""
    if _CANONICAL_PIECES.fullmatch(text):
        try:
            tree = _reference_tree(json.loads(text), "", table)
            if reference_dump(tree) == text:
                return tree
        except ValueError:  # invalid JSON or tree; AstFormatError included
            pass
    return _reference_tree(_reference_loads(text), "", table)


# what canonical node documents are made of, in some order
_CANONICAL_PIECES = re.compile(r'(?:\{"kind":"\w+","children":\[|\]\}|,)*')
# a record as `dump_corpus` writes it: label, source_id and ast, unspaced
_CANONICAL_RECORD = re.compile(
    r'\{"label":("(?:[^"\\]|\\.)*"),"source_id":("(?:[^"\\]|\\.)*"),"ast":(.*)\}',
    re.DOTALL)


def _reference_record(line: str, where: str, lineno: int, table: NodeTable):
    """(label, source_id, tree) of a corpus line. A line in `dump_corpus`'s
    shape loads its ast text alone; any other line, or one whose ast text
    does not load alone, is decoded whole."""
    match = _CANONICAL_RECORD.fullmatch(line)
    if match:
        try:
            label, source_id = json.loads(match[1]), json.loads(match[2])
            return label, source_id, _reference_ast(match[3], table)
        except ValueError:  # the whole line, below, gives the error
            pass
    rec = _reference_loads(line, where)
    if not isinstance(rec, dict):
        raise AstFormatError(f"{where}expected an object")
    for key in ("label", "source_id", "ast"):
        if key not in rec:
            raise AstFormatError(f"{where}missing {key!r}")
        if key != "ast" and not isinstance(rec[key], str):
            raise AstFormatError(f"{where}{key!r} must be a string")
    return rec["label"], rec["source_id"], _reference_tree(rec["ast"], f"line {lineno}", table)


def reference_load_ast(text: str) -> AstNode:
    try:
        return _reference_ast(text, NodeTable())
    except RecursionError:
        raise ReferenceTooDeep from None


def reference_load_corpus(text: str) -> list[LabeledProgram]:
    table = NodeTable()
    programs = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"),
                                  start=1):
        if not line.strip():
            continue
        try:
            label, source_id, ast = _reference_record(line, f"corpus line {lineno}: ",
                                                      lineno, table)
        except RecursionError:
            raise ReferenceTooDeep from None
        programs.append(LabeledProgram(ast=ast, label=label, source_id=source_id))
    return programs


# Oracle for `cparse.tokenize`: one `match` per token and per run of
# whitespace or comments, with lines counted as it goes. It gives each token
# as (category, lexeme, line, column).
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<constant>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?
      | (0[xX][0-9a-fA-F]+|\d+)([uU][lL]{0,2}|[lL]{1,2}[uU]?)?
      | '(\\.|[^\\'\n])+'
      | "(\\.|[^\\"\n])*")
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<operator>>>=|<<=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&^|]=|[+\-*/%<>=&|^!~?:.])
  | (?P<punctuation>[()\[\]{};,])
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,
)


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            if source[pos] == '"':
                raise TokenizeError("unterminated string literal", line, col)
            if source[pos] == "'":
                empty = source.startswith("''", pos)
                raise TokenizeError(("empty" if empty else "unterminated")
                                    + " character constant", line, col)
            raise TokenizeError(f"illegal character {source[pos]!r}", line, col)
        category = m.lastgroup
        text = m.group()
        if category != "skip":
            if category == "identifier" and text in KEYWORDS:
                category = "keyword"
            tokens.append((category, text, line, pos - line_start + 1))
        nl = text.count("\n")
        if nl:
            line += nl
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    return tokens


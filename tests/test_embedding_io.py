import numpy as np

from astvec.ast_core import KIND_NAMES
from astvec.coder import Hyperparams, init_params
from astvec.embedding_io import format_embeddings


def test_round_trip_exact():
    emb = init_params(Hyperparams(n_f=7), np.random.default_rng(0)).embeddings
    rows = format_embeddings(emb).splitlines()[1:]
    again = np.array([[float(x) for x in row.split()[1:]] for row in rows])
    assert np.array_equal(again, emb)


def test_header_and_names():
    emb = np.zeros((44, 2))
    lines = format_embeddings(emb).strip().split("\n")
    assert lines[0] == "44 2"
    assert [ln.split()[0] for ln in lines[1:]] == list(KIND_NAMES)

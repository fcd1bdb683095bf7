from astvec.ast_core import KIND_NAMES
from astvec.corpusgen import CLASS_LABELS, generate_corpus, generate_sources
from astvec.cparse import parse_source

from conftest import reference_walk


def test_class_balance():
    corpus = generate_corpus(seed=0, per_class=5)
    per = {}
    for p in corpus:
        per[p.label] = per.get(p.label, 0) + 1
    assert per == {label: 5 for label in CLASS_LABELS}


def test_sources_compile():
    for label, name, src in generate_sources(seed=1, per_class=3):
        parse_source(src)  # must not raise


def test_repeated_sources_share_one_tree():
    sources = generate_sources(seed=1, per_class=20)
    corpus = generate_corpus(seed=1, per_class=20)
    first = {}
    for (_, _, src), program in zip(sources, corpus):
        assert program.ast is first.setdefault(src, program.ast)
        assert program.ast == parse_source(src)  # a fresh table of its own
    assert len(first) < len(corpus)


def test_deterministic():
    a = generate_corpus(seed=2, per_class=4)
    b = generate_corpus(seed=2, per_class=4)
    assert a == b


def test_full_vocabulary_coverage():
    corpus = generate_corpus(seed=0, per_class=55)
    seen = {KIND_NAMES[n.kind] for p in corpus for n in reference_walk(p.ast)}
    assert seen == set(KIND_NAMES)


def test_source_ids_unique():
    corpus = generate_corpus(seed=0, per_class=10)
    ids = [p.source_id for p in corpus]
    assert len(set(ids)) == len(ids)

"""Per-layer instrumentation of the astvec package, one layer per module.

`instrument` wraps the public functions at the module attributes their
callers look up (cli.py imports load_corpus and dump_corpus by name, trainer.py
imports corrupt and gradient_and_hinge by name, so those are wrapped where
they are used). `layer_metrics` turns a tracer's spans and counters into the
per-layer metrics, each averaged over the traced passes of the timed section.
"""

from __future__ import annotations

import statistics

from astvec import (
    analysis,
    ast_core,
    classify,
    cli,
    coder,
    corpusgen,
    cparse,
    embedding_io,
    sampling,
    trainer,
)

LAYERS = (
    "cparse", "ast_core", "sampling", "coder", "trainer",
    "analysis", "classify", "embedding_io", "cli",
)

# Root span of one traced pass of the timed section; its self time is the
# benchmark's own glue, which no layer accounts for.
PASS_SPAN = "bench.pass"


def epoch_by_epoch(tracer, train):
    """trainer.train driven one epoch at a time through its resume path (the
    state argument), with one span per epoch. It consumes the random stream in
    the same order as one call, so the final state is bit-identical."""

    def run(samples, hyper, shuffle=True, state=None, max_epochs=None):
        report = None
        while True:
            done = state.epoch if state is not None else 0
            limit = max_epochs
            if limit is None:
                limit = (state.hyper if state is not None else hyper).epochs
            if report is not None and done >= limit:
                break
            with tracer.span("trainer.epoch"):
                state, part = train(
                    samples, hyper, shuffle=shuffle, state=state,
                    max_epochs=min(done + 1, limit),
                )
            if report is None:
                report = part
            else:
                report.mean_hinge += part.mean_hinge
                report.objective += part.objective
                report.epochs_run += part.epochs_run
                report.wall_time += part.wall_time
            if part.epochs_run == 0:
                break
        return state, report

    return run


def instrument_setup(tracer) -> None:
    tracer.wrap_span(corpusgen, "generate_corpus", "corpusgen.generate_corpus")
    tracer.wrap_span(corpusgen, "generate_sources", "corpusgen.generate_sources")


def instrument(tracer) -> None:
    t = tracer
    t.wrap_span(cli, "main", "cli.main")
    t.wrap_count(cparse, "tokenize", "cparse.tokenize", tally=len)
    t.wrap_count(cparse, "parse_program", "cparse.parse_program")
    for module in (ast_core, cli):
        t.wrap_span(module, "load_corpus", "ast_core.load_corpus")
        t.wrap_span(module, "dump_corpus", "ast_core.dump_corpus")
    t.wrap_span(sampling, "build_training_set", "sampling.build_training_set", keep=True)
    t.wrap_count(trainer, "corrupt", "sampling.corrupt")
    t.wrap_count(
        trainer, "gradient_and_hinge", "coder.gradient_and_hinge",
        tally=lambda result: result[1] > 0.0,
    )
    t.wrap_span(coder, "objective", "coder.objective")
    t.wrap_span(trainer, "train", "trainer.train", fn=epoch_by_epoch(t, trainer.train))
    t.wrap_span(trainer, "save_checkpoint", "trainer.save_checkpoint")
    t.wrap_span(trainer, "load_checkpoint", "trainer.load_checkpoint")
    t.wrap_count(analysis, "nearest_neighbors", "analysis.nearest_neighbors")
    t.wrap_span(analysis, "kmeans", "analysis.kmeans")
    t.wrap_span(analysis, "render_report", "analysis.render_report")
    t.wrap_count(classify, "node_histogram", "classify.node_histogram")
    t.wrap_span(classify, "train_classifier", "classify.train_classifier")
    t.wrap_count(classify, "loss_and_gradients", "classify.loss_and_gradients")
    t.wrap_count(classify, "evaluate", "classify.evaluate")
    t.wrap_span(embedding_io, "format_embeddings", "embedding_io.format_embeddings")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, setup_tracer, facts: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit). Times and counts are per traced pass; `facts`
    holds what the workload measured from its files (byte sizes, node and
    pair counts) and its result values."""
    passes = tracer.span_count(PASS_SPAN)
    walls = [s["end"] - s["start"] for s in tracer.spans if s["name"] == PASS_SPAN]
    epochs_ms = [
        (s["end"] - s["start"]) * 1e3 for s in tracer.spans if s["name"] == "trainer.epoch"
    ]

    def per_pass(x):
        return x / passes

    def span_s(name):
        return per_pass(tracer.span_seconds(name))

    samples = tracer.last.get("sampling.build_training_set") or []
    tokens = per_pass(tracer.tally("cparse.tokenize"))
    tokenize_s = per_pass(tracer.seconds("cparse.tokenize"))
    steps = tracer.calls("coder.gradient_and_hinge")
    m = {
        "cparse.tokenize_s": (tokenize_s, "s"),
        "cparse.parse_s": (per_pass(tracer.seconds("cparse.parse_program")), "s"),
        "cparse.tokens": (tokens, "count"),
        "cparse.nodes": (facts.get("parsed_nodes", 0), "count"),
        "cparse.tokens_per_s": (_ratio(tokens, tokenize_s), "1/s"),
        "ast_core.dump_corpus_s": (span_s("ast_core.dump_corpus"), "s"),
        "ast_core.load_corpus_s": (span_s("ast_core.load_corpus"), "s"),
        "ast_core.corpus_bytes": (facts.get("corpus_bytes", 0), "bytes"),
        "corpusgen.generate_s": (setup_tracer.span_self_seconds("corpusgen."), "s"),
        "sampling.build_training_set_s": (span_s("sampling.build_training_set"), "s"),
        "sampling.samples": (len(samples), "count"),
        "sampling.distinct_frac": (_ratio(len(set(samples)), len(samples)), "fraction"),
        "sampling.corrupt_calls": (per_pass(tracer.calls("sampling.corrupt")), "count"),
        "sampling.corrupt_self_s": (per_pass(tracer.seconds("sampling.corrupt")), "s"),
        "coder.gradient_and_hinge_calls": (per_pass(steps), "count"),
        "coder.gradient_and_hinge_self_s": (
            per_pass(tracer.seconds("coder.gradient_and_hinge")), "s"),
        "coder.step_us": (
            _ratio(tracer.seconds("coder.gradient_and_hinge"), steps) * 1e6, "us"),
        "coder.active_pair_frac": (
            _ratio(tracer.tally("coder.gradient_and_hinge"), steps), "fraction"),
        "coder.objective_s": (span_s("coder.objective"), "s"),
        "coder.objective_pairs": (facts.get("objective_pairs", 0), "count"),
        "trainer.train_self_s": (
            per_pass(tracer.span_self_seconds("trainer.train")
                     + tracer.span_self_seconds("trainer.epoch")), "s"),
        "trainer.epoch_ms_p50": (
            statistics.median(epochs_ms) if epochs_ms else 0.0, "ms"),
        "trainer.epoch_ms_p90": (
            statistics.quantiles(epochs_ms, n=10)[-1] if len(epochs_ms) > 1
            else sum(epochs_ms), "ms"),
        "trainer.epochs": (per_pass(len(epochs_ms)), "count"),
        "trainer.save_checkpoint_s": (span_s("trainer.save_checkpoint"), "s"),
        "trainer.load_checkpoint_s": (span_s("trainer.load_checkpoint"), "s"),
        "trainer.checkpoint_bytes": (facts.get("checkpoint_bytes", 0), "bytes"),
        "analysis.nearest_neighbors_calls": (
            per_pass(tracer.calls("analysis.nearest_neighbors")), "count"),
        "analysis.nearest_neighbors_s": (
            per_pass(tracer.seconds("analysis.nearest_neighbors")), "s"),
        "analysis.kmeans_calls": (per_pass(tracer.span_count("analysis.kmeans")), "count"),
        "analysis.kmeans_s": (span_s("analysis.kmeans"), "s"),
        "analysis.render_report_s": (span_s("analysis.render_report"), "s"),
        "classify.node_histogram_s": (
            per_pass(tracer.seconds("classify.node_histogram")), "s"),
        "classify.train_classifier_s": (span_s("classify.train_classifier"), "s"),
        "classify.loss_and_gradients_calls": (
            per_pass(tracer.calls("classify.loss_and_gradients")), "count"),
        "classify.loss_and_gradients_self_s": (
            per_pass(tracer.seconds("classify.loss_and_gradients")), "s"),
        "classify.evaluate_calls": (per_pass(tracer.calls("classify.evaluate")), "count"),
        "classify.evaluate_self_s": (per_pass(tracer.seconds("classify.evaluate")), "s"),
        "embedding_io.format_embeddings_s": (span_s("embedding_io.format_embeddings"), "s"),
    }
    for layer in LAYERS:
        counted = sum(
            stats[1] for name, stats in tracer.counters.items()
            if name.startswith(layer + ".")
        )
        m[f"{layer}.self_s"] = (
            per_pass(tracer.span_self_seconds(layer + ".") + counted), "s")
    m["unattributed_s"] = (per_pass(tracer.span_self_seconds(PASS_SPAN)), "s")
    # A mean like the layer times, so the self times and unattributed_s add
    # up to it.
    m["traced_wall_s"] = (per_pass(sum(walls)), "s")
    m["trainer.final_mean_hinge"] = (facts.get("final_mean_hinge", 0.0), "1")
    m["coder.objective"] = (facts.get("objective", 0.0), "1")
    for model in ("deep_pretrained", "deep_random", "logreg"):
        key = f"test_xent_{model}"
        m[f"classify.{key}"] = (facts.get(key, 0.0), "nats")
    return m

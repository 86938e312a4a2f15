"""The ``train-mskcfg`` workload.

A run extracts a seeded MSKCFG-synthetic corpus once and saves it with
``save_dataset`` (pre-extraction is not measured).  Set-up loads it,
splits it (stratified train / validation / held-out test), fits the
attribute scaler and builds the three Table II models; it is timed
:data:`SETUP_REPEATS` times before the first round and
:data:`SETUPS_BETWEEN` times after each training and each request phase
of every round, and reported as the median over those blocks of their
mean.  The timed phase
trains each of ``adaptive``, ``sort_conv1d`` and ``sort_weighted`` for
:data:`EPOCHS` epochs with ``Trainer.train`` (compiled tape on, the
default), round after round while another round still fits in the
run's seconds (at least :data:`MIN_ROUNDS` rounds).  After each
training, the trained model classifies every corpus graph one graph per
call, which gives the workload its request latency and throughput.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Dict, List

import numpy as np

from repro.asm.parser import AsmParser
from repro.cfg.builder import CfgBuilder
from repro.core.dgcnn import build_model
from repro.datasets.cache import load_dataset, save_dataset
from repro.datasets.loader import MalwareDataset
from repro.datasets.mskcfg import MSKCFG_FAMILIES
from repro.exceptions import TrainingError
from repro.features.acfg import ACFG
from repro.features.scaling import AttributeScaler
from repro.nn.optim import Adam
from repro.nn.tape import CompiledModel
from repro.similarity import SimilarityIndex, fingerprint_acfg
from repro.train import Trainer
from repro.train.batching import BatchCollator

from magicbench import inputs, prepare, stages
from magicbench.report import Metric, Result, add_layer, add_span_medians
from magicbench.server import peak_rss_kb, reset_peak_rss
from magicbench.stats import median, ratio, summarize
from magicbench.trace import Tracer, instrumented, spanned, tape_spanned

CORPUS_TOTAL = 150
EPOCHS = 5
#: Set-ups timed before the first round.
SETUP_REPEATS = 5
#: Set-ups timed after each training and after each request phase of a
#: round (twelve per round).
SETUPS_BETWEEN = 2
#: Three rounds of 150 graphs x 3 variants give >= 1000 latency samples.
MIN_ROUNDS = 3
#: Mean held-out accuracy of a round's three trained variants must reach
#: this.  Nine classes; the largest holds 27% of the corpus.
ACCURACY_FLOOR = 0.4
#: Two single-graph probabilities closer than this count as a tie.
TIE_TOLERANCE = 1e-9

#: Training graphs per variant in the untimed warm-up (half as many validate).
WARM_UP_GRAPHS = 20


def _splits(dataset: MalwareDataset, seed: int):
    rest, test = dataset.stratified_split(0.2, seed=seed)
    train, validation = rest.stratified_split(0.2, seed=seed)
    return train, validation, test


def _setup(corpus_dir: str, seed: int):
    dataset = load_dataset(corpus_dir)
    train, validation, test = _splits(dataset, seed)
    scaler = AttributeScaler()
    scaled_train = scaler.fit_transform(train.acfgs)
    scaled_val = scaler.transform(validation.acfgs)
    scaled_test = scaler.transform(test.acfgs)
    models = [build_model(prepare.table2_config(v)) for v in stages.VARIANTS]
    return scaled_train, scaled_val, scaled_test, models


def run(workload: str, root: str, workdir: str, seed: int, seconds: float,
        trace: bool, scale: float, cache_dir: str, code_digest: str) -> Result:
    result = Result(workload, seed)
    total = max(len(MSKCFG_FAMILIES) * 4, int(CORPUS_TOTAL * scale))
    specs = inputs.corpus_specs(inputs.STREAM_SEED_OFFSET + seed, total)
    with prepare.InputCache(cache_dir, code_digest) as cache:
        texts, outcomes = cache.get(specs, labelled=True)
    dataset = MalwareDataset(acfgs=prepare.acfgs_of(outcomes),
                             family_names=list(MSKCFG_FAMILIES))
    corpus_dir = os.path.join(workdir, "corpus")
    save_dataset(dataset, corpus_dir)
    vertices = [acfg.num_vertices for acfg in dataset.acfgs]
    lines = [text.count("\n") + 1 for text in texts]
    result.info["shape"] = {
        "graphs": len(dataset.acfgs),
        "listing_lines_p50": float(np.median(lines)),
        "listing_lines_max": int(max(lines)),
        "vertices_p50": float(np.median(vertices)),
        "vertices_max": int(max(vertices)),
        "share_fresh": 1.0, "share_repeat": 0.0, "share_variant": 0.0,
        "share_malformed": 0.0,
    }
    # The memory figure covers set-up and training, not the benchmark's
    # own copies of the generated inputs.
    del texts, outcomes, dataset
    gc.collect()
    rss_note = ("VmHWM of the training process from the end of input "
                "preparation" if reset_peak_rss() else
                "VmHWM of the training process, input preparation included")

    # Set-up times in blocks: one before the first round, then one per
    # round, taken in small groups between its trainings and request
    # phases.  A shared 2-CPU host was seen to switch between a fast and
    # a 1.6x slower speed every few seconds, and a set-up takes a tenth
    # of a second, so one burst of set-ups sees one speed; a block
    # spread over a round sees the same mix of speeds as the round's
    # training.
    setup_blocks: List[List[float]] = []

    def timed_setups(count: int, block: List[float]):
        for _ in range(count):
            gc.collect()
            started = time.perf_counter()
            loaded = _setup(corpus_dir, seed)
            block.append(time.perf_counter() - started)
        return loaded

    setup_blocks.append([])
    train, validation, test, _ = timed_setups(SETUP_REPEATS, setup_blocks[0])
    result.info["shape"].update(train=len(train), validation=len(validation),
                                test=len(test))

    _warm_up(seed, train, validation)
    everything = train + validation + test
    deadline = time.perf_counter() + seconds
    rounds: List[Dict] = []
    round_seconds = 0.0
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() + round_seconds <= deadline):
        block: List[float] = []
        setup_blocks.append(block)
        started = time.perf_counter()
        rounds.append(_round(
            result, seed, train, validation, test, everything,
            between=lambda: timed_setups(SETUPS_BETWEEN, block)))
        round_seconds = time.perf_counter() - started
    latencies = [ms for r in rounds for ms in r["latencies"]]
    result.info["phases"] = [
        {"round": i, "trainings": len(stages.VARIANTS),
         "graphs": r["graphs"], "seconds": round(r["train_seconds"], 3),
         "accuracy": r["accuracy"], "requests": len(r["latencies"]),
         "requests_correct": r["correct_answers"]}
        for i, r in enumerate(rounds)]

    summary = summarize(latencies)
    metrics = result.metrics
    metrics["latency_p50_ms"] = Metric(
        summary["p50"], "ms", summary["count"],
        note="single-graph classification by the trained models")
    metrics["latency_p99_ms"] = Metric(summary["p99"], "ms", summary["count"])
    metrics["throughput_rps"] = Metric(
        median([r["correct_answers"] / r["latency_seconds"] for r in rounds]),
        "req/s", len(rounds),
        note="median over rounds of correct single-graph answers per second")
    metrics["train_graphs_per_s"] = Metric(
        median([r["graphs"] / r["train_seconds"] for r in rounds]),
        "graphs/s", len(rounds),
        note=f"median over rounds; a round is {len(stages.VARIANTS)} variants "
             f"x {EPOCHS} epochs x {len(train)} graphs, validation included")
    metrics["setup_s"] = Metric(
        median([sum(b) / len(b) for b in setup_blocks]), "s",
        sum(len(b) for b in setup_blocks),
        note="load corpus, split, scale, build models; median over the "
             "pre-round block and each round of its mean set-up time")
    metrics["peak_rss_mb"] = Metric(
        peak_rss_kb(os.getpid()) / 1024.0, "MB", None, note=rss_note)
    if trace:
        with prepare.InputCache(cache_dir, code_digest) as cache:
            texts, _ = cache.get(specs, labelled=True)
        _trace(result, workdir, seed, texts, specs, train, validation, test,
               rounds[0])
    return result


def _warm_up(seed: int, train, validation) -> None:
    """One short untimed training per variant, so first-call costs
    (imports, lazy initialization) stay out of the timed rounds."""
    for variant in stages.VARIANTS:
        model = build_model(prepare.table2_config(variant, seed=seed))
        Trainer(prepare.table2_training(1, seed=seed)).train(
            model, train[:WARM_UP_GRAPHS], validation[:WARM_UP_GRAPHS // 2])


def _round(result: Result, seed: int, train, validation, test,
           requests, between: Callable[[], object] = lambda: None) -> Dict:
    """Train every variant once; then let each trained model classify
    each graph of ``requests``, one graph per call.  ``between`` runs,
    untimed, after each training and after each request phase."""
    record = {"graphs": 0, "train_seconds": 0.0, "latencies": [],
              "latency_seconds": 0.0, "correct_answers": 0, "accuracy": {},
              "tape": [], "collate": []}
    labels = np.array([acfg.label for acfg in test])
    for variant in stages.VARIANTS:
        model = build_model(prepare.table2_config(variant, seed=seed))
        trainer = Trainer(prepare.table2_training(EPOCHS, seed=seed))
        result.attempted += 1
        started = time.perf_counter()
        try:
            history = trainer.train(model, train, validation)
        except TrainingError as exc:
            result.fail(f"{variant} training raised {exc}")
            continue
        record["train_seconds"] += time.perf_counter() - started
        record["graphs"] += len(train) * EPOCHS
        if history.diverged or not np.isfinite(history.train_losses).all():
            result.fail(f"{variant} training diverged")
            continue
        record["tape"].append(trainer.last_compiled.stats())
        record["collate"].append((trainer.last_collator.hits,
                                  trainer.last_collator.misses))
        # The trainer's tape cache holds large arenas in reference cycles;
        # free them before the requests and the next training, so neither
        # pays for collecting a heap the benchmark kept alive.
        del trainer
        gc.collect()
        between()
        held_out = Trainer.predict_proba(model, test)
        record["accuracy"][variant] = round(
            float((held_out.argmax(axis=1) == labels).mean()), 4)
        if requests:
            _single_graph_requests(result, model, requests,
                                   Trainer.predict_proba(model, requests),
                                   record)
            between()
    result.attempted += 1
    accuracy = float(np.mean(list(record["accuracy"].values()) or [0.0]))
    if accuracy < ACCURACY_FLOOR:
        result.fail(f"mean held-out accuracy {accuracy:.3f} below the floor "
                    f"{ACCURACY_FLOOR} ({record['accuracy']})")
    return record


def _single_graph_requests(result: Result, model, graphs, reference: np.ndarray,
                           record: Dict) -> None:
    """Classify ``graphs`` one per call, checking each answer.

    An answer is correct when its label has the top score in the batched
    reference (ties within :data:`TIE_TOLERANCE` accepted).
    """
    started_all = time.perf_counter()
    for position, graph in enumerate(graphs):
        started = time.perf_counter()
        row = Trainer.predict_proba(model, [graph])[0]
        record["latencies"].append((time.perf_counter() - started) * 1000.0)
        result.attempted += 1
        expected = reference[position]
        if expected.max() - expected[int(row.argmax())] <= TIE_TOLERANCE:
            record["correct_answers"] += 1
        else:
            result.fail(f"single-graph label {int(row.argmax())} disagrees "
                        f"with the batched label {int(expected.argmax())}")
    record["latency_seconds"] += time.perf_counter() - started_all


def _wrappers(tracer: Tracer):
    """Spans around the training loop's calls into tape, optimizer,
    collator and evaluation."""
    return (
        (CompiledModel, "forward", tape_spanned(tracer)),
        (CompiledModel, "backward", spanned(tracer, "tape.backward")),
        (Adam, "step", spanned(tracer, "train.optimizer_step")),
        (BatchCollator, "collate", spanned(tracer, "collate")),
        (Trainer, "evaluate_loss", spanned(tracer, "train.eval")),
    )


def _trace(result: Result, workdir: str, seed: int, texts: List[str], specs,
           train, validation, test, untraced_round: Dict) -> None:
    tracer = Tracer()
    # Pre-extraction of the corpus, through the front end's entry points.
    raw: List[ACFG] = []
    vertices: List[int] = []
    for position, (spec, text) in enumerate(zip(specs, texts)):
        parser = AsmParser()
        with tracer.span("asm.parse", position):
            program = parser.parse(text)
        with tracer.span("cfg.build", position):
            cfg = CfgBuilder(resolve_target=parser.resolve_target).build(
                program, name=spec.name)
        vertices.append(cfg.num_vertices)
        with tracer.span("features.acfg", position):
            raw.append(ACFG.from_cfg(cfg, label=inputs.label_of(spec)))
    scaler = AttributeScaler().fit(raw)
    for position, acfg in enumerate(raw):
        with tracer.span("features.scale", position):
            scaler.transform([acfg])
    # Near-duplicate screening of the corpus (what ``repro.cli dedup``
    # runs before training), through the similarity entry points.
    index = SimilarityIndex(max_entries=len(raw))
    duplicates = 0
    for position, acfg in enumerate(raw):
        with tracer.span("similarity.fingerprint", position):
            fingerprint = fingerprint_acfg(acfg)
        with tracer.span("similarity.signature", position):
            signature = index.signature(fingerprint)
        with tracer.span("similarity.query", position):
            match = index.query(signature)
        if match is not None:
            duplicates += 1
            continue
        with tracer.span("similarity.insert", position):
            index.insert(str(position), signature, position)

    # One more round of real training, traced; the single-graph requests
    # are left out so the spans cover training alone.
    with instrumented(_wrappers(tracer)):
        traced = _round(result, seed, train, validation, test, [])
    traced_gps = traced["graphs"] / traced["train_seconds"]
    untraced_gps = result.metrics["train_graphs_per_s"].value

    add_span_medians(result, tracer)
    add_layer(result, "cfg.vertices", median(vertices), "count", len(vertices))
    hits = ratio(duplicates, len(raw))
    add_layer(result, "similarity.hit_ratio", hits["value"], "ratio", hits["base"],
           note="near-duplicates found / corpus graphs")
    collate_hits = sum(h for h, _ in untraced_round["collate"])
    collate_total = sum(h + m for h, m in untraced_round["collate"])
    memo = ratio(collate_hits, collate_total)
    add_layer(result, "collate.memo_hit_ratio", memo["value"], "ratio", memo["base"])
    replays = sum(s["replays"] for s in untraced_round["tape"])
    captures = sum(s["captures"] for s in untraced_round["tape"])
    tape = ratio(replays, replays + captures)
    add_layer(result, "tape.replay_ratio", tape["value"], "ratio", tape["base"])

    table = stages.stage_table(train)
    for name, value in stages.stage_metrics(table).items():
        add_layer(result, name, value, "ms", table[name.split(".")[1]]["calls"])
    notes = [f"hottest DGCNN stage of {variant}: {row['hottest']}"
             for variant, row in table.items()]
    notes.append(f"overhead: traced train_graphs_per_s {traced_gps:.2f} vs "
                 f"untraced {untraced_gps:.2f} "
                 f"({traced_gps / untraced_gps - 1.0:+.1%})")
    result.info["trace_notes"] = notes
    tracer.write(os.path.join(workdir, f"trace-{result.workload}.jsonl"),
                 meta={"workload": result.workload, "seed": seed})

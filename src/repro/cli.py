"""Command-line interface for MAGIC.

Mirrors the deployment story of Section VII — train on labelled corpora,
then classify unknown binaries' listings — as four subcommands:

* ``info``     — parse a listing, print CFG structure and metrics.
* ``extract``  — batch-convert listings to cached CFG JSON files.
* ``train``    — train a MAGIC instance on a synthetic corpus (or a
  directory of cached CFGs named ``<family>__<id>.json``) and persist it,
  optionally publishing an integrity-checked archive to a registry.
* ``predict``  — classify listings with a persisted model.
* ``classify`` — classify listings through the serving engine
  (registry archives, per-request failure kinds, prediction cache).
* ``dedup``    — report (or drop) near-duplicate samples in an
  extracted corpus using the topology-aware CFG fingerprints of
  :mod:`repro.similarity`.
* ``serve``    — run the HTTP classification service (``/classify``,
  ``/healthz``, ``/metrics``): one in-process model replica by
  default, or a multi-process fleet of model replicas with
  ``--workers N``.
* ``rollout``  — drive a running fleet's zero-downtime model rollout
  (``start``/``status``/``promote``/``rollback`` against the server's
  ``/rollout/*`` endpoints).
* ``attack``   — adversarial robustness: feature-space PGD (and
  optionally the problem-space re-obfuscation attack) against a
  persisted model, reported per family.
* ``sweep``    — Table II-style hyper-parameter sweep with ``--n-jobs``
  worker-process parallelism and ``--journal``/``--resume`` checkpointing.
* ``lint``     — project-invariant static analysis (``repro.analysis``):
  determinism, pool-safety, exception taxonomy, atomic writes,
  float-equality, lock discipline; pragma and baseline aware.

Run ``python -m repro.cli --help`` for usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.cfg.builder import build_cfg_from_file
from repro.cfg.metrics import compute_cfg_metrics, to_dot
from repro.cfg.serialization import load_cfg
from repro.core.dgcnn import ModelConfig
from repro.core.magic import Magic
from repro.exceptions import MagicError
from repro.features.acfg import ACFG
from repro.train.trainer import Trainer, TrainingConfig


# ----------------------------------------------------------------------
# subcommands


def cmd_info(args: argparse.Namespace) -> int:
    cfg = build_cfg_from_file(args.listing, name=os.path.basename(args.listing))
    metrics = compute_cfg_metrics(cfg)
    print(f"{args.listing}:")
    for key, value in metrics.as_dict().items():
        print(f"  {key:24s} {value}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(cfg, include_instructions=args.verbose))
        print(f"  DOT written to {args.dot}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    """Batch-convert listings to cached CFG JSON, fault-tolerantly.

    Runs on the extraction service: ``--n-jobs`` above 1 or a
    ``--timeout`` use supervised worker processes (hung listings are
    killed, crashed workers cost one sample), ``--journal``/``--resume``
    give SIGKILL-and-resume for long corpora, ``--max-vertices`` guards
    against pathological graphs, and ``--quarantine`` preserves failing
    inputs for triage.
    """
    from repro.features.pipeline import AcfgPipeline

    os.makedirs(args.output, exist_ok=True)
    items = []
    for path in args.listings:
        base = os.path.splitext(os.path.basename(path))[0]
        destination = os.path.join(args.output, base + ".json")
        items.append((base, {"path": path, "destination": destination}, None))

    pipeline = AcfgPipeline(
        max_workers=args.n_jobs,
        timeout=args.timeout,
        max_vertices=args.max_vertices,
        journal_path=args.journal,
        resume=args.resume,
        quarantine_dir=args.quarantine,
    )
    report = pipeline.run_units(items, "cfg-json")
    for index, _, summary in report.results:
        print(f"{items[index][1]['path']} -> {summary['destination']} "
              f"({summary['num_vertices']} blocks, "
              f"{summary['num_edges']} edges)")
    for failure in report.failures:
        print(f"FAILED {items[failure.index][1]['path']} "
              f"[{failure.kind.value}]: {failure.detail}", file=sys.stderr)
    if report.resumed_samples:
        print(f"(resumed {report.resumed_samples} samples from "
              f"{args.journal})")
    return 1 if report.failures else 0


def _load_cfg_corpus(directory: str):
    """Load ``<family>__<id>.json`` CFGs into a labelled dataset."""
    from repro.datasets.loader import MalwareDataset

    families: List[str] = []
    acfgs = []
    records = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        family = filename.split("__", 1)[0]
        if family not in families:
            families.append(family)
        records.append((os.path.join(directory, filename), family))
    for path, family in records:
        cfg = load_cfg(path)
        acfgs.append(ACFG.from_cfg(cfg, label=families.index(family)))
    if not acfgs:
        raise MagicError(f"no CFG JSON files found in {directory}")
    return MalwareDataset(acfgs=acfgs, family_names=families)


def cmd_train(args: argparse.Namespace) -> int:
    if args.cfg_dir:
        dataset = _load_cfg_corpus(args.cfg_dir)
    elif args.dataset == "mskcfg":
        from repro.datasets import generate_mskcfg_dataset

        dataset = generate_mskcfg_dataset(
            total=args.total, seed=args.seed, minimum_per_family=8
        )
    else:
        from repro.datasets import generate_yancfg_dataset

        dataset = generate_yancfg_dataset(
            total=args.total, seed=args.seed, minimum_per_family=8
        )

    train, validation = dataset.stratified_split(0.2, seed=args.seed)
    config = ModelConfig(
        num_attributes=dataset.acfgs[0].num_attributes,
        num_classes=dataset.num_classes,
        pooling=args.pooling,
        graph_conv_sizes=(32, 32, 32, 32),
        amp_grid=(3, 3),
        conv2d_channels=16,
        sort_k=10,
        hidden_size=64,
        dropout=0.1,
        seed=args.seed,
    )
    magic = Magic(config, dataset.family_names)
    adversarial = None
    if args.adversarial:
        from repro.train.trainer import AdversarialConfig

        adversarial = AdversarialConfig(
            steps=args.attack_steps,
            epsilon=args.attack_epsilon,
            weight=args.attack_weight,
        )
        print(f"Adversarial training: {args.attack_steps}-step inner PGD, "
              f"epsilon={args.attack_epsilon}, weight={args.attack_weight} "
              "(eager path)")
    print(f"Training on {len(train)} samples "
          f"({dataset.num_classes} families, {args.epochs} epochs)...")
    history = magic.fit(
        train.acfgs,
        validation.acfgs,
        TrainingConfig(epochs=args.epochs, batch_size=10,
                       learning_rate=3e-3, compiled=args.compiled,
                       seed=args.seed, adversarial=adversarial),
    )
    if args.compiled:
        report = magic.evaluate(validation.acfgs)
    else:  # --no-compiled evaluates eagerly too
        report = Trainer.evaluate(
            magic.model, magic.scaler.transform(validation.acfgs),
            family_names=magic.family_names, compiled=False,
        )
    print(report.format_table())
    print(f"Best epoch {history.best_epoch} "
          f"(validation loss {history.best_validation_loss:.4f})")
    magic.save(args.model_dir)
    print(f"Model saved to {args.model_dir}")
    if args.registry:
        from repro.serve import publish

        info = publish(magic, args.registry,
                       args.model_name or args.dataset)
        print(f"Published archive {info.describe()} to {info.path}")
    return 0


def _serving_engine(args: argparse.Namespace):
    """Build the ``InferenceEngine`` shared by ``classify`` and ``serve``."""
    from repro.serve import InferenceEngine

    kwargs = {
        "max_vertices": args.max_vertices,
        "compiled": args.compiled,
        "infer_dtype": args.infer_dtype,
        "similar_threshold": args.similar_threshold,
    }
    if args.cache_size is not None:
        kwargs["cache_size"] = args.cache_size
    if args.fingerprint_iterations is not None:
        kwargs["fingerprint_iterations"] = args.fingerprint_iterations
    if args.model_dir:
        return InferenceEngine.from_archive(args.model_dir, **kwargs)
    if not (args.registry and args.model):
        raise MagicError(
            "pass either --model-dir, or --registry with --model NAME[@VERSION]"
        )
    name, _, version = args.model.partition("@")
    return InferenceEngine.from_registry(
        args.registry, name, version or None, **kwargs
    )


def _read_listing(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def cmd_classify(args: argparse.Namespace) -> int:
    """Classify listings through the serving engine, one batched forward.

    Unlike ``predict`` this runs on the online-serving path: archives
    come from the integrity-checked registry, repeated inputs hit the
    content-hash prediction cache, and a malformed listing is reported
    with its structured failure kind (``[parse]``, ``[oversize]``, ...)
    without poisoning the rest of the batch.
    """
    engine = _serving_engine(args)
    samples = []
    status = 0
    for path in args.listings:
        try:
            samples.append((path, _read_listing(path)))
        except OSError as exc:
            print(f"FAILED {path}: {exc.strerror or exc}", file=sys.stderr)
            status = 1
    results = engine.classify_texts(samples)
    for result in results:
        if result.failure is not None:
            print(f"FAILED {result.name} [{result.failure.kind.value}]: "
                  f"{result.failure.detail}", file=sys.stderr)
            status = 1
        else:
            if result.similar and result.similarity is not None:
                suffix = f" (similar {result.similarity:.3f})"
            elif result.cached:
                suffix = " (cached)"
            else:
                suffix = ""
            print(f"{result.name}: {result.family} "
                  f"(confidence {result.confidence:.3f}){suffix}")
    return status


def cmd_dedup(args: argparse.Namespace) -> int:
    """Report (or drop) near-duplicates in an extracted dataset cache.

    Runs the same topology-aware fingerprint the serving similarity
    tier uses over every sample of a ``save_dataset`` corpus.  Dropped
    members print one ``DROPPED <name> [near-duplicate]: ...`` line
    each to stderr — mirroring ``extract``'s quarantine-style failure
    listing — and the command exits 1 when duplicates were found but
    not applied, so pipelines can gate on a clean corpus.  ``--apply``
    rewrites the cache atomically, keeping each cluster's first-seen
    keeper.
    """
    import json

    from repro.datasets.cache import load_dataset, save_dataset
    from repro.datasets.loader import MalwareDataset
    from repro.similarity import find_near_duplicates

    dataset = load_dataset(args.cache_dir)
    kwargs = {}
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    if args.iterations is not None:
        kwargs["iterations"] = args.iterations
    report = find_near_duplicates(dataset.acfgs, **kwargs)
    for cluster in report.clusters:
        for member in cluster.members:
            print(f"DROPPED {member.name} [near-duplicate]: "
                  f"estimated Jaccard {member.similarity:.3f} vs "
                  f"{cluster.keeper_name}", file=sys.stderr)
    print(f"{args.cache_dir}: {report.total} samples, "
          f"{report.num_kept} kept, {report.num_dropped} near-duplicates "
          f"in {len(report.clusters)} clusters "
          f"(threshold {report.threshold})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.output}")
    if not report.num_dropped:
        return 0
    if not args.apply:
        return 1
    kept = [dataset.acfgs[index] for index in report.kept_indices]
    save_dataset(
        MalwareDataset(acfgs=kept, family_names=dataset.family_names,
                       name=dataset.name),
        args.cache_dir,
    )
    print(f"rewrote {args.cache_dir} with {len(kept)} samples")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP classification service over a fleet dispatcher.

    ``--workers 0`` (the default) serves the engine built from
    ``--model-dir`` or ``--registry``/``--model`` on one replica thread
    of this process.  ``--workers N`` starts N model-replica worker
    processes over a registry archive (least-loaded routing, SIGKILL +
    respawn supervision) and enables the ``/rollout/*`` endpoints.
    Both batch the same way: queued requests leave together, up to
    ``--max-batch-size``.
    """
    from repro.serve import FleetDispatcher, build_server

    if args.workers > 0:
        if args.model_dir or not (args.registry and args.model):
            raise MagicError(
                "--workers N requires --registry and --model: fleet "
                "replicas each load a verified archive from the registry"
            )
        name, _, version = args.model.partition("@")
        fleet_kwargs = {}
        if args.cache_size is not None:
            fleet_kwargs["cache_size"] = args.cache_size
        dispatcher = FleetDispatcher(
            args.registry,
            name,
            version or None,
            num_workers=args.workers,
            max_batch_size=args.max_batch_size,
            batch_timeout=args.batch_timeout,
            max_vertices=args.max_vertices,
            similar_threshold=args.similar_threshold,
            fingerprint_iterations=args.fingerprint_iterations,
            compiled=args.compiled,
            infer_dtype=args.infer_dtype,
            **fleet_kwargs,
        )
    else:
        dispatcher = FleetDispatcher.in_process(
            _serving_engine(args), max_batch_size=args.max_batch_size
        )
    server = build_server(
        dispatcher,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        quiet=not args.verbose,
        include_margin=args.include_margin,
    )
    replicas = (f"{args.workers} worker processes" if args.workers
                else "in-process replica")
    print(f"Serving {dispatcher.describe_model()} on "
          f"http://{args.host}:{server.port} "
          f"({replicas}, max_batch_size={args.max_batch_size})")
    print("Endpoints: POST /classify, GET /healthz, GET /metrics, "
          "POST /rollout/start|promote|rollback, GET /rollout/status")
    try:
        server.serve()
    except KeyboardInterrupt:
        _farewell("shutting down")
    return 0


def _farewell(line: str) -> None:
    """Print ``line`` unless stdout is gone: a closed pipe (the reader
    went first) must not turn an ordered shutdown into a failure."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Point stdout at /dev/null, so the flush at exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_rollout(args: argparse.Namespace) -> int:
    """Drive a running fleet's ``/rollout/*`` control surface over HTTP."""
    import json
    import time
    from urllib import error as urlerror
    from urllib import request as urlrequest

    base = args.url.rstrip("/")

    def call(method: str, path: str, payload=None):
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urlrequest.Request(
            base + path, data=data, headers=headers, method=method
        )
        try:
            with urlrequest.urlopen(req, timeout=args.http_timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urlerror.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                body = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                body = {"error": raw}
            return exc.code, body
        except urlerror.URLError as exc:
            raise MagicError(
                f"cannot reach the serve endpoint at {base}: {exc.reason}"
            ) from exc

    if args.action == "start":
        if not args.version:
            raise MagicError("rollout start requires --version")
        payload = {"version": args.version}
        if args.num_workers is not None:
            payload["num_workers"] = args.num_workers
        if args.shadow_fraction is not None:
            payload["shadow_fraction"] = args.shadow_fraction
        if args.min_samples is not None:
            payload["min_samples"] = args.min_samples
        if args.min_parity is not None:
            payload["min_parity"] = args.min_parity
        if args.max_latency_ratio is not None:
            payload["max_latency_ratio"] = args.max_latency_ratio
        if args.manual:
            payload["auto"] = False
        status, body = call("POST", "/rollout/start", payload)
    elif args.action == "status":
        status, body = call("GET", "/rollout/status")
    else:  # promote / rollback
        status, body = call("POST", f"/rollout/{args.action}")

    print(json.dumps(body, indent=2))
    if status >= 400:
        return 1
    if args.action == "start" and args.watch:
        deadline = time.monotonic() + args.watch
        while time.monotonic() < deadline:
            time.sleep(args.interval)
            status, body = call("GET", "/rollout/status")
            state = body.get("state")
            report = body.get("report") or {}
            print(f"state={state} completed={report.get('completed')} "
                  f"parity={report.get('parity')} "
                  f"latency_ratio={report.get('latency_ratio')}")
            if state != "shadowing":
                print(json.dumps(body, indent=2))
                return 0 if state == "promoted" else 1
        print("watch window elapsed while still shadowing", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Grid-search a reduced Table II sweep, optionally in parallel.

    Each (setting, fold) pair is an independent work unit; ``--n-jobs``
    fans them over supervised worker processes and ``--journal``
    checkpoints every completed fold so ``--resume`` skips finished work
    after an interruption.  Results are identical at every ``--n-jobs``;
    a fold that keeps failing is reported and the exit status is 1.
    """
    import json

    from repro.train import GridSearch, reduced_table2_grid, setting_key

    if args.dataset == "mskcfg":
        from repro.datasets import generate_mskcfg_dataset as generate
    else:
        from repro.datasets import generate_yancfg_dataset as generate
    dataset = generate(
        total=args.total, seed=args.seed, minimum_per_family=args.folds + 2
    )
    settings = reduced_table2_grid(limit=args.settings)

    def progress(position, count, setting, score):
        print(f"[{position}/{count}] score={score:.4f}  {setting.describe()}")

    search = GridSearch(
        dataset,
        epochs=args.epochs,
        n_splits=args.folds,
        seed=args.seed,
        hidden_size=args.hidden_size,
        progress=progress,
    )
    result = search.run(
        settings, n_jobs=args.n_jobs, journal=args.journal, resume=args.resume
    )

    print(f"\nRanking ({len(result.entries)} settings, "
          f"{args.folds}-fold CV, n_jobs={args.n_jobs}):")
    rows = []
    for rank, entry in enumerate(result.ranking(), start=1):
        print(f"  {rank}. score={entry.score:.4f}  "
              f"accuracy={entry.result.accuracy:.3f}  "
              f"{entry.setting.describe()}")
        rows.append({
            "rank": rank,
            "setting_key": setting_key(entry.setting),
            "setting": entry.setting.describe(),
            "score": entry.score,
            "accuracy": entry.result.accuracy,
            "fold_validation_losses": [
                h.validation_losses for h in entry.result.fold_histories
            ],
        })
    for failure in result.failures:
        print(f"FAILED {failure.setting.describe()} fold {failure.fold_index} "
              f"after {failure.attempts} attempts: {failure.error}",
              file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"ranking": rows}, handle, indent=2)
        print(f"Ranking written to {args.output}")
    return 1 if result.failures else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Check the tree against the project-invariant rules.

    Exit status: 0 when clean (after pragma and baseline suppression),
    1 when findings remain, 2 on configuration errors (unknown rule,
    unreadable baseline, missing target).  CI runs this over ``src``
    and ``tests`` as the lint gate.
    """
    import json

    from repro.analysis import (
        LintEngine,
        apply_baseline,
        findings_to_json,
        format_findings,
        format_findings_github,
        load_baseline,
        registered_rules,
        write_baseline,
    )

    if args.list_rules:
        for rule_id, rule_cls in sorted(registered_rules().items()):
            print(f"{rule_id:16s} {rule_cls.description}")
        return 0
    if not args.paths:
        raise MagicError("lint needs at least one file or directory to check")
    if args.jobs < 1:
        raise MagicError(f"--jobs must be >= 1, got {args.jobs}")
    select = args.select.split(",") if args.select else None
    engine = LintEngine(
        select=[s.strip() for s in select] if select else None,
        jobs=args.jobs,
        cache_path=args.cache,
    )
    findings = engine.lint_paths(args.paths)
    if args.write_baseline:
        if not args.baseline:
            raise MagicError("--write-baseline requires --baseline PATH")
        write_baseline(args.baseline, findings)
        print(f"baseline with {len(findings)} finding(s) written to "
              f"{args.baseline}")
        return 0
    if args.baseline and os.path.exists(args.baseline):
        findings = apply_baseline(findings, load_baseline(args.baseline))
    if args.format == "json":
        print(json.dumps(findings_to_json(findings), indent=2))
    elif args.format == "github":
        if findings:
            print(format_findings_github(findings))
        print(f"{len(findings)} finding(s)")
    elif findings:
        print(format_findings(findings))
    else:
        print("clean: no findings")
    return 1 if findings else 0


def cmd_attack(args: argparse.Namespace) -> int:
    """Attack a persisted model and print its per-family robustness.

    Regenerates the synthetic MSKCFG corpus the model was trained
    against (same ``--seed``/``--total`` conventions as ``train``), runs
    the feature-space PGD attack over it, and prints the per-family
    robustness report.  ``--asm-samples N`` additionally runs the
    problem-space knob attack (re-obfuscate, re-extract) over the first
    N corpus coordinates.
    """
    import json

    import numpy as np

    from repro.adv import (
        AttackConfig,
        FeatureSpaceAttack,
        asm_attack_corpus,
        build_robustness_report,
    )
    from repro.datasets import generate_mskcfg_dataset
    from repro.datasets.mskcfg import MSKCFG_FAMILIES
    from repro.features.validator import is_semantically_valid

    magic = Magic.load(args.model_dir)
    dataset = generate_mskcfg_dataset(
        total=args.total, seed=args.seed, minimum_per_family=8
    )
    acfgs = dataset.acfgs
    attack = FeatureSpaceAttack(
        magic.model,
        magic.scaler,
        AttackConfig(epsilon=args.epsilon, steps=args.steps, seed=args.seed),
    )
    outcome = attack.attack(acfgs)
    labels = np.array([acfg.label for acfg in acfgs], dtype=np.int64)
    report = build_robustness_report(
        dataset.family_names,
        labels,
        outcome.clean_probabilities,
        outcome.adversarial_probabilities,
        [record.perturbation_linf for record in outcome.records],
    )
    all_valid = all(
        is_semantically_valid(graph.attributes, graph.out_degrees())
        for graph in outcome.adversarial_acfgs
    )
    print(f"Feature-space PGD: epsilon={args.epsilon}, steps={args.steps}")
    print(report.format_table())
    print("semantic validator: "
          + ("all adversarial samples valid" if all_valid
             else "INVALID adversarial samples present"))

    asm_payload = []
    if args.asm_samples > 0:
        coordinates = [
            (MSKCFG_FAMILIES[i % len(MSKCFG_FAMILIES)],
             i // len(MSKCFG_FAMILIES))
            for i in range(args.asm_samples)
        ]
        results = asm_attack_corpus(magic, coordinates, seed=args.seed)
        flips = sum(1 for r in results if r.flipped and r.clean_label == r.label)
        eligible = sum(1 for r in results if r.clean_label == r.label)
        print(f"\nProblem-space knob attack: {flips}/{eligible} "
              "clean-correct samples flipped")
        for result in results:
            knobs = result.knobs.to_dict() if result.knobs else {}
            print(f"  {result.name}: "
                  f"{'FLIPPED' if result.flipped else 'held'} "
                  f"(margin {result.clean_margin:+.3f} -> "
                  f"{result.adversarial_margin:+.3f}, "
                  f"attempts {result.attempts}, knobs {knobs})")
        asm_payload = [result.to_dict() for result in results]

    if args.output:
        payload = {
            "feature_space": report.to_dict(),
            "all_semantically_valid": all_valid,
            "attack": {"epsilon": args.epsilon, "steps": args.steps,
                       "seed": args.seed},
            "asm": asm_payload,
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nReport written to {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """Classify listings in one batched forward pass.

    Ingestion failures are reported per file; every successfully
    extracted ACFG then flows through the model as part of one
    GraphBatch-collated prediction call instead of one forward pass per
    file.
    """
    magic = Magic.load(args.model_dir)
    status = 0
    ingested = []  # (path, ACFG) for everything that survived the front end
    for path in args.listings:
        try:
            if path.endswith(".json"):
                acfg = ACFG.from_cfg(load_cfg(path))
            else:
                acfg = magic.acfg_from_asm(_read_listing(path), name=path)
        except OSError as exc:
            print(f"FAILED {path}: {exc.strerror or exc}", file=sys.stderr)
            status = 1
            continue
        except MagicError as exc:
            print(f"FAILED {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        ingested.append((path, acfg))
    if ingested:
        probabilities = magic.predict_proba([acfg for _, acfg in ingested])
        for (path, _), row in zip(ingested, probabilities):
            family = magic.family_names[int(row.argmax())]
            print(f"{path}: {family} (confidence {float(row.max()):.3f})")
    return status


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="MAGIC: CFG-based malware classification (DSN 2019 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="inspect one listing's CFG")
    p_info.add_argument("listing")
    p_info.add_argument("--dot", help="also write a Graphviz DOT file")
    p_info.add_argument("--verbose", action="store_true",
                        help="embed disassembly in DOT labels")
    p_info.set_defaults(func=cmd_info)

    p_extract = sub.add_parser(
        "extract",
        help="listings -> cached CFG JSON (fault-tolerant, resumable)",
    )
    p_extract.add_argument("listings", nargs="+")
    p_extract.add_argument("--output", required=True)
    p_extract.add_argument("--n-jobs", type=int, default=1,
                           help="extraction worker processes")
    p_extract.add_argument("--timeout", type=float, default=None,
                           help="per-sample wall-clock limit in seconds "
                                "(hung samples are killed)")
    p_extract.add_argument("--max-vertices", type=int, default=None,
                           help="fail samples whose CFG exceeds this size")
    p_extract.add_argument("--journal",
                           help="JSON-lines checkpoint of finished samples")
    p_extract.add_argument("--resume", action="store_true",
                           help="skip samples already recorded in --journal")
    p_extract.add_argument("--quarantine",
                           help="directory preserving failing inputs")
    p_extract.set_defaults(func=cmd_extract)

    p_train = sub.add_parser("train", help="train and persist a model")
    p_train.add_argument("--dataset", choices=("mskcfg", "yancfg"),
                         default="mskcfg")
    p_train.add_argument("--cfg-dir",
                         help="train on <family>__<id>.json CFGs instead")
    p_train.add_argument("--total", type=int, default=120)
    p_train.add_argument("--epochs", type=int, default=15)
    p_train.add_argument("--pooling", default="adaptive",
                         choices=("adaptive", "sort_conv1d", "sort_weighted"))
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--model-dir", required=True)
    p_train.add_argument("--registry",
                         help="also publish a sha256-verified archive to "
                              "this registry root")
    p_train.add_argument("--model-name",
                         help="registry model name (default: dataset name)")
    p_train.add_argument("--compiled", action="store_true", default=True,
                         help="capture/replay training batches through the "
                              "tape engine (default; bit-exact with eager)")
    p_train.add_argument("--no-compiled", dest="compiled",
                         action="store_false",
                         help="force the eager per-op path for training, "
                              "validation and the final report")
    p_train.add_argument("--adversarial", action="store_true",
                         help="adversarial training: mix each batch with "
                              "an inner-PGD attacked copy (forces the "
                              "eager path)")
    p_train.add_argument("--attack-steps", type=int, default=3,
                         help="inner-attack PGD steps (with --adversarial)")
    p_train.add_argument("--attack-epsilon", type=float, default=1.0,
                         help="inner-attack L-inf radius in scaled "
                              "feature units (with --adversarial)")
    p_train.add_argument("--attack-weight", type=float, default=0.5,
                         help="adversarial-loss weight in the "
                              "clean/adversarial mix (with --adversarial)")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser(
        "sweep", help="parallel hyper-parameter sweep with checkpoint/resume"
    )
    p_sweep.add_argument("--dataset", choices=("mskcfg", "yancfg"),
                         default="mskcfg")
    p_sweep.add_argument("--total", type=int, default=100,
                         help="synthetic corpus size")
    p_sweep.add_argument("--settings", type=int, default=None,
                         help="truncate the reduced Table II grid to N settings")
    p_sweep.add_argument("--epochs", type=int, default=8)
    p_sweep.add_argument("--folds", type=int, default=3)
    p_sweep.add_argument("--hidden-size", type=int, default=32)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--n-jobs", type=int, default=1,
                         help="worker processes for the (setting x fold) units")
    p_sweep.add_argument("--journal",
                         help="JSON-lines checkpoint of completed folds")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip folds already recorded in --journal")
    p_sweep.add_argument("--output", help="write the ranking as JSON")
    p_sweep.set_defaults(func=cmd_sweep)

    p_lint = sub.add_parser(
        "lint",
        help="project-invariant static analysis (repro.analysis)",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to check")
    p_lint.add_argument("--format", choices=("text", "json", "github"),
                        default="text",
                        help="report style; 'github' emits ::error "
                             "annotations for GitHub Actions")
    p_lint.add_argument("--select",
                        help="comma-separated rule ids to run "
                             "(default: all registered rules)")
    p_lint.add_argument("--jobs", type=int, default=1,
                        help="lint files in N worker processes "
                             "(default: 1, in-process)")
    p_lint.add_argument("--cache",
                        help="JSON result cache keyed by file sha256 and "
                             "engine fingerprint; warm runs skip "
                             "unchanged files")
    p_lint.add_argument("--baseline",
                        help="JSON baseline of accepted findings; existing "
                             "entries are filtered from the report")
    p_lint.add_argument("--write-baseline", action="store_true",
                        help="record the current findings into --baseline "
                             "and exit 0 (incremental adoption)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    p_lint.set_defaults(func=cmd_lint)

    p_predict = sub.add_parser("predict", help="classify listings")
    p_predict.add_argument("--model-dir", required=True)
    p_predict.add_argument("listings", nargs="+")
    p_predict.set_defaults(func=cmd_predict)

    p_attack = sub.add_parser(
        "attack",
        help="adversarially attack a persisted model and report "
             "per-family robustness",
    )
    p_attack.add_argument("--model-dir", required=True)
    p_attack.add_argument("--total", type=int, default=120,
                          help="synthetic corpus size to attack "
                               "(match the train --total)")
    p_attack.add_argument("--seed", type=int, default=0,
                          help="corpus + attack seed (match train --seed)")
    p_attack.add_argument("--epsilon", type=float, default=1.5,
                          help="PGD L-inf radius in scaled feature units")
    p_attack.add_argument("--steps", type=int, default=10,
                          help="PGD iterations")
    p_attack.add_argument("--asm-samples", type=int, default=0,
                          help="also run the problem-space knob attack "
                               "over this many corpus samples")
    p_attack.add_argument("--output",
                          help="write the robustness report as JSON")
    p_attack.set_defaults(func=cmd_attack)

    def add_model_source(sub_parser):
        sub_parser.add_argument("--registry",
                                help="model registry root directory")
        sub_parser.add_argument("--model",
                                help="registry model as NAME or NAME@VERSION")
        sub_parser.add_argument("--model-dir",
                                help="load one archive directory instead "
                                     "(legacy Magic.save dirs load with a "
                                     "warning)")
        sub_parser.add_argument("--max-vertices", type=int, default=None,
                                help="per-request graph size guard "
                                     "(oversize requests fail [oversize])")
        sub_parser.add_argument("--cache-size", type=int, default=None,
                                help="prediction cache bound (0 disables "
                                     "all result caching, the similarity "
                                     "tier included)")
        sub_parser.add_argument("--similar-threshold", type=float,
                                default=None,
                                help="enable the near-duplicate cache tier: "
                                     "serve fingerprint matches at or above "
                                     "this estimated Jaccard, flagged "
                                     "'similar' (default: off; calibrated "
                                     "default when enabling: 0.5)")
        sub_parser.add_argument("--fingerprint-iterations", type=int,
                                default=None,
                                help="WL relabeling rounds for similarity "
                                     "fingerprints (default 3; more rounds "
                                     "= stricter topology matching)")
        sub_parser.add_argument("--compiled", action="store_true",
                                default=True,
                                help="serve forwards through the compiled "
                                     "tape (default; float64 replay "
                                     "is bit-exact with eager)")
        sub_parser.add_argument("--no-compiled", dest="compiled",
                                action="store_false",
                                help="force the eager per-op forward path")
        sub_parser.add_argument("--infer-dtype",
                                choices=("float64", "float32"),
                                default="float64",
                                help="compiled inference precision; float32 "
                                     "trades ~1e-6 relative error for speed "
                                     "(requires --compiled)")

    p_classify = sub.add_parser(
        "classify",
        help="classify listings via the serving engine (per-request "
             "failure kinds, prediction cache)",
    )
    add_model_source(p_classify)
    p_classify.add_argument("listings", nargs="+")
    p_classify.set_defaults(func=cmd_classify)

    p_dedup = sub.add_parser(
        "dedup",
        help="report/drop near-duplicate samples in an extracted "
             "dataset cache (topology-aware CFG fingerprints)",
    )
    p_dedup.add_argument("cache_dir",
                         help="dataset cache directory (save_dataset format)")
    p_dedup.add_argument("--threshold", type=float, default=None,
                         help="estimated-Jaccard near-duplicate "
                              "threshold (default: the calibrated "
                              "serving default, 0.5)")
    p_dedup.add_argument("--iterations", type=int, default=None,
                         help="WL relabeling rounds (default 3)")
    p_dedup.add_argument("--apply", action="store_true",
                         help="rewrite the cache keeping only cluster "
                              "keepers (atomic; default is report-only)")
    p_dedup.add_argument("--output",
                         help="also write the full cluster report as JSON")
    p_dedup.set_defaults(func=cmd_dedup)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP classification service "
                      "(single-process or --workers N fleet)"
    )
    add_model_source(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8731,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="model-replica worker processes; 0 serves "
                              "one replica on a thread of this process")
    p_serve.add_argument("--max-batch-size", type=int, default=32,
                         help="requests coalesced into one forward pass")
    p_serve.add_argument("--batch-timeout", type=float, default=60.0,
                         help="wall-clock limit per fleet worker batch; a "
                              "worker over it is killed and respawned "
                              "(worker processes only)")
    p_serve.add_argument("--request-timeout", type=float, default=60.0,
                         help="per-request queue timeout before a 503")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request")
    p_serve.add_argument("--include-margin", action="store_true",
                         help="add the top-2 score margin to /classify "
                              "responses (adversarial-drift monitoring)")
    p_serve.set_defaults(func=cmd_serve)

    p_rollout = sub.add_parser(
        "rollout",
        help="drive a running fleet's zero-downtime model rollout",
    )
    p_rollout.add_argument("action",
                           choices=("start", "status", "promote", "rollback"))
    p_rollout.add_argument("--url", default="http://127.0.0.1:8731",
                           help="base URL of the running serve endpoint")
    p_rollout.add_argument("--version",
                           help="candidate registry version (start)")
    p_rollout.add_argument("--num-workers", type=int, default=None,
                           help="candidate replicas (default: primary count)")
    p_rollout.add_argument("--shadow-fraction", type=float, default=None,
                           help="fraction of live traffic mirrored to the "
                                "candidate (default 0.25)")
    p_rollout.add_argument("--min-samples", type=int, default=None,
                           help="mirrored completions before a verdict")
    p_rollout.add_argument("--min-parity", type=float, default=None,
                           help="label-parity canary threshold")
    p_rollout.add_argument("--max-latency-ratio", type=float, default=None,
                           help="shadow/primary p50 latency canary threshold")
    p_rollout.add_argument("--manual", action="store_true",
                           help="park the verdict for operator "
                                "promote/rollback instead of acting on it")
    p_rollout.add_argument("--watch", type=float, default=None,
                           help="after start, poll status for up to this "
                                "many seconds until the verdict lands")
    p_rollout.add_argument("--interval", type=float, default=1.0,
                           help="seconds between --watch polls")
    p_rollout.add_argument("--http-timeout", type=float, default=10.0,
                           help="timeout for each HTTP call")
    p_rollout.set_defaults(func=cmd_rollout)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

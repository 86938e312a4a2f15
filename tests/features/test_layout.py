"""The attribute layout travels with the work: journal, archive, serving.

A layout is a value (:mod:`repro.features.attributes`), so everything
that outlives one call records it: an extraction journal resumes only
under the layout that wrote it, a model archive loads with the layout it
was trained on, and serving replicas extract with the layout of the
archive they load.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.cfg.builder import build_cfg_from_text
from repro.cfg.serialization import save_cfg
from repro.cli import main
from repro.core import Magic, ModelConfig
from repro.datasets import generate_mskcfg_listings
from repro.datasets.mskcfg import MSKCFG_FAMILIES
from repro.exceptions import ConfigurationError, MagicError
from repro.features import DEFAULT_ATTRIBUTES, EXTENDED_ATTRIBUTES, AcfgPipeline
from repro.serve import FleetDispatcher, InferenceEngine, publish
from repro.train.trainer import TrainingConfig

MODEL_NAME = "mskcfg-extended"


def tiny_config(num_attributes):
    return ModelConfig(
        num_attributes=num_attributes, num_classes=len(MSKCFG_FAMILIES),
        pooling="sort_weighted", graph_conv_sizes=(8, 8), sort_k=6,
        hidden_size=8, dropout=0.0, seed=0,
    )


def train(layout):
    listings = generate_mskcfg_listings(total=27, seed=0, minimum_per_family=3)
    report = AcfgPipeline(layout=layout).extract_from_texts(listings)
    assert not report.failures
    magic = Magic(tiny_config(len(layout)), list(MSKCFG_FAMILIES), layout=layout)
    magic.fit(report.acfgs, training_config=TrainingConfig(epochs=2, batch_size=8))
    return magic


def drop_layout_key(directory):
    """Make ``directory``'s archive look saved before layouts were recorded."""
    meta_path = os.path.join(directory, "magic.json")
    with open(meta_path, encoding="utf-8") as handle:
        meta = json.load(handle)
    del meta["layout"]
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


@pytest.fixture(scope="module")
def extended_magic():
    """A system trained on the 15-channel layout (do not mutate)."""
    return train(EXTENDED_ATTRIBUTES)


@pytest.fixture(scope="module")
def unseen_listings():
    listings = generate_mskcfg_listings(total=12, seed=7, minimum_per_family=1)
    return [(name, text) for name, text, _ in listings][:6]


def expected_labels(magic, samples):
    return magic.predict([magic.acfg_from_asm(text, name) for name, text in samples])


class TestJournal:
    @pytest.fixture
    def cut_journal(self, tmp_path):
        """Write a journal under ``layout``, then keep its header and 2 records."""
        samples = generate_mskcfg_listings(total=18, seed=3, minimum_per_family=2)[:4]
        path = str(tmp_path / "journal.jsonl")

        def cut(layout):
            AcfgPipeline(journal_path=path, layout=layout).extract_from_texts(samples)
            with open(path, encoding="utf-8") as handle:
                lines = handle.readlines()
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(lines[:3])
            return samples, path, json.loads(lines[0])

        return cut

    def test_a_table_one_journal_resumes_under_table_one(self, cut_journal):
        samples, path, header = cut_journal(DEFAULT_ATTRIBUTES)
        # The header is the one Table I runs always wrote, so journals
        # written before layouts existed resume too.
        assert "layout" not in header
        report = AcfgPipeline(journal_path=path, resume=True).extract_from_texts(samples)
        assert report.resumed_samples == 2
        assert [a.num_attributes for a in report.acfgs] == [11] * 4

    @pytest.mark.parametrize("written, resumed", [
        (DEFAULT_ATTRIBUTES, EXTENDED_ATTRIBUTES),
        (EXTENDED_ATTRIBUTES, DEFAULT_ATTRIBUTES),
        (EXTENDED_ATTRIBUTES, DEFAULT_ATTRIBUTES + ("in_degree",)),
    ], ids=["table-one-then-extended", "extended-then-table-one", "extended-then-fewer"])
    def test_a_resume_under_another_layout_is_refused(self, cut_journal, written, resumed):
        samples, path, _ = cut_journal(written)
        pipeline = AcfgPipeline(journal_path=path, resume=True, layout=resumed)
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            pipeline.extract_from_texts(samples)

    def test_an_extended_journal_resumes_under_its_layout(self, cut_journal):
        samples, path, header = cut_journal(EXTENDED_ATTRIBUTES)
        assert header["layout"] == list(EXTENDED_ATTRIBUTES)
        report = AcfgPipeline(
            journal_path=path, resume=True, layout=EXTENDED_ATTRIBUTES
        ).extract_from_texts(samples)
        assert report.resumed_samples == 2
        assert [a.num_attributes for a in report.acfgs] == [15] * 4


class TestWorkers:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_processes_extract_the_pipeline_layout(
        self, start_method, monkeypatch
    ):
        # Workers get the layout in their init kwargs, so a child that
        # shares no memory with this process extracts it too.
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda method=None: get_context(start_method)
        )
        samples = generate_mskcfg_listings(total=18, seed=3, minimum_per_family=2)[:2]
        report = AcfgPipeline(
            max_workers=1, timeout=120.0, layout=EXTENDED_ATTRIBUTES
        ).extract_from_texts(samples)
        assert not report.failures
        assert [a.num_attributes for a in report.acfgs] == [15, 15]


class TestArchive:
    def test_an_extended_model_round_trips_and_classifies(
        self, extended_magic, unseen_listings, tmp_path
    ):
        extended_magic.save(str(tmp_path))
        restored = Magic.load(str(tmp_path))
        assert restored.layout == EXTENDED_ATTRIBUTES
        name, text = unseen_listings[0]
        family, probabilities = restored.classify_asm(text, name)
        np.testing.assert_array_equal(
            probabilities, extended_magic.classify_asm(text, name)[1]
        )
        assert family == extended_magic.classify_asm(text, name)[0]

    def test_a_legacy_table_one_archive_loads_as_table_one(self, tmp_path):
        train(DEFAULT_ATTRIBUTES).save(str(tmp_path))
        drop_layout_key(str(tmp_path))
        assert Magic.load(str(tmp_path)).layout == DEFAULT_ATTRIBUTES

    def test_a_legacy_wider_archive_names_the_missing_layout(
        self, extended_magic, tmp_path
    ):
        extended_magic.save(str(tmp_path))
        drop_layout_key(str(tmp_path))
        with pytest.raises(MagicError, match="layout"):
            Magic.load(str(tmp_path))

    def test_predict_extracts_saved_cfgs_with_the_archive_layout(
        self, extended_magic, unseen_listings, tmp_path, capsys
    ):
        model_dir = str(tmp_path / "model")
        extended_magic.save(model_dir)
        paths = []
        for index, (name, text) in enumerate(unseen_listings):
            paths.append(str(tmp_path / f"sample{index}.json"))
            save_cfg(build_cfg_from_text(text, name=name), paths[-1])
        assert main(["predict", "--model-dir", model_dir, *paths]) == 0
        printed = [
            line.split(": ", 1)[1].split(" (", 1)[0]
            for line in capsys.readouterr().out.splitlines()
        ]
        assert printed == [
            extended_magic.family_names[label]
            for label in expected_labels(extended_magic, unseen_listings)
        ]

    def test_the_layout_must_match_the_model_width(self):
        with pytest.raises(ConfigurationError, match="layout"):
            Magic(tiny_config(11), list(MSKCFG_FAMILIES), layout=EXTENDED_ATTRIBUTES)
        with pytest.raises(ConfigurationError, match="layout"):
            Magic(tiny_config(15), list(MSKCFG_FAMILIES))


class TestServing:
    @pytest.fixture(scope="class")
    def registry_root(self, extended_magic, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("registry"))
        publish(extended_magic, root, MODEL_NAME)
        return root

    def test_the_engine_extracts_with_the_archive_layout(
        self, registry_root, extended_magic, unseen_listings
    ):
        engine = InferenceEngine.from_registry(registry_root, MODEL_NAME, cache_size=0)
        results = engine.classify_texts(unseen_listings)
        assert all(result.ok for result in results)
        assert [r.label for r in results] == expected_labels(
            extended_magic, unseen_listings
        ).tolist()

    def test_fleet_replicas_extract_with_the_archive_layout(
        self, registry_root, extended_magic, unseen_listings
    ):
        dispatcher = FleetDispatcher(
            registry_root, MODEL_NAME, num_workers=2,
            batch_timeout=60.0, cache_size=0,
        )
        with dispatcher:
            results = [dispatcher.submit(text, name=name, timeout=60.0)
                       for name, text in unseen_listings]
        assert all(result.ok for result in results)
        assert [r.label for r in results] == expected_labels(
            extended_magic, unseen_listings
        ).tolist()

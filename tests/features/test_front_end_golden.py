"""Golden front end: listing text -> Program -> CFG -> ACFG -> signature.

The digests below pin every output of the front end on a fixed set of
listings: the parsed ``Program`` rows with the parser's ``labels`` and
``skipped_lines``, the ACFG's ``(adjacency, attributes)``, the minhash
signature of its fingerprint and the ``acfg_to_text`` record that
dataset caches and extraction journals store.  They were recorded with
the original per-block Table I extractor and the dense adjacency
matrix, so a faster extraction path or another graph representation
must reproduce them bit for bit.  Both paths are pinned: the reference
objects (:mod:`tests.reference_front_end`: the per-line parse, the
tagging pass and Algorithm 2) and the columnar path serving and
extraction run (``AsmParser.parse``, the text worker).

The eleven per-block extractors that produced them are kept below as the
reference oracle; a property test checks the one-pass attribute matrix
against it over generated listings, in the Table I and the extended
layout.
"""

import hashlib
import os

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.asm.isa import InstructionCategory
from repro.asm.parser import AsmParser
from repro.cfg.builder import CfgBuilder, build_cfg_from_text
from repro.cfg.serialization import acfg_to_text, save_cfg
from repro.datasets.mskcfg import MSKCFG_FAMILIES, generate_mskcfg_sample
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.features.acfg import ACFG
from repro.features.attributes import EXTENDED_ATTRIBUTES, extract_attribute_matrix
from repro.features.pipeline import (
    AcfgPipeline,
    FailureKind,
    WorkerContext,
    _worker_text,
)
from repro.similarity import MinHasher, fingerprint_acfg

from tests.asm.test_realistic_listing import REALISTIC
from tests.conftest import SAMPLE_ASM, dense_adjacency
from tests.reference_front_end import REFERENCE_EXTRAS, reference_build, reference_parse

# -- reference oracle: the original per-block Table I extractors ----------


def _count_category(block, category):
    return float(sum(1 for inst in block.instructions if inst.category is category))


def _numeric_constants(block, graph):
    return float(sum(inst.count_numeric_constants() for inst in block.instructions))


def _transfer(block, graph):
    return _count_category(block, InstructionCategory.TRANSFER)


def _call(block, graph):
    return _count_category(block, InstructionCategory.CALL)


def _arithmetic(block, graph):
    return _count_category(block, InstructionCategory.ARITHMETIC)


def _compare(block, graph):
    return _count_category(block, InstructionCategory.COMPARE)


def _mov(block, graph):
    return _count_category(block, InstructionCategory.MOV)


def _termination(block, graph):
    return _count_category(block, InstructionCategory.TERMINATION)


def _data_declaration(block, graph):
    return _count_category(block, InstructionCategory.DATA_DECLARATION)


def _total_instructions(block, graph):
    return float(len(block))


def _offspring(block, graph):
    return float(graph.out_degree(block))


def _vertex_instructions(block, graph):
    return float(len(block))


REFERENCE_EXTRACTORS = (
    _numeric_constants, _transfer, _call, _arithmetic, _compare, _mov,
    _termination, _data_declaration, _total_instructions, _offspring,
    _vertex_instructions,
)


def reference_matrix(graph, extra=()):
    """The attribute matrix as the per-block extractors computed it."""
    extractors = REFERENCE_EXTRACTORS + tuple(extra)
    return np.array(
        [[float(fn(block, graph)) for fn in extractors]
         for block in graph.blocks()],
        dtype=np.float64,
    )


# -- digests ---------------------------------------------------------------


def _sha(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _digests(rows, parser, acfg):
    signature = MinHasher().signature(fingerprint_acfg(acfg))
    dense = dense_adjacency(acfg)
    return {
        "program": _sha(rows, sorted(parser.labels.items()), parser.skipped_lines),
        "acfg": _sha(
            dense.shape, dense.tobytes(),
            acfg.attributes.shape, acfg.attributes.tobytes(),
        ),
        "signature": _sha(signature.tobytes()),
        "record": _sha(acfg_to_text(acfg.edges, acfg.attributes).encode()),
    }


def rows_of(program):
    return [
        (inst.address, inst.mnemonic, tuple(inst.operands), inst.size)
        for inst in program
    ]


def front_end_digests(text):
    """``{program, acfg, signature, record}`` sha256 digests of a listing."""
    parser, program = reference_parse(text)
    cfg = reference_build(program, parser.resolve_target)
    return _digests(rows_of(program), parser, ACFG.from_cfg(cfg))


def production_digests(text):
    """The same digests from the parsed columns and the text worker."""
    parser = AsmParser()
    program = parser.parse(text)
    acfg = _worker_text(("", text, None), WorkerContext())
    return _digests(rows_of(program), parser, acfg)


JUNK_PROBABILITIES = (0.0, 0.35, 0.9)


def golden_texts():
    """The listings whose digests are pinned, by case name."""
    texts = {
        family: generate_mskcfg_sample(family, 0, seed=1)[1]
        for family in MSKCFG_FAMILIES
    }
    for probability in JUNK_PROBABILITIES:
        texts[f"junk-{probability}"] = generate_mskcfg_sample(
            "Ramnit", 1, seed=1,
            knobs=ObfuscationKnobs(junk_probability=probability),
        )[1]
    texts["sample-asm"] = SAMPLE_ASM
    texts["realistic"] = REALISTIC
    return texts


GOLDEN = {
    "Ramnit": {
        "program": "525e1f3d7c432acbd36381e36ba02f60cf9aa7147846de24ad0df09d16a88226",
        "acfg": "7c33f7fca3c4970b805cc28e86ac49ad4902696ee59cc7167c114362ba49e54b",
        "signature": "45d0abdf8f1cd9f5b5b96c6dfe417c13279dc348485865e42913870de2884162",
        "record": "f741f0fb39681543e15128b3772f722e22d5ba5a173ea4036c9400e0138f56a2",
    },
    "Lollipop": {
        "program": "8dec60d8d9a64092e47f5174b8ea9728c7bdf9b77ebbada055ef2f48d789d1b4",
        "acfg": "4220bb6b18c1ac4d4d8d8a95e0d4a7e7416eb5366b4d03f743348cd824e3552b",
        "signature": "7dc0fba3b1d2d7b806263013df71aa514e588f62d6f93c7058893cdb17102c7e",
        "record": "5b65dab34ed8602897877a852c80191f1e2fc09953c9f9bb1a2a99521643eba7",
    },
    "Kelihos_ver3": {
        "program": "f30b882cf302d02d987df442666f5bef61089589622c6f94070c767720a06f10",
        "acfg": "db206266a88595b6789e2d0e67c19b6d8ee641dab27ed4681c25392cb0f8ea9e",
        "signature": "75f77fed48b5837ab9b2a48f8c5ad13e00bf064f82575ddf2877f9896587682b",
        "record": "70c0a57d69139ba0ff03d374e45f217d3e762816810cde3c6b24b76f46d71b96",
    },
    "Vundo": {
        "program": "1baf0f01330767dd2a5b2eaf6ec3bba40e919c0ee5c26c8376e08898402e8717",
        "acfg": "62c398803762a8c0b49122ee5afef87c81fe5b08d1831233d809c9e05df35417",
        "signature": "703c162bc858e43a05313037cf31ee3590712de1fc6c7b8d8b968c678341f014",
        "record": "48b08ddf5257f0ebce7cc6dc02bbe7874ce4702dae0481aed797b8476ad9947c",
    },
    "Simda": {
        "program": "3157ce786ed8adb25b771e31d884a9334d471efc7a8f21913dcd5f3a0562d040",
        "acfg": "c80aa9a9a83f36326cc33acef4754f7f6f513c5b1c23753d32302a395e510b2f",
        "signature": "84434feaeb33d6b32dffe2e364597ed08821773aeec35a53a52f2e0b6ee933ea",
        "record": "dc0e0066622e1885b8b7c305030274a87b593cc37cea44d4a6d2cb7c054ade9f",
    },
    "Tracur": {
        "program": "5a7d49e4ec5bc2bf72db3ba2b678034d265c4fe05463fd504c53aa4a8865ccee",
        "acfg": "9c43e4678d1fe71ff01245452642e142659d001731b63f8e24410ba91b6fa63b",
        "signature": "239d5fc228090c1c203728e4d531502eda2b7359d3bd6bd8013f2961c188596b",
        "record": "1167248f9518b9a556a26102b5b18e50f2b77c185907fb936468c2d5035325b1",
    },
    "Kelihos_ver1": {
        "program": "8d8ca59cd4629ffc865e6aef5fafdbc9e9307055f7c43d6aeb4dec6280439339",
        "acfg": "45941158c9b1b8d33f04a1fea89ed1ef90ae7b0adbd89fef04eb81db03e500ce",
        "signature": "139fe68daab2dd8dfc0c67650d77376843f68461e08a06b1663267013305b8b7",
        "record": "08fd9f8581ffa191ddba888c0c5f64e450b79c9de78f4afd4558363d96721ae6",
    },
    "Obfuscator.ACY": {
        "program": "bf75979f1e6b32d0d34cf946478ae8c956a2a703c464b22286703aab59233ff7",
        "acfg": "2217d63100f64c3c55af2fa0dff6e3356f81bc8f21d371bbb95d579330b89f5c",
        "signature": "49bd80843114b8ea8d6b5fd54395602ab071ab920f66e63be05955079febc6e2",
        "record": "6f9c2ebc5ea77f215d2b90f4287a4d5ca92cf0122b2738b3dacc1bc0fff71a62",
    },
    "Gatak": {
        "program": "50a4427875a82d43673454b8167c7bfc3aea98d4bbed3911102ecfb82d724558",
        "acfg": "36fd0f2ef1b0b8d9b76f43e8898f3021fb8a83a8322e1ece2265c16b32ff278b",
        "signature": "f514fd2154e428f5c5200506b43fa8d44655973606a6a2ae8c582e200be5f2f3",
        "record": "ce4ee3598bf3e8150b0db2ccb6de55edf7bd42f492432e0af1e1ac615014ce5e",
    },
    "junk-0.0": {
        "program": "e82614951b76fe1238055272a3f6112457b945869c2289736eb0a97d9cf72e0e",
        "acfg": "d4500dbb620bc3b8ccf30585a2c92cfcac824c28f48de7d92a914e5193c5a263",
        "signature": "ac719a29c7658d46dabd57b4d83d168994182f5e8c2d32c8a6eeb57d28f739dd",
        "record": "0595ea73fa14bf327ad8185ac780ab145211dccf143e65421bff6427f18ccf41",
    },
    "junk-0.35": {
        "program": "e00cee7cfe5ebefbc1aacc4738251964a95eb17b64c3ee78374cf54863fb7cb5",
        "acfg": "1fa49d38dba46692717b234562dd4b9a75f1848d6c3d6030e359dbbeef96f159",
        "signature": "81486ea8920997ae5741fff69ace8cb60fd294534ece00f5b3703f9a15e1ab94",
        "record": "a99a8d7117a475af779d1c7a4df8e0c138630e23d688550a1ec0581f3ebc64f3",
    },
    "junk-0.9": {
        "program": "6cbca38899937a2d58a2ec1fe5e9ff6cc028a53dc84b008f21636af93cb350f2",
        "acfg": "4658b9120c136f095f34557ef446370890962e61e90ff17eab3fc4f6faa0eb69",
        "signature": "9d841f8807c01fa40d96b3cd026653312576f4b1fb8fe30e8d55858e29913552",
        "record": "213c2bec7c78baa9139ff6039b0e97b106e139450c6e56399a87c5ba3f0b14ad",
    },
    "sample-asm": {
        "program": "af0f37b3c2165ff6fb15058838d3a798768ec99492ced8c67f7523d48cf1b956",
        "acfg": "2844be74ac334615f2a5636bfaa3685b9afb480cf885d78f0562a83cf373bea9",
        "signature": "dcefdf198404ce40582c6d4afddd6d23230e88298522b74486f2853f62684fde",
        "record": "b19af591ebe87849303ab2fcdbd06162d253153994a3e13734d8d9ac9026180f",
    },
    "realistic": {
        "program": "98bec41ad9bd8229b4d421399bc0a0fe65d16a9fc054a326a708b1ce6b0ea84a",
        "acfg": "f685ebdcb34774736f93f15613fb21490089eb84b0e60eed92ddbdd4e4a9b8e9",
        "signature": "becb385f296216fc1e411d8a3038a1c13f19f621b555271eef610b254194ddb6",
        "record": "c047ca53443df35ed127ae82cfa95e3c82d4530ee522624f81d1d93199260d6b",
    },
}


#: sha256 over the ``save_cfg`` bytes of every golden listing, by case name.
SAVED_CFGS = "16321df18a5ca983e5897d19ed3f85539377e596b0b3b9b05224729bbdf56088"


class TestGoldenDigests:
    def test_every_case_matches_its_recorded_digests(self):
        texts = golden_texts()
        assert set(texts) == set(GOLDEN)
        for name, text in texts.items():
            assert front_end_digests(text) == GOLDEN[name], name

    def test_the_production_path_matches_the_same_digests(self):
        for name, text in golden_texts().items():
            assert production_digests(text) == GOLDEN[name], name

    def test_saved_graphs_match_their_recorded_digest(self, tmp_path):
        digest = hashlib.sha256()
        path = os.path.join(tmp_path, "graph.json")
        for name, text in sorted(golden_texts().items()):
            save_cfg(build_cfg_from_text(text, name=name), path)
            with open(path, "rb") as handle:
                digest.update(handle.read())
        assert digest.hexdigest() == SAVED_CFGS

    def test_truncated_listing_fails_as_parse(self):
        text = generate_mskcfg_sample("Gatak", 0, seed=1)[1]
        lines = text.splitlines()
        truncated = f"; Input file: Gatak.exe\n{lines[0]}\n{lines[1][:9]}"
        report = AcfgPipeline().extract_from_texts([("cut", truncated, None)])
        assert report.acfgs == []
        [failure] = report.failures
        assert failure.kind is FailureKind.PARSE
        assert "empty program" in failure.detail


# -- one-pass matrix vs the per-block oracle -------------------------------


def _cfg_of(family_index, index, seed):
    family = MSKCFG_FAMILIES[family_index]
    text = generate_mskcfg_sample(family, index, seed=seed)[1]
    parser = AsmParser()
    program = parser.parse(text)
    return CfgBuilder(resolve_target=parser.resolve_target).build(program)


_SAMPLES = st.tuples(
    st.integers(0, len(MSKCFG_FAMILIES) - 1),
    st.integers(0, 50),
    st.integers(0, 2**31 - 1),
)


class TestOnePassMatchesOracle:
    @settings(max_examples=15, deadline=None)
    @given(_SAMPLES)
    def test_builtin_channels(self, sample):
        cfg = _cfg_of(*sample)
        expected = reference_matrix(cfg)
        np.testing.assert_array_equal(extract_attribute_matrix(cfg), expected)

    @settings(max_examples=10, deadline=None)
    @given(_SAMPLES)
    def test_with_the_extended_layout(self, sample):
        cfg = _cfg_of(*sample)
        expected = reference_matrix(cfg, extra=REFERENCE_EXTRAS.values())
        np.testing.assert_array_equal(
            extract_attribute_matrix(cfg, EXTENDED_ATTRIBUTES), expected
        )

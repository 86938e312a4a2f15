import pytest

from repro.core import Magic
from repro.datasets.mskcfg import MSKCFG_FAMILIES

from magicbench import inputs, prepare


def _texts(stream):
    return [inputs.materialize(spec) for spec in stream.specs]


@pytest.mark.parametrize("workload", ["serve-unique", "serve-resubmit"])
def test_same_seed_same_stream_different_seed_different(workload):
    first = inputs.stream_for(workload, 3, 60)
    again = inputs.stream_for(workload, 3, 60)
    other = inputs.stream_for(workload, 4, 60)
    assert first.specs == again.specs and first.requests == again.requests
    assert first.specs != other.specs
    assert _texts(first)[:5] == _texts(again)[:5]
    assert _texts(first)[:5] != _texts(other)[:5]


def test_resubmit_stream_mixes_all_roles():
    stream = inputs.resubmit_stream(5, 400)
    shares = stream.role_shares()
    assert all(shares[role] > 0 for role in shares)
    assert shares["repeat"] > 0.5
    kinds = {spec.kind for spec in stream.specs}
    assert kinds == {"base", "variant", "malformed"}


def test_unique_stream_listings_are_distinct():
    stream = inputs.unique_stream(2, 300, malformed_share=0.05)
    texts = _texts(stream)
    assert len(set(texts)) == len(texts) == len(stream.requests)
    assert {r.role for r in stream.requests} == {"fresh", "malformed"}


def _references(seed):
    stream = inputs.stream_for("serve-resubmit", seed, 40)
    outcomes = [prepare.prepare_one((spec, None))[1] for spec in stream.specs]
    corpus = [o[1] for o in outcomes if o[0] == "ok"]
    magic = Magic(prepare.table2_config("sort_weighted"), MSKCFG_FAMILIES)
    magic.scaler.fit(corpus)
    return stream, prepare.reference_answers(magic, outcomes)


def test_reference_answers_follow_the_seed():
    stream, references = _references(6)
    _, again = _references(6)
    assert references == again
    for spec, reference in zip(stream.specs, references):
        if spec.kind == "malformed":
            assert reference == "parse"
        else:
            assert isinstance(reference, int)
    other_stream, _ = _references(7)
    assert other_stream.specs != stream.specs

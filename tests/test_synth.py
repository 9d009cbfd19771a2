import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semb import synth

# sha256 of each seed's corpus, serialized by `_corpus_digest`.  A seed must
# give the same corpus in every version: benchmarks and acceptance gates
# compare runs across versions on these inputs.
GOLDEN = {
    0: "825b41ce03b0ee335e3d8f73d7724e71828998c20c9c9283e85f978eff7c94e5",
    7: "904994f01b476c1e63ab5ec2149a46e3f37e4d04f0bb9e2b6fe3734c130a9be4",
    123456789: "6661289db8aa97bf8723033a01f2b56989c9c9a5710e48fa2209107dc5bd287c",
}


def _corpus_digest(seed):
    corpus = {
        "sts": [dataclasses.astuple(p) for p in synth.make_sts_pairs(300, seed)],
        "nli": synth.make_nli_pairs(300, seed),
        "triplets": [dataclasses.astuple(t) for t in synth.make_triplets(300, seed)],
        "skewed": synth.make_length_skewed_corpus(60, seed),
    }
    return hashlib.sha256(json.dumps(corpus).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_corpora_match_their_golden_digest(seed):
    assert _corpus_digest(seed) == GOLDEN[seed]


def _reference_sentence(theta, rng, lo, hi):
    # the sampler as first written: one Generator.choice per word
    length = int(rng.integers(lo, hi + 1))
    words = []
    for _ in range(length):
        topic = synth.TOPICS[rng.choice(len(synth.TOPICS), p=theta / theta.sum())]
        words.append(topic[rng.integers(len(topic))])
    return " ".join(words)


_weights = st.one_of(st.just(0.0), st.floats(1e-12, 1e6), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    theta=st.lists(_weights, min_size=len(synth.TOPICS), max_size=len(synth.TOPICS)).filter(lambda t: sum(t) > 0),
    seed=st.integers(0, 2**63 - 1),
)
def test_sentence_draws_the_topics_and_stream_of_generator_choice(theta, seed):
    theta = np.array(theta)
    rng = np.random.default_rng(seed)
    clone = np.random.default_rng(seed)
    words = synth._sentence(theta, rng, lo=1, hi=40).split()
    reference = _reference_sentence(theta, clone, lo=1, hi=40).split()
    topic_of = {w: i for i, topic in enumerate(synth.TOPICS) for w in topic}
    assert [topic_of[w] for w in words] == [topic_of[w] for w in reference]
    assert words == reference
    assert rng.bit_generator.state == clone.bit_generator.state


def test_sts_pairs_deterministic_and_sized():
    a = synth.make_sts_pairs(50, seed=3)
    b = synth.make_sts_pairs(50, seed=3)
    c = synth.make_sts_pairs(50, seed=4)
    assert len(a) == 50
    assert a == b
    assert a != c


def test_sts_scores_scale_with_score_max():
    unit = synth.make_sts_pairs(80, seed=11, score_max=1.0)
    five = synth.make_sts_pairs(80, seed=11, score_max=5.0)
    for p1, p5 in zip(unit, five):
        assert p1.a == p5.a
        assert p1.b == p5.b
        assert p5.score == pytest.approx(5.0 * p1.score)
        assert 0.0 <= p1.score <= 1.0


def test_sts_vocabulary_covers_all_words():
    vocab = set(synth.vocabulary())
    for pair in synth.make_sts_pairs(100, seed=0):
        assert set(pair.a.split()) <= vocab
        assert set(pair.b.split()) <= vocab


def test_nli_pairs_use_all_three_labels():
    pairs = synth.make_nli_pairs(500, seed=1)
    labels = {label for _, _, label in pairs}
    assert labels == {"entailment", "neutral", "contradiction"}


def test_nli_sentences_draw_from_topic_vocabulary():
    vocab = set(synth.vocabulary())
    for a, b, _ in synth.make_nli_pairs(100, seed=2):
        assert set(a.split()) <= vocab
        assert set(b.split()) <= vocab


def test_triplets_deterministic():
    assert synth.make_triplets(40, seed=9) == synth.make_triplets(40, seed=9)
    assert synth.make_triplets(40, seed=9) != synth.make_triplets(40, seed=10)


def test_triplet_negative_matches_positive_length():
    for t in synth.make_triplets(200, seed=5):
        assert len(t.negative.split()) == len(t.positive.split())


def test_triplet_anchor_never_shares_content_words_with_positive():
    # anchors draw from one half of a cluster, positives from the other,
    # so any overlap can only come from the shared filler pool
    fillers = {w for w in synth.cluster_vocabulary() if w.endswith("to")}
    for t in synth.make_triplets(200, seed=6):
        overlap = set(t.anchor.split()) & set(t.positive.split())
        assert overlap <= fillers


def test_triplet_vocabulary_covers_all_words():
    vocab = set(synth.cluster_vocabulary())
    for t in synth.make_triplets(100, seed=7):
        for text in (t.anchor, t.positive, t.negative):
            assert set(text.split()) <= vocab


def test_length_skewed_corpus_is_bimodal_and_shuffled():
    corpus = synth.make_length_skewed_corpus(100, seed=0)
    lengths = [len(s.split()) for s in corpus]
    assert sorted(set(lengths)) == [4, 60]
    assert lengths.count(4) == 50
    assert lengths.count(60) == 50
    assert lengths != sorted(lengths)

"""Synthetic corpora with known structure, for experiments and benchmarks.

Three generators share a small topic-mixture model: each sentence is drawn
from a mixture over word topics, and the latent mixture vectors give an
exact similarity gold standard (the cosine between them).  A fourth
generator builds clustered triplets whose untrained baseline is calibrated
to chance, and a fifth builds a length-skewed corpus for batching
benchmarks.

A seed gives the same corpus in every version, so runs of two versions
compare on the same inputs; `tests/test_synth.py` pins a sha256 of each
generator's output for three seeds.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from semb.data import ScoredPair, TripletExample

__all__ = [
    "TOPICS",
    "vocabulary",
    "cluster_vocabulary",
    "make_sts_pairs",
    "make_nli_pairs",
    "make_triplets",
    "make_length_skewed_corpus",
]

TOPICS = (
    (
        "rain", "cloud", "storm", "wind", "snow", "thunder", "fog",
        "sunshine", "drizzle", "hail", "frost", "breeze", "humid", "forecast",
    ),
    (
        "flour", "oven", "simmer", "garlic", "butter", "knead", "spice",
        "roast", "whisk", "dough", "sauce", "grill", "season", "tender",
    ),
    (
        "goal", "striker", "midfield", "tackle", "referee", "corner",
        "penalty", "defender", "keeper", "offside", "header", "cross",
        "fixture", "relegation",
    ),
)


def vocabulary() -> list[str]:
    """All words the topic-mixture generators can emit, sorted."""
    return sorted(w for topic in TOPICS for w in topic)


def _mixture(rng: np.random.Generator) -> np.ndarray:
    # two-hot over topics: a primary topic plus a weaker secondary one
    theta = np.zeros(len(TOPICS))
    primary, secondary = rng.choice(len(TOPICS), size=2, replace=False)
    weight = rng.uniform(0.0, 0.5)
    theta[primary] = 1.0 - weight
    theta[secondary] = weight
    return theta


def _perturbed(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    jittered = np.clip(theta + rng.uniform(-0.25, 0.25, size=theta.shape), 0.0, None)
    if jittered.sum() == 0.0:
        return theta
    return jittered / jittered.sum()


def _sentence(theta: np.ndarray, rng: np.random.Generator, lo: int = 4, hi: int = 12) -> str:
    length = int(rng.integers(lo, hi + 1))
    # rng.choice(len(TOPICS), p=theta / theta.sum()) draws one rng.random()
    # and bisects this CDF; building it once per sentence keeps the stream.
    cdf = (theta / theta.sum()).cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    words = []
    for _ in range(length):
        topic = TOPICS[bisect_right(cdf, rng.random())]
        words.append(topic[rng.integers(len(topic))])
    return " ".join(words)


def _latent_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    a = _mixture(rng)
    # half the pairs are near-paraphrases, half are independent draws
    b = _perturbed(a, rng) if rng.uniform() < 0.5 else _mixture(rng)
    cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    return a, b, cos


def make_sts_pairs(n: int, seed: int, score_max: float = 5.0) -> list[ScoredPair]:
    """Scored sentence pairs whose gold score is the latent-topic cosine.

    The score is scaled to [0, score_max] so it looks like an annotator
    scale, but it is exact: a model that recovers the topic mixture can
    reach rank correlation 1.0.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        a, b, cos = _latent_pair(rng)
        pairs.append(ScoredPair(_sentence(a, rng), _sentence(b, rng), cos * score_max))
    return pairs


def make_nli_pairs(n: int, seed: int) -> list[tuple[str, str, str]]:
    """Labelled pairs: entailment / neutral / contradiction by latent cosine."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b, cos = _latent_pair(rng)
        if cos >= 0.75:
            label = "entailment"
        elif cos <= 0.25:
            label = "contradiction"
        else:
            label = "neutral"
        out.append((_sentence(a, rng), _sentence(b, rng), label))
    return out


# Triplets use three clusters of pseudo-words plus a shared filler pool.
# Each cluster is split into an anchor half and a description half, so an
# anchor never shares a word with its positive; negatives reuse the
# positive's exact length and filler count, so only which cluster the
# content words came from separates positive from negative.  The wide
# halves (64 words) and the 50% filler dilution keep any single random
# encoder's accuracy near chance instead of letting the frozen geometry of
# a few word vectors decide every comparison.

_SYLLABLES = (
    "ba", "de", "ki", "lo", "mu", "na", "po", "ra",
    "su", "ti", "vo", "ze", "fa", "go", "hi", "ju",
)
_TAILS = ("ka", "ne", "ri", "to")
_HALF = 64
_FILLER_COUNT = 40


def _pseudo_words(tail_idx: int, n: int) -> list[str]:
    out = []
    for i in range(n):
        out.append(_SYLLABLES[i % 16] + _SYLLABLES[(i // 16) % 16] + _TAILS[tail_idx])
    return out


_CLUSTERS = tuple(_pseudo_words(c, 2 * _HALF) for c in range(3))
_FILLERS = tuple(_pseudo_words(3, _FILLER_COUNT))


def cluster_vocabulary() -> list[str]:
    """All words the triplet generator can emit, sorted."""
    return sorted(set(w for cluster in _CLUSTERS for w in cluster) | set(_FILLERS))


def _cluster_sentence(
    pool: tuple[str, ...] | list[str],
    content: int,
    filler: int,
    rng: np.random.Generator,
) -> str:
    words = [pool[i] for i in rng.choice(len(pool), size=content, replace=False)]
    words += [_FILLERS[i] for i in rng.choice(len(_FILLERS), size=filler, replace=False)]
    rng.shuffle(words)
    return " ".join(words)


def make_triplets(n: int, seed: int) -> list[TripletExample]:
    """Anchor/positive/negative triplets over three word clusters."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        same, other = rng.choice(3, size=2, replace=False)
        length = int(rng.integers(4, 10))
        content = max(1, round(length / 2))
        filler = length - content
        anchor = _cluster_sentence(_CLUSTERS[same][:_HALF], content, filler, rng)
        positive = _cluster_sentence(_CLUSTERS[same][_HALF:], content, filler, rng)
        negative = _cluster_sentence(_CLUSTERS[other][_HALF:], content, filler, rng)
        out.append(TripletExample(anchor, positive, negative))
    return out


def make_length_skewed_corpus(
    n: int, seed: int, short_words: int = 4, long_words: int = 60
) -> list[str]:
    """Half very short and half very long sentences, shuffled together."""
    rng = np.random.default_rng(seed)
    vocab = vocabulary()
    sentences = []
    for i in range(n):
        length = short_words if i < n // 2 else long_words
        words = [vocab[j] for j in rng.integers(len(vocab), size=length)]
        sentences.append(" ".join(words))
    rng.shuffle(sentences)
    return sentences

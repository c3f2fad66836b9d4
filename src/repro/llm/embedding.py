"""Deterministic text-embedding model.

Embeds text as an IDF-weighted sum of per-token random Gaussian vectors,
where each token's vector is seeded by a stable hash of the token string.
This reproduces the property dense retrieval depends on — lexically and
topically similar texts land near each other in cosine space — without any
learned weights or network access.

Two refinements close the gap to learned embedders:

* **stem smoothing** — each token also contributes the vector of its first
  ``stem_len`` characters at reduced weight, so morphological variants
  ("configure" / "configuration") are close; and
* **bigram mixing** — adjacent-token bigrams contribute at reduced weight so
  word order matters slightly (distinguishing "flight from Berlin to Rome"
  from "flight from Rome to Berlin").
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..utils import normalize, stable_hash
from .tokenizer import Tokenizer, default_tokenizer


# --------------------------------------------------------- token vectors
# A token vector is defined as
#     v = default_rng(stable_hash(f"emb:{seed}:{key}")).standard_normal(dim)
#     v = v.astype(float32) / np.linalg.norm(v)
# (the frozen prep baseline pins it bit for bit).  Building a default_rng
# per key spends most of a cache miss constructing SeedSequence + PCG64 +
# Generator, so ``_token_vector_block`` replays that construction for a
# whole batch: the SeedSequence hash of every key at once in uint32 lanes,
# PCG64's seeding step in 128-bit integer arithmetic, and the normals from
# one reused Generator whose state is set per key.

# numpy.random.SeedSequence mixing constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_INF = float("inf")
# Rows of a fresh model's token-vector table; it doubles when full.
_INITIAL_ROWS = 1024


def _hash_consts(init: int, mult: int, calls: int) -> List[Tuple[int, int]]:
    """``(xor, mult)`` operand pairs of successive SeedSequence hashmix calls.

    The running hash constant only depends on the call count, never on the
    data, so each call's operands are fixed numbers.
    """
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return list(zip(chain, chain[1:]))


# Entropy mixing makes 4 + 4*3 hashmix calls; generate_state(4, uint64) 8.
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, 16)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, xor: int, mult: int) -> np.ndarray:
    value = (value ^ np.uint32(xor)) * np.uint32(mult)
    return value ^ (value >> np.uint32(16))


def seed_sequence_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each uint64 ``e``.

    Returns an ``(n, 4)`` uint64 array.  A seed below 2**32 is one uint32
    word of entropy and a larger one two; the 4-word pool pads with zero
    words either way, so every seed takes the two-word path.
    """
    entropy = np.asarray(entropy, dtype=np.uint64)
    consts = iter(_MIX_CONSTS)
    low = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    high = (entropy >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [_hashmix(word, *next(consts)) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (
                    np.uint32(_MIX_MULT_L) * pool[dst]
                    - np.uint32(_MIX_MULT_R) * _hashmix(pool[src], *next(consts))
                )
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    words = [
        _hashmix(pool[i % 4], xor, mult).astype(np.uint64)
        for i, (xor, mult) in enumerate(_STATE_CONSTS)
    ]
    # uint64 output reads the uint32 words as little-endian pairs.
    return np.stack(
        [words[2 * k] | (words[2 * k + 1] << np.uint64(32)) for k in range(4)], axis=1
    )


def _token_vector_block(keys: Sequence[str], seed: int, dim: int) -> np.ndarray:
    """The unit token vectors of ``keys`` as one ``(len(keys), dim)`` float32 block."""
    entropy = np.fromiter(
        (stable_hash(f"emb:{seed}:{key}") for key in keys),
        dtype=np.uint64,
        count=len(keys),
    )
    bitgen = np.random.PCG64(0)
    # repro-lint: disable=R008 — not a stream: every draw below first resets
    # the state to the content-addressed default_rng(stable_hash(key)) seed
    # that the frozen prep-parity baseline pins (tests/test_prep_batch.py);
    # derive_rng would shift every committed embedding-dependent golden
    gen = np.random.Generator(bitgen)
    state = {
        "bit_generator": "PCG64",
        "state": {"state": 0, "inc": 0},
        "has_uint32": 0,
        "uinteger": 0,
    }
    pcg = state["state"]
    block = np.empty((len(keys), dim), dtype=np.float64)
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(block, seed_sequence_words(entropy).tolist()):
        # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; from state 0,
        # one LCG step, add initstate, one more LCG step.
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bitgen.state = state
        gen.standard_normal(out=row)
    vectors = block.astype(np.float32)
    # np.linalg.norm of a 1-D float32 vector is sqrt(v.dot(v)): the same
    # float32 BLAS dot per row, then float32 sqrt and division.
    sq_norms = np.array([row.dot(row) for row in vectors], dtype=np.float32)
    vectors /= np.sqrt(sq_norms)[:, None]
    return vectors


def _idf_of(doc_freq: np.ndarray, num_docs: int) -> np.ndarray:
    """``log((1 + num_docs) / (1 + df)) + 1`` per df (1.0 with no documents),
    with one ``math.log`` per distinct df value."""
    if not num_docs:
        return np.ones(doc_freq.shape[0], dtype=np.float64)
    values, inverse = np.unique(doc_freq, return_inverse=True)
    idf = [math.log((1 + num_docs) / (1 + df)) + 1.0 for df in values.tolist()]
    return np.array(idf, dtype=np.float64)[inverse]


@dataclass
class EmbeddingModel:
    """Hash-seeded random-projection embedder.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    seed:
        Model identity: two models with the same seed embed identically,
        models with different seeds define incompatible spaces (as with real
        embedding model families).
    stem_len / stem_weight:
        Prefix-stem smoothing (0 weight disables).
    bigram_weight:
        Adjacent-bigram contribution (0 disables).
    """

    dim: int = 128
    seed: int = 0
    stem_len: int = 5
    stem_weight: float = 0.4
    bigram_weight: float = 0.25
    tokenizer: Tokenizer = field(default_factory=default_tokenizer)
    # Token vectors live in one float32 row table; ``_rows`` maps each key
    # to its row, in the order the keys were first seen.
    _rows: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    _doc_freq: Dict[str, int] = field(default_factory=dict, repr=False)
    _num_docs: int = field(default=0, repr=False)
    # Streaming IDF state (see partial_fit_idf): once pinned, embeddings are
    # computed from the frozen snapshot while live stats keep accumulating.
    _pinned_doc_freq: Optional[Dict[str, int]] = field(default=None, repr=False)
    _pinned_num_docs: int = field(default=0, repr=False)
    _stale_docs: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        for name in ("dim", "stem_len"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.dim < 8:
            raise ConfigError(f"embedding dim too small: {self.dim}")
        if self.stem_len < 1:
            raise ConfigError(f"stem_len must be >= 1, got {self.stem_len}")
        # Chained comparisons reject NaN and inf as well as negatives; a
        # weight of 0 switches its feature off.
        if not (0.0 <= self.stem_weight < _INF and 0.0 <= self.bigram_weight < _INF):
            raise ConfigError("stem_weight and bigram_weight must be finite and >= 0")
        self._table = np.empty((_INITIAL_ROWS, self.dim), dtype=np.float32)

    # ------------------------------------------------------------------ IDF
    def fit_idf(self, corpus: Iterable[str]) -> "EmbeddingModel":
        """Fit inverse-document-frequency weights on ``corpus``.

        Optional; without it all tokens are weighted equally. Returns self
        for chaining. One tokenizer pass over the corpus; per-document
        distinct tokens are tallied with a single ``Counter`` merge.
        """
        token_lists = self.tokenizer.content_tokens_many(list(corpus))
        self._num_docs += len(token_lists)
        counts: Counter = Counter()
        for tokens in token_lists:
            counts.update(set(tokens))
        doc_freq = self._doc_freq
        for token, count in counts.items():
            doc_freq[token] = doc_freq.get(token, 0) + count
        return self

    def partial_fit_idf(self, new_corpus: Iterable[str]) -> "EmbeddingModel":
        """Fold a streaming batch's document frequencies into the live stats.

        The first call *pins* the current statistics: from then on
        :meth:`_idf` (and therefore every embed) reads the pinned snapshot,
        so vectors already sitting in an index and fresh query vectors stay
        in the same space no matter how much the live stats drift. Live
        stats keep accumulating; :meth:`idf_drift` measures how far they
        have moved and :meth:`refresh` re-pins when the caller is ready to
        re-embed. Returns self for chaining.
        """
        if self._pinned_doc_freq is None:
            self._pinned_doc_freq = dict(self._doc_freq)
            self._pinned_num_docs = self._num_docs
        before = self._num_docs
        self.fit_idf(new_corpus)
        self._stale_docs += self._num_docs - before
        return self

    @property
    def stale_docs(self) -> int:
        """Documents folded into live stats since the last pin/refresh."""
        return self._stale_docs

    def idf_drift(self) -> float:
        """Live-vs-pinned IDF divergence, weighted by live document frequency.

        ``sum_t df_live(t) * |idf_live(t) - idf_pinned(t)|`` normalized by
        ``sum_t df_live(t) * idf_live(t)`` — the relative L1 shift of the
        IDF mass an embedding actually uses (frequency-weighting keeps rare
        hapax tokens from dominating). 0.0 when nothing is pinned or no
        documents have been folded in since pinning.
        """
        if self._pinned_doc_freq is None or not self._stale_docs or not self._doc_freq:
            return 0.0
        # The pin is a snapshot of a dict that only grows, so its keys are a
        # prefix of the live keys in insertion order: pinned df is the live
        # order's df zero-padded past the snapshot.  log() runs once per
        # distinct df value; the sums add term by term in float64 like a
        # scalar loop would (accumulate never reassociates).
        live_df = np.fromiter(self._doc_freq.values(), dtype=np.int64, count=len(self._doc_freq))
        pin_df = np.zeros_like(live_df)
        pin_df[: len(self._pinned_doc_freq)] = np.fromiter(
            self._pinned_doc_freq.values(), dtype=np.int64, count=len(self._pinned_doc_freq)
        )
        idf_live = _idf_of(live_df, self._num_docs)
        idf_pin = _idf_of(pin_df, self._pinned_num_docs)
        weight = live_df.astype(np.float64)
        num = float(np.add.accumulate(weight * np.abs(idf_live - idf_pin))[-1])
        den = float(np.add.accumulate(weight * idf_live)[-1])
        return num / den if den else 0.0

    def refresh(self, threshold: float = 0.05) -> bool:
        """Re-pin the live stats iff drift exceeds ``threshold``.

        Returns True when the pin moved — the caller's signal that vectors
        embedded under the old pin are stale and must be re-embedded (the
        embedding space changed). Returns False (and changes nothing) while
        drift stays within tolerance.
        """
        if threshold < 0:
            raise ConfigError(f"refresh threshold must be >= 0, got {threshold}")
        if self._pinned_doc_freq is None or self.idf_drift() <= threshold:
            return False
        self._pinned_doc_freq = dict(self._doc_freq)
        self._pinned_num_docs = self._num_docs
        self._stale_docs = 0
        return True

    def _idf(self, token: str) -> float:
        if self._pinned_doc_freq is not None:
            if not self._pinned_num_docs:
                return 1.0
            df = self._pinned_doc_freq.get(token, 0)
            return math.log((1 + self._pinned_num_docs) / (1 + df)) + 1.0
        if not self._num_docs:
            return 1.0
        df = self._doc_freq.get(token, 0)
        return math.log((1 + self._num_docs) / (1 + df)) + 1.0

    # -------------------------------------------------------------- vectors
    @property
    def _token_vectors(self) -> Mapping[str, np.ndarray]:
        """Read-only ``key -> unit token vector`` view of the row table."""
        table = self._table[: len(self._rows)].view()
        table.flags.writeable = False
        return MappingProxyType({key: table[row] for key, row in self._rows.items()})

    def _fill_rows(self, start: int) -> None:
        """Generate the vectors of the keys added to ``_rows`` since row
        ``start`` in one :func:`_token_vector_block` call, growing the table
        by doubling when they do not fit."""
        rows = self._rows
        end = len(rows)
        if end == start:
            return
        # Dicts keep insertion order, so the new keys are the last ones.
        keys = list(islice(reversed(rows), end - start))[::-1]
        if end > self._table.shape[0]:
            grown = np.empty((max(end, 2 * self._table.shape[0]), self.dim), dtype=np.float32)
            grown[:start] = self._table[:start]
            self._table = grown
        self._table[start:end] = _token_vector_block(keys, self.seed, self.dim)

    def _contributions(
        self, token_lists: Sequence[Sequence[str]]
    ) -> Tuple[List[List[int]], List[List[float]]]:
        """Per text, the ``(table row, weight)`` adds of an embedding, in order.

        Each content token adds its vector at its IDF weight, followed by
        its ``stem_len`` prefix at ``weight * stem_weight`` when the token is
        longer; the adjacent bigrams then add at ``bigram_weight``.  A text
        without content tokens gets the row of ``"<empty>"`` (which cannot
        be a content token) and no weights.  Every key seen for the first
        time gets a row, and all their vectors are generated in one batch.
        """
        rows = self._rows
        start = len(rows)
        row_of = rows.setdefault
        idf_cache: Dict[str, float] = {}
        stem_weight = self.stem_weight
        stem_len = self.stem_len
        bigram_weight = self.bigram_weight
        contrib_ids: List[List[int]] = []
        contrib_weights: List[List[float]] = []
        for tokens in token_lists:
            ids: List[int] = []
            weights: List[float] = []
            if not tokens:
                ids.append(row_of("<empty>", len(rows)))
            for token in tokens:
                weight = idf_cache.get(token)
                if weight is None:
                    weight = idf_cache[token] = self._idf(token)
                ids.append(row_of(token, len(rows)))
                weights.append(weight)
                if stem_weight > 0 and len(token) > stem_len:
                    ids.append(row_of(token[:stem_len], len(rows)))
                    weights.append(weight * stem_weight)
            if bigram_weight > 0:
                for left, right in zip(tokens, tokens[1:]):
                    ids.append(row_of(f"{left}##{right}", len(rows)))
                    weights.append(bigram_weight)
            contrib_ids.append(ids)
            contrib_weights.append(weights)
        self._fill_rows(start)
        return contrib_ids, contrib_weights

    def embed(self, text: str) -> np.ndarray:
        """Embed ``text`` into a unit-norm float32 vector."""
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts; returns an ``(n, dim)`` float32 matrix.

        One tokenizer pass, one IDF lookup per distinct token and one table
        row per distinct key.  Each text sums its weighted rows with one
        ``np.add.accumulate`` along its own contributions: accumulate adds
        sequentially in float32, in the order the tokens occur, so every
        rounding step is that of a scalar ``acc += weight * vector`` loop
        (weights are float64 until they meet a float32 vector, where NEP 50
        casts them to float32, so pre-casting them rounds the same way).
        Only one text's products are held at a time.
        """
        if not texts:
            return np.zeros((0, self.dim), dtype=np.float32)
        token_lists = self.tokenizer.content_tokens_many(list(texts))
        contrib_ids, contrib_weights = self._contributions(token_lists)
        table = self._table
        out = np.empty((len(token_lists), self.dim), dtype=np.float32)
        for row, ids, weights in zip(out, contrib_ids, contrib_weights):
            if not weights:
                row[:] = table[ids[0]]
                continue
            products = np.asarray(weights, dtype=np.float32)[:, None] * table[ids]
            row[:] = normalize(np.add.accumulate(products, axis=0, out=products)[-1])
        return out

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity of two texts under this model."""
        return float(np.dot(self.embed(a), self.embed(b)))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two (not necessarily normalized) vectors."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def top_k_cosine(
    query: np.ndarray, matrix: np.ndarray, k: int, *, exclude: Optional[set] = None
) -> List[tuple]:
    """Exact top-k rows of ``matrix`` by cosine similarity to ``query``.

    Returns ``(row_index, score)`` pairs sorted by descending score. Assumes
    rows and query are already unit-normalized (dot == cosine).
    """
    if matrix.shape[0] == 0 or k <= 0:
        return []
    scores = matrix @ query
    if exclude:
        scores = scores.copy()
        for idx in exclude:
            scores[idx] = -np.inf
    k = min(k, matrix.shape[0])
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.argsort(-scores[top])]
    return [(int(i), float(scores[i])) for i in top if np.isfinite(scores[i])]

"""Parity tests for the offline data-path overhaul.

Mirrors ``tests/test_vector_batch.py``: every vectorized prep kernel must
return *identical* output to the frozen pre-overhaul implementation in
``benchmarks/perf/_legacy_prep.py`` — same shingle sets, bitwise-equal
MinHash signatures, identical dedup clusters and accounting, bitwise-equal
embedding matrices, and identical HNSW graphs and search results.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from benchmarks.perf._legacy_prep import (
    LegacyEmbeddingModel,
    LegacyHNSWIndex,
    LegacyMinHashDeduper,
    legacy_line_dedup,
    legacy_shingles,
)
from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.llm import embedding as embedding_module
from repro.llm.embedding import EmbeddingModel
from repro.llm.tokenizer import Tokenizer
from repro.prep import dedup as dedup_module
from repro.prep.dedup import (
    _MERSENNE,
    MinHashDeduper,
    line_dedup,
    shingle_hashes_many,
    shingles,
)
from repro.vector.hnsw import HNSWIndex


@pytest.fixture(scope="module")
def corpus():
    """Small labelled corpus with exact/near duplicates injected."""
    return CorpusBuilder(CorpusConfig(docs_per_domain=30, seed=13)).build()


def _doc(doc_id: str, text: str) -> TrainingDocument:
    return TrainingDocument(doc_id=doc_id, text=text, domain="news", quality="clean")


# ---------------------------------------------------------------- tokenizer


class TestTokenizerBatch:
    TEXTS = [
        "Plain ASCII words only",
        "MixedCase With UPPER and lower",
        "under_scores and __dunder__ tokens",
        "punctuation! (lots); of... it?",
        "unicode naïve café données схема",
        "long " + "x" * 30 + " words " + "y" * 17,
        "digits 123 and a1b2c3 mixes",
        "",
        "   \t\n  ",
        "___",
        "…ellipsis—dashes",
    ]

    def test_content_tokens_many_matches_scalar(self):
        tok = Tokenizer()
        assert tok.content_tokens_many(self.TEXTS) == [
            tok.content_tokens(t) for t in self.TEXTS
        ]

    def test_count_many_matches_scalar(self):
        tok = Tokenizer()
        assert tok.count_many(self.TEXTS) == [tok.count(t) for t in self.TEXTS]

    def test_count_many_long_word_split(self):
        tok = Tokenizer(max_word_len=4)
        text = "abcdefghij x!"  # 10-char word -> 3 pieces, 1 word, 1 punct
        assert tok.count_many([text]) == [tok.count(text)] == [5]


# -------------------------------------------------------------------- dedup


class TestMinHashParity:
    def test_shingle_hashes_match_legacy_sets(self, corpus):
        texts = [d.text for d in corpus]
        arrays = shingle_hashes_many(texts)
        deduper = MinHashDeduper()
        n = deduper.shingle_size
        tok = Tokenizer()
        for text, values in zip(texts, arrays):
            if len(tok.content_tokens(text)) >= n:
                assert set(values.tolist()) == legacy_shingles(text, n)

    def test_signature_many_matches_legacy(self, corpus):
        texts = [d.text for d in corpus]
        new = MinHashDeduper()
        old = LegacyMinHashDeduper()
        signatures = new.signature_many(shingle_hashes_many(texts))
        for i, text in enumerate(texts):
            expected = old.signature(legacy_shingles(text))
            assert np.array_equal(signatures[i], expected), f"doc {i}"

    @staticmethod
    def _assert_rows_match_signature(deduper, batch):
        signatures = deduper.signature_many(batch)
        assert signatures.shape == (len(batch), deduper.num_permutations)
        for i, values in enumerate(batch):
            expected = deduper.signature(set(values.tolist()))
            assert np.array_equal(signatures[i], expected), f"doc {i}"

    def test_signature_many_block_boundaries(self, corpus, monkeypatch):
        # With a 64-value block the corpus spans many kernel blocks, and the
        # 200-token doc in the middle is wider than a block on its own.
        monkeypatch.setattr(dedup_module, "_SIGNATURE_BLOCK", 64)
        texts = [d.text for d in corpus]
        wide = " ".join(f"w{i}" for i in range(200))
        deduper = MinHashDeduper()
        values = shingle_hashes_many(texts[:10] + [wide] + texts[10:] + [""])
        sizes = [v.shape[0] for v in values]
        assert sizes[10] > 64 and sum(sizes) > 10 * 64 and sizes[-1] == 0
        self._assert_rows_match_signature(deduper, values)
        self._assert_rows_match_signature(deduper, [values[10]])
        self._assert_rows_match_signature(deduper, [values[0]])
        self._assert_rows_match_signature(deduper, [values[-1], values[-1]])

    def test_signature_many_doc_wider_than_default_block(self, corpus):
        text = " ".join(f"t{i}" for i in range(dedup_module._SIGNATURE_BLOCK + 100))
        values = shingle_hashes_many([corpus[0].text, text, corpus[1].text])
        assert values[1].shape[0] > dedup_module._SIGNATURE_BLOCK
        self._assert_rows_match_signature(MinHashDeduper(seed=3), values)

    def test_dedup_output_matches_legacy(self, corpus):
        new = MinHashDeduper().dedup(corpus)
        old = LegacyMinHashDeduper().dedup(corpus)
        assert [d.doc_id for d in new.kept] == [d.doc_id for d in old.kept]
        assert sorted(d.doc_id for d in new.removed) == sorted(
            d.doc_id for d in old.removed
        )
        assert sorted(map(sorted, new.clusters)) == sorted(map(sorted, old.clusters))
        assert new.candidate_pairs == old.candidate_pairs
        assert new.verified_pairs == old.verified_pairs

    def test_short_doc_shingle_is_reduced(self):
        # Regression: the short-document branch must reduce modulo the
        # Mersenne prime like every other shingle hash, so signatures never
        # overflow int64.
        values = shingles("two words")
        assert values and all(0 <= v < _MERSENNE for v in values)
        docs = [_doc("a", "two words"), _doc("b", "two words"), _doc("c", "")]
        result = MinHashDeduper().dedup(docs)
        assert [d.doc_id for d in result.kept] == ["a", "c"]

    def test_exact_duplicates_cluster(self):
        text = (
            "the quick brown fox jumps over the lazy dog and keeps on "
            "running through the quiet green field until sunset"
        )
        docs = [_doc(f"d{i}", text) for i in range(4)] + [
            _doc("other", "completely different content about database systems "
                 "and vectorized query execution engines")
        ]
        result = MinHashDeduper().dedup(docs)
        assert [d.doc_id for d in result.kept] == ["d0", "other"]
        assert result.clusters == [[0, 1, 2, 3]]


class TestLineDedup:
    def test_matches_legacy(self, corpus):
        new_docs, new_removed = line_dedup(corpus)
        old_docs, old_removed = legacy_line_dedup(corpus)
        assert new_removed == old_removed
        assert [(d.doc_id, d.text) for d in new_docs] == [
            (d.doc_id, d.text) for d in old_docs
        ]

    def test_golden(self):
        boiler = "Subscribe to our newsletter."
        docs = [
            _doc("a", f"Alpha fact one. {boiler} Alpha fact two."),
            _doc("b", f"{boiler} Beta fact one."),
            _doc("c", f"Gamma fact. {boiler}"),
            _doc("d", "Delta fact. Delta fact."),
        ]
        kept, removed = line_dedup(docs, max_occurrences=2)
        # The boilerplate line appears in 3 documents (> 2) and is dropped
        # everywhere; the within-document repeat in "d" is dropped too.
        assert [(d.doc_id, d.text) for d in kept] == [
            ("a", "Alpha fact one. Alpha fact two."),
            ("b", "Beta fact one."),
            ("c", "Gamma fact."),
            ("d", "Delta fact."),
        ]
        assert removed == 4


# ---------------------------------------------------------------- embedding


class TestEmbeddingParity:
    def test_embed_batch_matches_scalar_embed(self, corpus):
        texts = [d.text for d in corpus][:120] + ["", "   ", "one"]
        model = EmbeddingModel(dim=64, seed=5)
        batched = model.embed_batch(texts)
        stacked = np.stack([EmbeddingModel(dim=64, seed=5).embed(t) for t in texts])
        assert np.array_equal(batched, stacked)

    def test_embed_batch_matches_legacy_fitted(self, corpus):
        texts = [d.text for d in corpus][:150]
        new = EmbeddingModel(dim=64, seed=2).fit_idf(texts)
        old = LegacyEmbeddingModel(dim=64, seed=2).fit_idf(texts)
        assert new._doc_freq == old._doc_freq
        assert new._num_docs == old._num_docs
        assert np.array_equal(new.embed_batch(texts), old.embed_batch(texts))

    def test_row_table_grows_across_interleaved_calls(self, corpus, monkeypatch):
        monkeypatch.setattr(embedding_module, "_INITIAL_ROWS", 8)
        texts = [d.text for d in corpus][:90]
        model = EmbeddingModel(dim=32, seed=4)
        oracle = LegacyEmbeddingModel(dim=32, seed=4)
        assert model._table.shape[0] == 8
        # Embeddings read the pinned stats of texts[:30] until the refresh.
        model.fit_idf(texts[:30]).partial_fit_idf(texts[30:60])
        oracle.fit_idf(texts[:30])

        def check(batch):
            expected = np.stack([oracle.embed(t) for t in batch])
            assert np.array_equal(model.embed_batch(batch), expected)

        # "<empty>" gets its first row mid-batch, after the first text's keys.
        check([texts[0], "", texts[1], "   "])
        for i in range(2, 60, 7):
            assert np.array_equal(model.embed(texts[i]), oracle.embed(texts[i]))
            check(texts[i + 1 : i + 7])
        assert model.refresh(0.0)
        oracle.fit_idf(texts[30:60])
        check(texts[60:] + [""])
        assert np.array_equal(model.embed(""), oracle.embed(""))
        assert model._table.shape[0] >= 64 * 8
        view = model._token_vectors
        assert len(view) == len(model._rows) == len(oracle._token_vectors)
        for key, vec in view.items():
            assert not vec.flags.writeable
            assert np.array_equal(vec, oracle._unit_vector(key)), key

    def test_embed_batch_holds_one_text_of_products(self, corpus):
        # A batch-wide (contributions x dim) product matrix would need
        # ``batch_products`` bytes at once; one text's products are far less.
        texts = [d.text for d in corpus]
        model = EmbeddingModel(dim=256, seed=6).fit_idf(texts)
        model.embed_batch(texts)  # every key has a row: the table stays put
        ids, _ = model._contributions(model.tokenizer.content_tokens_many(texts))
        batch_products = sum(map(len, ids)) * model.dim * 4
        tracemalloc.start()
        try:
            model.embed_batch(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < batch_products / 4, (peak, batch_products)

    def test_fit_idf_accumulates_across_calls(self):
        texts_a = ["alpha beta", "beta gamma"]
        texts_b = ["beta delta"]
        new = EmbeddingModel(dim=32).fit_idf(texts_a).fit_idf(texts_b)
        old = LegacyEmbeddingModel(dim=32).fit_idf(texts_a).fit_idf(texts_b)
        assert new._doc_freq == old._doc_freq
        assert new._num_docs == old._num_docs


# --------------------------------------------------------------------- hnsw


class TestHNSWParity:
    @pytest.fixture(scope="class")
    def workload(self):
        rng = np.random.default_rng(21)
        vectors = rng.standard_normal((600, 32)).astype(np.float32)
        queries = rng.standard_normal((20, 32)).astype(np.float32)
        return vectors, queries

    def _build_pair(self, vectors):
        ids = [f"v{i}" for i in range(vectors.shape[0])]
        new = HNSWIndex(32, m=8, ef_construction=60, ef_search=40, seed=3)
        old = LegacyHNSWIndex(32, m=8, ef_construction=60, ef_search=40, seed=3)
        new.add(ids, vectors)
        old.add(ids, vectors)
        return new, old

    def test_build_produces_identical_graph(self, workload):
        vectors, _ = workload
        new, old = self._build_pair(vectors)
        assert new._entry == old._entry
        assert new._entry_level == old._entry_level
        assert new._node_level == old._node_level
        assert new.num_layers == len(old._graph)
        for layer in range(new.num_layers):
            assert new.layer_adjacency(layer) == old._graph[layer], f"layer {layer}"

    def test_search_matches_legacy_index(self, workload):
        # Bitwise: the query path issues the same per-expansion BLAS
        # product as the frozen baseline, so ids AND scores are identical.
        vectors, queries = workload
        new, old = self._build_pair(vectors)
        for q in queries:
            assert new.search(q, 10) == old.search(q, 10)
        new.remove("v7")
        old.remove("v7")
        for q in queries[:5]:
            assert new.search(q, 10) == old.search(q, 10)

    def test_search_many_matches_looped_search(self, workload):
        vectors, queries = workload
        ids = [f"v{i}" for i in range(vectors.shape[0])]
        index = HNSWIndex(32, m=8, ef_search=40, seed=1)
        index.add(ids, vectors)
        batched = index.search_many(queries, 10)
        assert batched == [index.search(q, 10) for q in queries]

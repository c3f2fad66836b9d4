"""``figure1``: the Data4LLM + LLM4Data path of the paper's Figure 1.

A seeded arrival order of a duplicate-laden ``CorpusBuilder`` corpus,
mixed with the ``World`` entity documents, streams in small batches through
``StreamingCorpus.ingest`` on an IVF index (incremental MinHash dedup,
pinned-IDF embedding, live upsert, refresh, compaction, rebalance).  After
every batch, against the same live index:

* a batch of single-hop questions is answered RAG-style (``embed_batch``,
  ``search_vectors`` top-k, a context ``Prompt``, ``generate_many``);
* a topical ``SemFilter`` + ``SemMap`` pipeline runs through ``SemExecutor``
  over a slice of the batch.

At the end the token counts of the RAG calls become a request trace,
served at a seeded Poisson rate below capacity on a token-level
``DisaggEngineFleet`` (prefill and decode ``ServingEngine`` replicas with
``PagedAllocator``), with a few seeded KV-transfer-failure windows so the
decode-side re-prefill path runs too.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.clock import Stopwatch
from repro.data.documents import DocumentRenderer
from repro.data.synth import CorpusBuilder, CorpusConfig, TrainingDocument
from repro.data.world import QAGenerator, Question, World, WorldConfig
from repro.faults import KV_TRANSFER_FAIL, FaultPlan, RetryPolicy
from repro.inference import (
    ContinuousBatchScheduler,
    DisaggEngineFleet,
    IterationCost,
    PagedAllocator,
    Request,
    ServingEngine,
    phase_breakdown,
    summarize,
)
from repro.llm import make_llm
from repro.llm.cost import UsageLedger
from repro.llm.embedding import EmbeddingModel
from repro.llm.model import LLMResponse, SimLLM
from repro.llm.protocol import Prompt
from repro.prep.dedup import MinHashDeduper
from repro.semopt import SemExecutor, SemFilter, SemMap, SemPipeline
from repro.stream import IngestReport, StreamingCorpus, rebuild_from_scratch
from repro.unstructured import SemanticOperators
from repro.utils import derive_rng

DIM = 64
TOP_K = 4
MAX_ANSWER_TOKENS = 8
REFRESH_THRESHOLD = 0.1
#: The topical predicate is fixed so every seed filters on the same
#: question; only the corpus drawn from the seed changes.
ANALYTICS = SemPipeline(
    [
        SemFilter("is_about news", cascade=True),
        SemMap("Summarize the item", output_field="summary"),
    ]
)
#: Serve the RAG trace at this share of the prefill pool's token capacity,
#: so queues stay bounded and TTFT measures the mechanism, not overload.
SERVE_UTILIZATION = 0.7
PREFILL_ENGINES = 2
DECODE_ENGINES = 2
KV_CAPACITY_TOKENS = 32_768
GENERATE_SAMPLE = 32


@dataclass(frozen=True)
class Size:
    docs_per_domain: int
    batch_docs: int
    questions_per_batch: int
    analytics_rows: int


SIZES = {
    "full": Size(docs_per_domain=160, batch_docs=32, questions_per_batch=16, analytics_rows=32),
    "smoke": Size(docs_per_domain=12, batch_docs=16, questions_per_batch=4, analytics_rows=8),
}


@dataclass
class Setup:
    """Generated inputs plus freshly built components for one pass."""

    seed: int
    size: Size
    batches: List[List[TrainingDocument]]
    questions: List[Question]
    gold_doc: List[str]
    text_of: Dict[str, str]
    world: World
    corpus: StreamingCorpus
    rag_llm: SimLLM
    analytics: SemExecutor
    ledger: UsageLedger
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one pass did, its host timings, and its simulated results."""

    ingest_s: List[float] = field(default_factory=list)
    rag_s: List[float] = field(default_factory=list)
    analytics_s: List[float] = field(default_factory=list)
    reports: List[IngestReport] = field(default_factory=list)
    prompts: List[str] = field(default_factory=list)
    responses: List[LLMResponse] = field(default_factory=list)
    correct: int = 0
    gold_in_topk: int = 0
    rows_in: int = 0
    rows_out: int = 0
    analytics_calls: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    analytics_out: List[str] = field(default_factory=list)
    served: List[Request] = field(default_factory=list)
    allocators: List[PagedAllocator] = field(default_factory=list)
    engine_fleet: Optional[DisaggEngineFleet] = None
    engines: List[ServingEngine] = field(default_factory=list)
    sim: Dict[str, float] = field(default_factory=dict)

    @property
    def arrived(self) -> int:
        return sum(r.arrived for r in self.reports)

    @property
    def questions(self) -> int:
        return len(self.prompts)


def _world_docs(world: World, seed: int) -> List[TrainingDocument]:
    return [
        TrainingDocument(doc_id=doc.doc_id, text=doc.text, domain="world")
        for doc in DocumentRenderer(world, seed=seed).render_corpus()
    ]


def setup(seed: int, size_name: str) -> Setup:
    """Generate the inputs from ``seed`` and build the components."""
    size = SIZES[size_name]
    t0 = time.perf_counter()
    world = World(WorldConfig(seed=seed))
    docs = CorpusBuilder(
        CorpusConfig(docs_per_domain=size.docs_per_domain, seed=seed)
    ).build()
    docs.extend(_world_docs(world, seed))
    order = derive_rng(seed, "perfbench", "figure1", "arrivals").permutation(len(docs))
    arrivals = [docs[int(i)] for i in order]
    batches = [
        arrivals[i : i + size.batch_docs]
        for i in range(0, len(arrivals), size.batch_docs)
    ]
    questions = QAGenerator(world, seed=seed).single_hop(
        len(batches) * size.questions_per_batch
    )
    gold_doc = [f"doc-{world.entity_by_name(q.subject).uid}" for q in questions]
    t1 = time.perf_counter()
    ledger = UsageLedger()
    corpus = StreamingCorpus(
        dim=DIM,
        index_type="ivf",
        embedder=EmbeddingModel(dim=DIM, seed=seed),
        deduper=MinHashDeduper(seed=seed),
        refresh_threshold=REFRESH_THRESHOLD,
        seed=seed,
    )
    rag_llm = make_llm("sim-base", world=world, seed=seed, ledger=ledger)
    analytics = SemExecutor(SemanticOperators(make_llm("sim-base", seed=seed, ledger=ledger)))
    return Setup(
        seed=seed,
        size=size,
        batches=batches,
        questions=questions,
        gold_doc=gold_doc,
        text_of={d.doc_id: d.text for d in arrivals},
        world=world,
        corpus=corpus,
        rag_llm=rag_llm,
        analytics=analytics,
        ledger=ledger,
        phases={"data.build": t1 - t0},
    )


def instrument(s: Setup, tracer) -> None:
    """Route the components' public calls through ``tracer`` spans."""
    corpus = s.corpus
    tracer.instrument(corpus.deduper, "prep.dedup", "dedup_incremental")
    tracer.instrument(corpus.embedder, "llm.embedding", "embed_batch", "partial_fit_idf", "refresh")
    tracer.instrument(corpus.collection, "vector.write", "upsert", "delete")
    tracer.instrument(corpus.collection, "vector.read", "query_many")
    tracer.instrument(corpus.collection.index, "vector.maint", "compact", "maybe_rebalance")
    tracer.instrument(s.rag_llm, "llm.model", "generate_many")


def _rag_prompt(question: Question, context: Sequence[str]) -> str:
    return Prompt(
        task="qa",
        instruction="Answer using the provided context.",
        context="\n".join(context),
        input=question.text,
    ).render()


def run(s: Setup, tracer, watch: Stopwatch) -> Outcome:
    """Stream every batch, querying and analysing the live index after each,
    then serve the RAG trace on the token-level engines.

    Each batch is one ``watch`` lap; its stage times are calibrated by the
    lap's factor.
    """
    out = Outcome()
    per_batch = s.size.questions_per_batch
    clock = time.perf_counter
    for b, batch in enumerate(s.batches):
        tracer.batch = b
        t0 = clock()
        with tracer.span("stream.ingest"):
            report = s.corpus.ingest(batch)
        t1 = clock()
        questions = s.questions[b * per_batch : (b + 1) * per_batch]
        with tracer.span("rag"):
            vectors = s.corpus.embedder.embed_batch([q.text for q in questions])
            hits = s.corpus.search_vectors(vectors, k=TOP_K)
            prompts = [
                _rag_prompt(q, [s.text_of[h] for h in ids]) for q, ids in zip(questions, hits)
            ]
            responses = s.rag_llm.generate_many(
                prompts, max_tokens=MAX_ANSWER_TOKENS, tag="rag"
            )
        t2 = clock()
        records = [
            {"name": d.doc_id, "text": d.text, "domain": d.domain}
            for d in batch[: s.size.analytics_rows]
        ]
        with tracer.span("semopt"):
            result = s.analytics.run(records, ANALYTICS)
        t3 = clock()
        factor = watch.lap()
        out.ingest_s.append(factor * (t1 - t0))
        out.rag_s.append(factor * (t2 - t1))
        out.analytics_s.append(factor * (t3 - t2))
        out.reports.append(report)
        out.prompts.extend(prompts)
        out.responses.extend(responses)
        for i, (q, ids, r) in enumerate(zip(questions, hits, responses)):
            out.correct += int(r.text.strip() == q.answer)
            out.gold_in_topk += int(s.gold_doc[b * per_batch + i] in ids)
        out.rows_in += len(records)
        out.rows_out += len(result.records)
        out.analytics_calls += result.llm_calls
        if result.cache is not None:
            out.cache_hits += result.cache.hits
            out.cache_lookups += result.cache.lookups
        out.analytics_out.extend(
            f"{row['name']}|{row.get('summary', '')}" for row in result.records
        )
    tracer.batch = None
    _serve(s, out, tracer)
    return out


def _serve(s: Setup, out: Outcome, tracer) -> None:
    rng = derive_rng(s.seed, "perfbench", "figure1", "serve")
    tokens = [(r.usage.input_tokens, r.usage.output_tokens) for r in out.responses]
    mean_prompt = sum(t[0] for t in tokens) / len(tokens)
    cost = IterationCost()
    rate = SERVE_UTILIZATION * PREFILL_ENGINES / (mean_prompt * cost.per_prefill_token_s)
    arrivals = rng.exponential(1.0 / rate, len(tokens)).cumsum()
    requests = [
        Request(
            request_id=f"rag-{i:05d}",
            arrival_s=float(at),
            prompt_tokens=int(prompt),
            output_tokens=int(output),
        )
        for i, (at, (prompt, output)) in enumerate(zip(arrivals, tokens))
    ]
    horizon = float(arrivals[-1])
    faults = FaultPlan.seeded(
        seed=s.seed,
        horizon_s=horizon,
        rates={KV_TRANSFER_FAIL: 2.0 / horizon},
        mean_duration_s={KV_TRANSFER_FAIL: horizon / 50.0},
    )

    def engine() -> ServingEngine:
        allocator = PagedAllocator(KV_CAPACITY_TOKENS, block_size=16)
        out.allocators.append(allocator)
        built = ServingEngine(
            ContinuousBatchScheduler(max_batch=16), allocator=allocator, cost=cost
        )
        out.engines.append(built)
        return built

    fleet = DisaggEngineFleet(
        engine, PREFILL_ENGINES, DECODE_ENGINES, faults=faults, retry=RetryPolicy()
    )
    with tracer.span("inference.engine"):
        fleet.run(requests)
    with tracer.span("inference.metrics"):
        report = summarize(requests)
        phases = phase_breakdown(requests)
    out.served = requests
    out.engine_fleet = fleet
    out.sim = {
        "sim.ttft_p50_s": report.ttft_p50,
        "sim.ttft_p95_s": report.ttft_p95,
        "sim.transfer_p95_s": phases.transfer.p95_s,
        "rag.accuracy": out.correct / out.questions,
        "rag.gold_in_topk": out.gold_in_topk / out.questions,
    }


def digest(s: Setup, out: Outcome) -> str:
    """Hash of every simulated outcome of the pass (bit-exact per seed)."""
    h = hashlib.sha256()
    h.update("\n".join(s.corpus.live_doc_ids()).encode())
    h.update("\n".join(r.text for r in out.responses).encode())
    h.update("\n".join(out.analytics_out).encode())
    for r in out.served:
        h.update(repr((r.first_token_s, r.finished_s, r.rejected, r.retries, r.kv_shipped)).encode())
    h.update(json.dumps(out.sim, sort_keys=True).encode())
    return h.hexdigest()


def check(s: Setup, out: Outcome) -> List[str]:
    """Cheap output checks, run on every pass outside the timed region."""
    failures: List[str] = []
    for b, r in enumerate(out.reports):
        if r.admitted + r.rejected != r.arrived:
            failures.append(f"batch {b}: admitted {r.admitted} + rejected {r.rejected} != {r.arrived}")
    completed = sum(1 for r in out.served if r.done and not r.rejected)
    rejected = sum(1 for r in out.served if r.rejected)
    if completed + rejected != len(out.served):
        failures.append(f"serve: completed {completed} + rejected {rejected} != {len(out.served)}")
    leaked = [a.stats.reserved_tokens for a in out.allocators if a.stats.reserved_tokens]
    if leaked:
        failures.append(f"serve: allocators still reserve {leaked} tokens")
    return failures


def deep_check(s: Setup, out: Outcome) -> List[str]:
    """Checks against independent recomputation, run once per run."""
    failures: List[str] = []
    arrivals = [d for batch in s.batches for d in batch]
    _, _, kept = rebuild_from_scratch(arrivals, like=s.corpus)
    if kept != s.corpus.live_doc_ids():
        failures.append(
            f"stream survivors ({len(s.corpus)}) differ from a full re-dedup ({len(kept)})"
        )
    rng = derive_rng(s.seed, "perfbench", "figure1", "generate-sample")
    picks = sorted(int(i) for i in rng.choice(len(out.prompts), GENERATE_SAMPLE, replace=False))
    looped = make_llm("sim-base", world=s.world, seed=s.seed)
    for i in picks:
        ref = looped.generate(out.prompts[i], max_tokens=MAX_ANSWER_TOKENS, tag="rag")
        got = out.responses[i]
        if (ref.text, ref.usage) != (got.text, got.usage):
            failures.append(f"generate_many answer {i} differs from looped generate")
    return failures


def per_layer(s: Setup, out: Outcome) -> Dict[str, float]:
    """Work counts and ratios of one pass (times come from spans).

    Embedded texts are the admitted documents, the live sets re-embedded by
    refreshes and the questions; written rows are the upserted documents
    (refresh re-embeds are upserts too) and the evicted ones deleted.
    """
    arrived = out.arrived
    admitted = sum(r.admitted for r in out.reports)
    evicted = sum(r.evicted for r in out.reports)
    reembedded = sum(r.reembedded for r in out.reports)
    embedded = admitted + reembedded + out.questions
    usage = [r.usage for r in out.responses]
    kv = [a.stats for a in out.allocators]
    fleet = out.engine_fleet
    return {
        "stream.batches": len(out.reports),
        "stream.docs_arrived": arrived,
        "stream.docs_admitted": admitted,
        "stream.admit_ratio": admitted / arrived,
        "stream.docs_evicted": evicted,
        "stream.refreshes": s.corpus.refreshes,
        "stream.rebalances": s.corpus.rebalances,
        "prep.dedup.docs": arrived,
        "llm.embedding.texts": embedded,
        "llm.embedding.reembed_share": reembedded / embedded,
        "vector.write.rows": admitted + reembedded + evicted,
        "vector.read.queries": out.questions,
        "vector.tombstone_fraction": s.corpus.collection.index.tombstone_fraction,
        "llm.model.calls": len(usage),
        "llm.model.unique_prompt_ratio": len(set(out.prompts)) / len(out.prompts),
        "llm.model.input_tokens": sum(u.input_tokens for u in usage),
        "llm.model.output_tokens": sum(u.output_tokens for u in usage),
        "llm.usd": s.ledger.total.usd,
        "semopt.rows_in": out.rows_in,
        "semopt.rows_out": out.rows_out,
        "semopt.llm_calls": out.analytics_calls,
        "semopt.cache_hit_ratio": out.cache_hits / out.cache_lookups if out.cache_lookups else 0.0,
        "inference.engine.requests": len(out.served),
        "inference.engine.iterations": sum(e.iterations for e in out.engines),
        "inference.engine.handoffs": fleet.handoffs,
        "inference.engine.reprefills": fleet.reprefills,
        "inference.kv.mean_utilization": sum(k.mean_utilization for k in kv) / len(kv),
        "inference.kv.peak_reserved": max(k.peak_reserved for k in kv),
        "rag.queries_per_s": out.questions / sum(out.rag_s),
        "semopt.rows_per_s": out.rows_in / sum(out.analytics_s),
    }


def operations(s: Setup, out: Outcome) -> int:
    """Docs ingested, questions answered, rows analysed, requests served."""
    return out.arrived + out.questions + out.rows_in + len(out.served)


def pass_stats(s: Setup, out: Outcome) -> Dict[str, object]:
    """Host timings of one pass; ``items_per_s`` is ingest throughput."""
    return {
        "items_per_s": out.arrived / sum(out.ingest_s),
        "ingest_s": out.ingest_s,
        "rag_s": out.rag_s,
        "analytics_s": out.analytics_s,
        "questions": out.questions,
        "rows": out.rows_in,
    }


def _p(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def extras(stats: Sequence[Dict[str, object]]) -> Dict[str, Tuple[float, str]]:
    """The stage figures: rates are medians over passes, batch times are
    percentiles over every batch of every pass."""
    ingest = [t for st in stats for t in st["ingest_s"]]
    rag = [t for st in stats for t in st["rag_s"]]
    return {
        "ingest_docs_per_s": (statistics.median(st["items_per_s"] for st in stats), "docs/s"),
        "ingest_batch_p50_ms": (1000 * _p(ingest, 0.5), "ms"),
        "ingest_batch_p90_ms": (1000 * _p(ingest, 0.9), "ms"),
        "ingest_batches": (len(ingest), "count"),
        "rag_queries_per_s": (
            statistics.median(st["questions"] / sum(st["rag_s"]) for st in stats), "q/s"
        ),
        "rag_batch_p50_ms": (1000 * _p(rag, 0.5), "ms"),
        "rag_batch_p90_ms": (1000 * _p(rag, 0.9), "ms"),
        "analytics_rows_per_s": (
            statistics.median(st["rows"] / sum(st["analytics_s"]) for st in stats), "rows/s"
        ),
    }

"""The three workloads: closed-loop passes, answer checks and metrics.

Every pass does a fixed, seeded amount of work (``rate x seconds``
requests, the rate a per-workload constant), never a fixed duration, so
two runs with the same arguments do the same work; end-to-end metrics
are whole-pass aggregates or percentiles with at least ten samples
beyond them.

- ``rerank-single``: one ``AliCoCoService``, one closed-loop client, a
  stream of distinct long-tail ``search_reranked`` and
  ``items_for_concept_reranked`` requests (every one misses the result
  cache and runs both retrieval arms, fusion and pool scoring).
- ``rerank-proc2``: the same stream through a 2-shard process cluster,
  which adds scatter, RPC and merge.
- ``evolve-rw``: one service over a compacting ``GenerationalStore``;
  the reader mixes about 70% long-tail reranked misses with Zipf-hot
  lookups, while a writer thread runs one evolution cycle every
  ``write_every`` reader requests.

Every workload runs one evolution cycle per ``write_every`` reader
requests.  On the two rerank workloads the reader itself runs it and
waits, so no read overlaps a write and the cycle's time counts in no
read; ``fresh_ms`` there is the quiet publish path of the deployment
(through worker RPC on ``rerank-proc2``), sampled across the whole run
like the reads.
"""

from __future__ import annotations

import gc
import multiprocessing
import queue
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any

import numpy as np

from repro.kg import flatten
from repro.kg.ids import ECOMMERCE_PREFIX
from repro.serving import AliCoCoCluster

from deploy import Deployment, Inputs, oracle_service, peak_rss_mb, timed_setups
from spans import (
    READ_ROOT,
    WRITE_ROOT,
    SpanSummary,
    Tracer,
    is_reader,
    is_setup,
    is_writer,
)
from traffic import Catalog, evolve_stream, rerank_stream


@dataclass(frozen=True)
class Workload:
    name: str
    deployment: str
    #: Reader requests per second of ``--seconds`` (fixes the work).
    rate: int
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int
    #: One evolution cycle per this many reader requests.
    write_every: int
    #: Cycles run on their own thread, concurrently with the reader.
    concurrent_writes: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("rerank-single", "single", rate=440, setups=15, write_every=350),
        Workload("rerank-proc2", "proc2", rate=240, setups=3, write_every=300),
        Workload(
            "evolve-rw",
            "single",
            rate=440,
            setups=15,
            write_every=250,
            concurrent_writes=True,
        ),
    )
}
#: ``p50_ms`` is the mean of the medians of consecutive blocks of about
#: this many requests (half a second).  The host's CPU speed phases last
#: seconds and split request latency into two modes about 1 ms apart; a
#: block's median sits inside one mode, and the mean moves in proportion
#: to the time spent in each phase, where the median of the whole run
#: jumps between the modes.
P50_BLOCK = 250
#: ``p99_ms`` is the mean of the reader latencies ranked between these
#: percentiles, a p99 smoothed over a band of ranks.  On evolve-rw the
#: slow tail is reads that wait out the writer's hold on the GIL, in
#: steps of the 5 ms switch interval; one order statistic jumps from step
#: to step between runs, where the band mean moves with the share of
#: reads on each step.  At ``--seconds 30`` every pass has at least 36
#: samples beyond the band.
P99_BAND = (98.5, 99.5)
#: Requests of a pass re-asked of the oracle after it.
SAMPLED_ANSWERS = 48
#: Largest share by which layer self times may miss the request time.
RECONCILE_TOLERANCE = 0.10
#: Spans every traced pass of a deployment must record, by request kind.
#: A hook that stops firing would otherwise leave its layer reading 0 and
#: move the layer's time into ``frontend.self_ms`` unnoticed.  (On proc2
#: BM25, dense retrieval and pool scoring run in the untraced workers.)
REQUIRED_SPANS = {
    "single": {
        "read": (
            "retrieval.bm25",
            "retrieval.dense",
            "retrieval.fuse",
            "matching.query_vector",
            "matching.score_pool",
        ),
        "setup": ("setup.index_fit", "setup.prewarm"),
    },
    "proc2": {
        "read": (
            "retrieval.fuse",
            "matching.query_vector",
            "procpool.scatter",
            "procpool.call",
            "rpc.encode",
            "rpc.decode",
            "shard.merge",
        ),
        "setup": ("setup.index_fit", "setup.spawn"),
    },
}


class CheckFailed(Exception):
    """A correctness or sanity check failed; the run has no result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fresh: list[float] = field(default_factory=list)
    cycles: int = 0
    cycle_failures: int = 0
    publishes: int = 0
    compactions: int = 0
    late_cycles: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    doc_hits: int = 0
    doc_lookups: int = 0
    setup_times: list[float] = field(default_factory=list)
    rtt_p50_ms: float = 0.0
    rtt_p99_ms: float = 0.0
    restarts: int = 0
    rss_mb: float = 0.0
    #: Endpoint of each entry of ``latencies``.
    endpoints: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed + self.cycles

    @property
    def ok(self) -> int:
        return len(self.latencies)


def _cache_counts(target: Any) -> tuple[int, int, int, int]:
    """(result hits, lookups, doc-cache hits, lookups) so far."""
    stats = target.stats()
    hits = sum(endpoint.cache_hits for endpoint in stats.endpoints)
    lookups = hits + sum(endpoint.cache_misses for endpoint in stats.endpoints)
    shards = stats.shards if isinstance(target, AliCoCoCluster) else (stats,)
    doc_hits = sum(shard.doc_cache_hits for shard in shards)
    doc_lookups = doc_hits + sum(shard.doc_cache_misses for shard in shards)
    return hits, lookups, doc_hits, doc_lookups


class _Writer:
    """Runs evolution cycles and checks that every mined concept is searchable."""

    def __init__(
        self, deployment: Deployment, result: PassResult, tracer: Tracer | None
    ):
        self._deployment = deployment
        self._result = result
        self._tracer = tracer
        self.fresh_texts: list[str] = []
        self.failures: list[str] = []

    def latest_text(self, fallback: str) -> str:
        """The newest published concept text (``fallback`` before any publish)."""
        return self.fresh_texts[-1] if self.fresh_texts else fallback

    def cycle(self, index: int) -> None:
        store = self._deployment.store
        result = self._result
        known = store.count_nodes(ECOMMERCE_PREFIX)
        context = (
            self._tracer.request(f"w{index}", WRITE_ROOT)
            if self._tracer
            else nullcontext()
        )
        start = perf_counter()
        try:
            with context:
                report = self._deployment.driver.run_cycle()
        except Exception as error:  # keep the reader's run alive; checked later
            result.cycle_failures += 1
            result.errors.append(f"cycle {index}: {type(error).__name__}: {error}")
            return
        finally:
            result.cycles += 1
        elapsed = perf_counter() - start
        if report.published_generation is None:
            return
        result.fresh.append(elapsed)
        result.publishes += 1
        if not store.published_segments:
            result.compactions += 1
        target = self._deployment.target
        for node in islice(store.nodes(ECOMMERCE_PREFIX), known, None):
            hits = [concept_id for concept_id, _ in target.search(node.text)]
            if node.id not in hits:
                self.failures.append(
                    f"concept {node.id} {node.text!r} not searchable after "
                    f"publish {report.published_generation}"
                )
            self.fresh_texts.append(node.text)


def _block_percentiles(latencies: np.ndarray, q: float, size: int) -> list[float]:
    """``q``-th percentile of each consecutive block of at least ``size`` requests."""
    blocks = np.array_split(latencies, max(1, len(latencies) // size))
    return [float(np.percentile(block, q)) for block in blocks]


def block_p50(latencies: np.ndarray) -> float:
    """Mean, over consecutive blocks of ``P50_BLOCK``+ requests, of block medians."""
    return float(np.mean(_block_percentiles(latencies, 50, P50_BLOCK)))


def band_p99(latencies: np.ndarray) -> float:
    """Mean of the latencies ranked inside ``P99_BAND``."""
    ranked = np.sort(latencies)
    low, high = (round(len(ranked) * q / 100) for q in P99_BAND)
    return float(ranked[low:high].mean())


def _call(target: Any, request: tuple) -> Any:
    return getattr(target, request[0])(*request[1:])


def read_pass(
    deployment: Deployment,
    stream: list[tuple],
    tracer: Tracer | None,
    workload: Workload,
    fallback_text: str,
) -> tuple[PassResult, _Writer]:
    """One closed-loop reader over ``stream``, one evolution cycle per
    ``workload.write_every`` requests (inline, or on a writer thread)."""
    result = PassResult()
    writer = _Writer(deployment, result, tracer)
    target = deployment.target
    before = _cache_counts(target)
    write_every = workload.write_every
    wake: queue.Queue = queue.Queue()
    thread = None
    writing = 0.0
    if workload.concurrent_writes:

        def write_loop() -> None:
            while True:
                index = wake.get()
                if index is None:
                    return
                writer.cycle(index)

        thread = threading.Thread(target=write_loop, name="e2ebench-writer")
        thread.start()
    latencies = result.latencies
    start = perf_counter()
    try:
        for index, request in enumerate(stream):
            if index % write_every == write_every - 1:
                if thread is not None:
                    wake.put(index // write_every)
                else:
                    began = perf_counter()
                    writer.cycle(index // write_every)
                    writing += perf_counter() - began
            if request[0] == "search_fresh":
                request = ("search", writer.latest_text(fallback_text))
            context = tracer.request(index, READ_ROOT) if tracer else nullcontext()
            began = perf_counter()
            try:
                with context:
                    _call(target, request)
            except Exception as error:
                result.failed += 1
                result.errors.append(
                    f"request {index} {request!r}: {type(error).__name__}: {error}"
                )
                continue
            latencies.append(perf_counter() - began)
            result.endpoints.append(request[0])
        result.wall = perf_counter() - start - writing
    finally:
        if thread is not None:
            result.late_cycles = wake.qsize()
            wake.put(None)
            thread.join()
    result.rss_mb = peak_rss_mb(deployment)
    after = _cache_counts(target)
    result.cache_hits, result.cache_lookups, result.doc_hits, result.doc_lookups = (
        end - begin for begin, end in zip(before, after)
    )
    return result, writer


def _check_ranked(answer: Any, request: tuple) -> None:
    """Reranked answers: (id, probability) pairs sorted by (-probability, id)."""
    pairs = list(answer)
    check(bool(pairs), f"empty answer to {request!r}")
    check(
        pairs == sorted(pairs, key=lambda pair: (-pair[1], pair[0])),
        f"answer to {request!r} is not sorted by (-probability, id)",
    )
    if request[0] == "items_for_concept_reranked":
        check(
            len(pairs) == request[2],
            f"answer to {request!r} has {len(pairs)} items",
        )


class Run:
    """One invocation: inputs, deployments, passes, checks and metrics."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int, seconds: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.catalog = Catalog(inputs.built)
        self.n_requests = workload.rate * seconds
        self.notes: list[str] = []

    # ------------------------------------------------------------ streams
    def stream(self, n: int) -> list[tuple]:
        if self.workload.name == "evolve-rw":
            return evolve_stream(self.catalog, self.seed, n)
        return rerank_stream(self.catalog, self.seed, n)

    # ------------------------------------------------------------- passes
    def one_pass(
        self, n: int, tracer: Tracer | None, setups: int
    ) -> tuple[PassResult, Deployment]:
        """Set up, read ``n`` requests (with writes as the workload says), check."""
        workload = self.workload
        stream = self.stream(n)
        traced = tracer if tracer is not None else nullcontext()
        paused = tracer.paused if tracer is not None else nullcontext
        with traced:
            deployment, setup_times = timed_setups(
                self.inputs, workload.deployment, setups
            )
        try:
            with traced:
                # Each timed phase starts from an empty young generation, so
                # collections fall at the same points of the same work.
                gc.collect()
                result, writer = read_pass(
                    deployment,
                    stream,
                    tracer,
                    workload,
                    self.catalog.concept_texts[0],
                )
                result.setup_times = setup_times
                # The oracle is built and asked with tracing off: its set-up
                # and requests belong to no measured layer.
                with paused():
                    self._check_answers(deployment, stream, writer)
            check(not writer.failures, "; ".join(writer.failures[:3]))
            self._check_traffic(deployment, stream, result)
        finally:
            deployment.close()
        check(
            not multiprocessing.active_children(), "worker processes outlived close()"
        )
        return result, deployment

    # ------------------------------------------------------------- checks
    def _check_answers(
        self, deployment: Deployment, stream: list[tuple], writer: _Writer
    ) -> None:
        """Sampled final answers equal a fresh single service's over ``flatten()``.

        On ``rerank-single`` the oracle runs the scalar scoring path, so
        the fast path is checked against it; elsewhere it is the fast
        path, so the cluster and the evolved service are checked against
        one plain service.
        """
        scalar = self.workload.name == "rerank-single"
        oracle = oracle_service(
            self.inputs, flatten(deployment.store), use_fast_path=not scalar
        )
        target = deployment.target
        fresh = writer.latest_text(self.catalog.concept_texts[0])
        stride = max(1, len(stream) // SAMPLED_ANSWERS)
        for index in range(0, len(stream), stride):
            request = stream[index]
            if request[0] == "search_fresh":
                request = ("search", fresh)
            answer = _call(target, request)
            if request[0].endswith("_reranked"):
                _check_ranked(answer, request)
            check(
                answer == _call(oracle, request),
                f"{self.workload.name} answer to {request!r} differs from a "
                "fresh service over flatten()",
            )

    def _check_traffic(
        self, deployment: Deployment, stream: list[tuple], result: PassResult
    ) -> None:
        check(result.failed == 0, "; ".join(result.errors[:3]))
        check(result.cycle_failures == 0, "; ".join(result.errors[:3]))
        if not self.workload.concurrent_writes:
            check(
                result.cache_hits == 0,
                f"{result.cache_hits} result-cache hits on distinct keys",
            )
        planned = len(stream) // self.workload.write_every
        stats = deployment.driver.stats()
        for name, cycles in (("writer", result.cycles), ("driver", stats.cycles)):
            check(cycles == planned, f"{name}: {cycles} cycles, {planned} planned")
        check(
            stats.publishes == result.publishes,
            "driver and writer disagree on publishes",
        )
        check(
            result.publishes >= planned // 2,
            f"only {result.publishes} of {planned} cycles published",
        )
        expected = result.publishes // (deployment.store.compact_after_segments + 1)
        check(
            result.compactions == expected,
            f"{result.compactions} compactions for {result.publishes} publishes, "
            f"expected {expected}",
        )
        if isinstance(deployment.target, AliCoCoCluster):
            workers = deployment.target.worker_pool.stats()
            result.restarts = workers.total_restarts
            check(result.restarts == 0, f"{result.restarts} worker restarts")
            result.rtt_p50_ms = max(worker.rtt_p50_ms for worker in workers.workers)
            result.rtt_p99_ms = max(worker.rtt_p99_ms for worker in workers.workers)

    # ------------------------------------------------------------ metrics
    def end_to_end(self) -> tuple[dict[str, tuple[float, str]], PassResult]:
        result, _ = self.one_pass(self.n_requests, None, self.workload.setups)
        latencies = np.array(result.latencies)
        check(len(result.fresh) >= 3, f"only {len(result.fresh)} publishing cycles")
        succeeded = result.attempted - result.failed - result.cycle_failures
        metrics = {
            "setup_s": (statistics.median(result.setup_times), "s"),
            "qps": (result.ok / result.wall, "1/s"),
            "p50_ms": (block_p50(latencies) * 1e3, "ms"),
            "p99_ms": (band_p99(latencies) * 1e3, "ms"),
            "fresh_ms": (statistics.median(result.fresh) * 1e3, "ms"),
            "ok_frac": (succeeded / result.attempted, "frac"),
            "rss_mb": (result.rss_mb, "MB"),
        }
        endpoints = np.array(result.endpoints)
        for endpoint in sorted(set(result.endpoints)):
            mine = latencies[endpoints == endpoint]
            self.notes.append(
                f"endpoint {endpoint:<27} {len(mine):6d} requests  "
                f"p50 {np.percentile(mine, 50) * 1e3:7.3f} ms  "
                f"p99 {np.percentile(mine, 99) * 1e3:7.3f} ms"
            )
        self.notes.append(
            f"{result.ok} reader requests in {result.wall:.2f} s; "
            f"{result.cycles} cycles, {result.publishes} publishes, "
            f"{result.compactions} compactions, "
            f"{result.late_cycles} cycles left when the reader finished; "
            f"setups {', '.join(f'{t:.3f}' for t in result.setup_times)} s"
        )
        return metrics, result

    def per_layer(self, spans_path) -> tuple[dict[str, tuple[float, str]], PassResult]:
        """Untraced pass, then the same stream traced twice on fresh deployments."""
        n = self.n_requests // 3
        untraced, _ = self.one_pass(n, None, 1)
        passes = []
        for _ in range(2):
            tracer = Tracer()
            traced, deployment = self.one_pass(n, tracer, 1)
            passes.append((traced, tracer, deployment))
        traced, tracer, deployment = passes[0]
        tracer.write(spans_path)
        counts = [self._exact_counts(p, t) for p, t, _ in passes]
        check(
            counts[0] == counts[1],
            f"counts differ between identical traced passes: {counts}",
        )
        metrics = self._layer_metrics(traced, tracer, deployment)
        traced_qps = sum(p.ok for p, *_ in passes) / sum(p.wall for p, *_ in passes)
        untraced_qps = untraced.ok / untraced.wall
        metrics["trace.qps_untraced"] = (untraced_qps, "1/s")
        metrics["trace.qps_traced"] = (traced_qps, "1/s")
        metrics["trace.overhead_frac"] = (1.0 - traced_qps / untraced_qps, "frac")
        self.notes.append(
            f"tracing overhead: {traced_qps:.1f} q/s traced vs "
            f"{untraced_qps:.1f} q/s untraced"
        )
        return metrics, traced

    @staticmethod
    def _exact_counts(result: PassResult, tracer: Tracer) -> dict[str, int]:
        reads = SpanSummary(tracer.spans, is_reader)
        # The process cluster scores in its workers; count what it ships.
        shipped = reads.measure.get("procpool.scatter", 0)
        return {
            "docs_scored": reads.measure.get("matching.score_pool", 0) + shipped,
            "bytes_out": reads.measure.get("rpc.encode", 0),
            "bytes_in": reads.measure.get("rpc.decode", 0),
            "publishes": result.publishes,
            "compactions": result.compactions,
        }

    def _layer_metrics(
        self, result: PassResult, tracer: Tracer, deployment: Deployment
    ) -> dict[str, tuple[float, str]]:
        reads = SpanSummary(tracer.spans, is_reader)
        writes = SpanSummary(tracer.spans, is_writer)
        setup = SpanSummary(tracer.spans, is_setup)
        requests = reads.count[READ_ROOT]
        check(requests == result.ok, "every reader request must have one root span")
        required = REQUIRED_SPANS[self.workload.deployment]
        for kind, summary in (("read", reads), ("setup", setup)):
            for name in required[kind]:
                check(summary.count.get(name, 0) > 0, f"no {name} span in {kind}s")
        for name, expected in (
            (WRITE_ROOT, result.cycles),
            ("service.publish", result.publishes),
            ("store.publish", result.publishes),
            ("store.compact", result.compactions),
        ):
            recorded = writes.count.get(name, 0)
            check(
                recorded == expected,
                f"{recorded} {name} spans in writes, expected {expected}",
            )

        def per_request_ms(*names: str, self_time: bool = False) -> float:
            source = reads.self_time if self_time else reads.total
            return sum(source.get(name, 0.0) for name in names) / requests * 1e3

        def per_request(name: str, table: dict) -> float:
            return table.get(name, 0) / requests

        def hit_frac(hits: int, lookups: int) -> tuple[float, str]:
            return hits / max(1, lookups), "frac"

        def quantile_ms(name: str, q: float) -> float:
            durations = writes.durations.get(name)
            return float(np.percentile(durations, q)) * 1e3 if durations else 0.0

        counts = self._exact_counts(result, tracer)
        calls, measured = reads.count, reads.measure
        pool_self_ms = per_request_ms(
            "procpool.scatter", "procpool.call", self_time=True
        )
        stages = {row.stage: row for row in deployment.driver.stats().stage_latency}
        layers = reads.layer_self()
        traced_seconds = sum(layers.values())
        client_seconds = sum(result.latencies)
        reconcile = abs(traced_seconds - client_seconds) / client_seconds
        check(
            reconcile <= RECONCILE_TOLERANCE,
            f"layer self times sum to {traced_seconds:.3f} s, "
            f"requests took {client_seconds:.3f} s",
        )
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            self.notes.append(
                f"layer {layer:<18} self "
                f"{seconds / requests * 1e3:8.4f} ms/request "
                f"({seconds / client_seconds:6.1%})"
            )
        self.notes.append(
            f"layers sum to {traced_seconds:.3f} s of {client_seconds:.3f} s "
            f"client time ({reconcile:.2%} apart); spans: {len(tracer.spans)}"
        )
        return {
            "frontend.self_ms": (per_request_ms(READ_ROOT, self_time=True), "ms"),
            "cache.hit_frac": hit_frac(result.cache_hits, result.cache_lookups),
            "doc_cache.hit_frac": hit_frac(result.doc_hits, result.doc_lookups),
            "retrieval.bm25_ms": (per_request_ms("retrieval.bm25"), "ms"),
            "retrieval.dense_ms": (per_request_ms("retrieval.dense"), "ms"),
            "retrieval.fuse_ms": (per_request_ms("retrieval.fuse"), "ms"),
            "retrieval.candidates": (per_request("retrieval.fuse", measured), "count"),
            "matching.score_pool_ms": (per_request_ms("matching.score_pool"), "ms"),
            "matching.query_vector_ms": (per_request_ms("matching.query_vector"), "ms"),
            "matching.docs_scored": (counts["docs_scored"] / requests, "count"),
            "matching.encode_doc_calls": (
                per_request("matching.encode_doc", calls),
                "count",
            ),
            "procpool.scatter_ms": (pool_self_ms, "ms"),
            "procpool.scatters": (per_request("procpool.scatter", calls), "count"),
            "procpool.calls": (per_request("procpool.call", calls), "count"),
            "procpool.restarts": (float(result.restarts), "count"),
            "rpc.encode_ms": (per_request_ms("rpc.encode"), "ms"),
            "rpc.decode_ms": (per_request_ms("rpc.decode"), "ms"),
            "rpc.bytes_out": (counts["bytes_out"] / requests, "B"),
            "rpc.bytes_in": (counts["bytes_in"] / requests, "B"),
            "rpc.rtt_p50_ms": (result.rtt_p50_ms, "ms"),
            "rpc.rtt_p99_ms": (result.rtt_p99_ms, "ms"),
            "shard.merge_ms": (per_request_ms("shard.merge"), "ms"),
            "service.publish_p50_ms": (quantile_ms("service.publish", 50), "ms"),
            "service.publish_p95_ms": (quantile_ms("service.publish", 95), "ms"),
            "store.publish_ms": (quantile_ms("store.publish", 50), "ms"),
            "store.compact_ms": (quantile_ms("store.compact", 50), "ms"),
            "store.compactions": (float(writes.count.get("store.compact", 0)), "count"),
            "evolve.mine_ms": (stages["mine"].p50_ms, "ms"),
            "evolve.match_ms": (stages["match"].p50_ms, "ms"),
            "evolve.cycles": (float(result.cycles), "count"),
            "evolve.publishes": (float(result.publishes), "count"),
            "setup.index_fit_s": (setup.total.get("setup.index_fit", 0.0), "s"),
            "setup.prewarm_s": (setup.total.get("setup.prewarm", 0.0), "s"),
            "setup.spawn_s": (setup.total.get("setup.spawn", 0.0), "s"),
            "trace.reconcile_frac": (reconcile, "frac"),
        }

"""In-memory spans around the public callables of each layer.

The traced run wraps the functions named in :data:`LAYER_CALLS` from
the outside, so the program under test is unchanged: each call records
a span (id, name, start, end, parent id, request id, child time and one
measured count).  Spans stay in memory and are written out when the run
ends; a layer's self time is its spans' duration minus their children's.

Worker processes of the process executor import fresh copies of the
library, so spans stop at the parent's side of the RPC: worker time is
``procpool`` self time (scatter time minus encode/decode).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from repro.kg import generations
from repro.matching import base as matching_base
from repro.matching import bm25, dssm
from repro.retrieval import dense
from repro.serving import cluster, procpool, rpc, service

# Span fields.
ID, NAME, START, END, PARENT, RID, CHILD, MEASURE = range(8)

#: Root span names the load generator opens.
READ_ROOT = "request"
WRITE_ROOT = "evolve.cycle"


def _docs_shipped(args: tuple, kwargs: dict, result: Any) -> int:
    calls = args[1]
    return sum(
        len(call_args[1])
        for method, call_args in calls.values()
        if method == "pool_scores"
    )


def _result_length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _third_arg_length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[2])


def _first_arg_length(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


#: (owner, attribute, span name, layer, measure) for every wrapped call.
LAYER_CALLS: tuple[tuple[Any, str, str, str, Callable | None], ...] = (
    (bm25.BM25Index, "top_k", "retrieval.bm25", "retrieval", None),
    (dense.BruteForceDense, "retrieve", "retrieval.dense", "retrieval", None),
    (service, "rrf_fuse", "retrieval.fuse", "retrieval", _result_length),
    (cluster, "rrf_fuse", "retrieval.fuse", "retrieval", _result_length),
    (
        matching_base.NeuralMatcher,
        "score_pool",
        "matching.score_pool",
        "matching",
        _third_arg_length,
    ),
    (dssm.DSSMMatcher, "query_vector", "matching.query_vector", "matching", None),
    (dssm.DSSMMatcher, "encode_doc", "matching.encode_doc", "matching", None),
    (
        procpool.ProcessShardPool,
        "scatter",
        "procpool.scatter",
        "serving.procpool",
        _docs_shipped,
    ),
    (procpool.ProcessShardPool, "call", "procpool.call", "serving.procpool", None),
    (rpc, "encode_frame", "rpc.encode", "serving.rpc", _result_length),
    (rpc, "decode_frame", "rpc.decode", "serving.rpc", _first_arg_length),
    (cluster, "merge_ranked", "shard.merge", "serving.shard", None),
    (service.AliCoCoService, "publish", "service.publish", "kg.generations", None),
    (cluster.AliCoCoCluster, "publish", "service.publish", "kg.generations", None),
    (generations.GenerationalStore, "publish", "store.publish", "kg.generations", None),
    # Auto-compaction runs inside swap(), below the public compact().
    (
        generations.GenerationalStore,
        "_compact_locked",
        "store.compact",
        "kg.generations",
        None,
    ),
    (service, "fit_concept_index", "setup.index_fit", "setup", None),
    (cluster, "fit_concept_index", "setup.index_fit", "setup", None),
    (service.AliCoCoService, "warm_doc_cache", "setup.prewarm", "setup", None),
    (procpool.ProcessShardPool, "__init__", "setup.spawn", "setup", None),
)

#: Layer of every span name, root spans included.
LAYER_OF = {name: layer for _, _, name, layer, _ in LAYER_CALLS}
LAYER_OF[READ_ROOT] = "serving"
LAYER_OF[WRITE_ROOT] = "pipeline.evolve"


class Tracer:
    """Records spans while installed; restores every wrapped callable on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, rid: Any) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            name,
            0.0,
            0.0,
            parent[ID] if parent else None,
            parent[RID] if parent else rid,
            0.0,
            0,
        ]
        stack.append(span)
        return span

    def _close(self, span: list, start: float, end: float) -> None:
        stack = self._stack()
        stack.pop()
        span[START] = start
        span[END] = end
        if stack:
            stack[-1][CHILD] += end - start
        self.spans.append(span)

    @contextmanager
    def request(self, rid: Any, name: str = READ_ROOT) -> Iterator[None]:
        """A root span: every wrapped call inside it carries ``rid``."""
        span = self._open(name, rid)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(span, start, perf_counter())

    def _wrap(
        self, name: str, original: Callable, measure: Callable | None
    ) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = tracer._open(name, None)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span, start, perf_counter())
            if measure is not None:
                span[MEASURE] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, _layer, measure in LAYER_CALLS:
            saved = vars(owner).get(attr)
            self._undo.append((owner, attr, saved))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), measure))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the body with every wrapped callable restored."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s[ID]):
                out.write(
                    json.dumps(
                        {
                            "id": span[ID],
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "request": span[RID],
                            "self": span[END] - span[START] - span[CHILD],
                            "measure": span[MEASURE],
                        }
                    )
                    + "\n"
                )


class SpanSummary:
    """Per-name totals over the spans of one request kind (or of set-up)."""

    def __init__(self, spans: list[list], keep: Callable[[Any], bool]):
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.measure: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        for span in spans:
            if not keep(span[RID]):
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self_time = duration - span[CHILD]
            self.self_time[name] = self.self_time.get(name, 0.0) + self_time
            self.measure[name] = self.measure.get(name, 0) + span[MEASURE]
            self.durations.setdefault(name, []).append(duration)

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = LAYER_OF[name]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def is_reader(rid: Any) -> bool:
    return isinstance(rid, int)


def is_writer(rid: Any) -> bool:
    return isinstance(rid, str)


def is_setup(rid: Any) -> bool:
    return rid is None

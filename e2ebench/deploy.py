"""Inputs and deployments: the catalog, the reranker, and what a deployment runs.

Input generation (world synthesis and reranker training) is not part of
``setup_s``; everything a serving process does after it is handed the
built store and the trained model is.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.config import RunScale
from repro.kg import GenerationalStore
from repro.kg.relations import RelationKind
from repro.matching import DSSMMatcher, train_matcher
from repro.matching.base import matching_vocab
from repro.matching.dataset import pair_from_texts
from repro.pipeline.build import build_alicoco
from repro.pipeline.evolve import EvolutionConfig, EvolutionDriver
from repro.serving import (
    AliCoCoCluster,
    AliCoCoService,
    ClusterConfig,
    ServiceConfig,
)

#: Everything a run writes (worker snapshots, spans) stays under here.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The bench_cluster full-scale catalog: 4800 items / 220 concepts.
CATALOG_SCALE = RunScale(
    name="bench-lite",
    n_items=4800,
    n_queries=400,
    n_reviews=200,
    n_guides=80,
    embedding_dim=16,
    hidden_dim=16,
    epochs=4,
    seed=7,
)
N_CONCEPTS = 220

#: The configuration the ROADMAP says a deployment runs.
SERVICE_CONFIG = ServiceConfig(
    retriever="hybrid",
    use_fast_path=True,
    rerank_pool_k=200,
    prewarm_doc_cache=True,
)
CLUSTER_CONFIG = ClusterConfig(n_shards=2, executor="process")

#: Publishes beyond this many segments fold the chain into a new base.
COMPACT_AFTER_SEGMENTS = 3

#: The writer's mined corpus is part of the workload, like the catalog:
#: every run mines the same concepts, so growth and publish cost do not
#: vary with the read stream's seed.
EVOLVE_SEED = 11


def evolution_config() -> EvolutionConfig:
    """The writer's loop knobs: every cycle that accepts a concept publishes.

    The interval trigger never fires because the evolution driver gets a
    constant clock (see :func:`make_driver`), so only the size trigger
    publishes and every run publishes the same generations.
    """
    return EvolutionConfig(
        seed=EVOLVE_SEED,
        n_good=3,
        n_bad=2,
        n_queries=24,
        n_guides=16,
        publish_min_nodes=1,
        publish_max_interval=3600.0,
        cycle_interval=0.0,
    )


def usable_cores() -> int:
    """Cores this process may schedule on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class Inputs:
    """The prepared inputs every deployment starts from."""

    built: Any
    reranker: Any


def build_inputs() -> Inputs:
    """Synthesise the catalog and train bench_cluster's small DSSM reranker."""
    built = build_alicoco(CATALOG_SCALE, n_concepts=N_CONCEPTS)
    pairs = []
    for spec in built.concepts[:10]:
        concept_id = built.concept_ids[spec.text]
        linked = {
            relation.source
            for relation in built.store.in_relations(
                concept_id, RelationKind.ITEM_ECOMMERCE
            )
        }
        for index in range(8):
            item_id = built.item_ids[index]
            title_tokens = built.store.get(item_id).title.split()
            pairs.append(
                pair_from_texts(
                    spec.tokens, title_tokens, label=int(item_id in linked)
                )
            )
    model = DSSMMatcher(matching_vocab(pairs), dim=8, hidden=8, seed=1)
    train_matcher(model, pairs, epochs=2, lr=0.05, seed=0)
    return Inputs(built=built, reranker=model)


@dataclass
class Deployment:
    """One ready-to-serve target plus the evolution driver that grows it."""

    target: Any
    store: GenerationalStore
    driver: EvolutionDriver
    worker_dir: str | None = None

    def close(self) -> None:
        if isinstance(self.target, AliCoCoCluster):
            self.target.close()
        if self.worker_dir is not None:
            shutil.rmtree(self.worker_dir, ignore_errors=True)


def make_driver(inputs: Inputs, target: Any) -> EvolutionDriver:
    return EvolutionDriver.from_build(
        inputs.built,
        target,
        config=evolution_config(),
        clock=lambda: 0.0,
    )


def deploy(inputs: Inputs, kind: str) -> Deployment:
    """Build one deployment from prepared inputs: ``single`` or ``proc2``."""
    store = GenerationalStore(
        inputs.built.store, compact_after_segments=COMPACT_AFTER_SEGMENTS
    )
    if kind == "single":
        target = AliCoCoService(
            store, config=SERVICE_CONFIG, reranker=inputs.reranker
        )
        return Deployment(
            target=target, store=store, driver=make_driver(inputs, target)
        )
    if kind != "proc2":
        raise ValueError(f"unknown deployment kind {kind!r}")
    # Worker bootstrap snapshots go under OUT_DIR, not the system temp dir.
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    worker_dir = tempfile.mkdtemp(prefix="shards-", dir=OUT_DIR)
    try:
        target = AliCoCoCluster(
            store,
            config=replace(CLUSTER_CONFIG, worker_dir=worker_dir),
            service_config=SERVICE_CONFIG,
            reranker=inputs.reranker,
        )
    except BaseException:
        shutil.rmtree(worker_dir, ignore_errors=True)
        raise
    return Deployment(
        target=target,
        store=store,
        driver=make_driver(inputs, target),
        worker_dir=worker_dir,
    )


def timed_setups(
    inputs: Inputs, kind: str, repeats: int
) -> tuple[Deployment, list[float]]:
    """Set up ``repeats`` times; keep the last deployment, return all times.

    Earlier deployments are closed before the next one starts, so at
    most one is alive (and holding worker processes) at a time.
    """
    times = []
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
            deployment = None
        gc.collect()
        start = time.perf_counter()
        deployment = deploy(inputs, kind)
        times.append(time.perf_counter() - start)
    return deployment, times


def oracle_service(
    inputs: Inputs, store: Any, use_fast_path: bool
) -> AliCoCoService:
    """A plain single service over ``store``, for answer comparisons."""
    config = replace(SERVICE_CONFIG, use_fast_path=use_fast_path)
    return AliCoCoService(store, config=config, reranker=inputs.reranker)


def _peak_rss_kib(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb(deployment: Deployment) -> float:
    """Peak RSS of this process plus the deployment's live shard workers, in MB.

    Call it while the deployment still serves and before this process
    builds anything else (such as the answer oracle), so the peak is the
    serving process's own.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(deployment.target, AliCoCoCluster):
        workers = deployment.target.worker_pool.stats().workers
        kib += sum(_peak_rss_kib(worker.pid) for worker in workers)
    return kib / 1024.0

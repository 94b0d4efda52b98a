"""Seeded request streams.

A request is a tuple ``(endpoint, *args)``, the shape ``batch`` takes.
The fresh-concept search of ``evolve-rw`` is the placeholder
``("search_fresh",)``: its text is only known once the writer has
published, so the reader fills it in at run time.

Search texts come from the repository's own query model,
``repro.synth.queries.generate_queries``: its product, scenario and
problem families in its shares (40/45/15, 18% emerging trend terms).
A long-tail ``search_reranked`` text joins two consecutive queries of
that model ("red dress what do i need for outdoor barbecue"), so keys
are distinct by composition while every token, length and family
follows the model.  The remaining knobs below have no measured basis in
the repository; they are stated assumptions, kept fixed so runs compare.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator

import numpy as np

from repro.kg.ids import ECOMMERCE_PREFIX, ITEM_PREFIX, PRIMITIVE_PREFIX
from repro.synth.queries import generate_queries
from repro.utils.rng import derive_seed

#: Assumption: Zipf exponent over hot-key ranks of the evolve-rw lookups.
HOT_ZIPF = 1.2
#: Assumption: ``items_for_concept_reranked`` page sizes, uniform 1..MAX_PAGE.
MAX_PAGE = 100
#: Assumption: share of ``search_reranked`` among long-tail requests (the
#: rest are ``items_for_concept_reranked``).
SEARCH_SHARE = 0.5
#: Queries generated per call of the query model.
QUERY_CHUNK = 4096

#: ``evolve-rw`` reader mix (assumption): about 70% long-tail reranked
#: misses; the rest hot lookups, model searches and fresh-concept searches.
EVOLVE_MIX = (
    ("reranked", 0.70),
    ("items_for_concept", 0.08),
    ("concepts_for_item", 0.08),
    ("hypernyms", 0.05),
    ("search", 0.06),
    ("search_fresh", 0.03),
)


class Catalog:
    """The id populations and query model streams draw from."""

    def __init__(self, built: Any):
        store = built.store
        concepts = [node for node in store.nodes(ECOMMERCE_PREFIX) if node.tokens]
        self.concept_ids = [node.id for node in concepts]
        self.concept_texts = [node.text for node in concepts]
        self.concept_tokens = {token for node in concepts for token in node.tokens}
        self.item_ids = [node.id for node in store.nodes(ITEM_PREFIX)]
        self.primitive_ids = [node.id for node in store.nodes(PRIMITIVE_PREFIX)]
        self.world = built.world
        self.concepts = built.concepts

    def queries(self, seed: int, purpose: str) -> Iterator[str]:
        """Endless query texts from the model that share a token with a concept.

        A query with no concept token (only an emerging trend term) has
        nothing for either retrieval arm to find, so it is skipped.
        """
        for chunk in count():
            for query in generate_queries(
                self.world,
                self.concepts,
                QUERY_CHUNK,
                seed=derive_seed(seed, "e2ebench", purpose, str(chunk)),
            ):
                if self.concept_tokens.intersection(query.tokens):
                    yield query.text


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


class _LongTail:
    """Distinct reranked requests: no key is ever generated twice."""

    def __init__(self, catalog: Catalog, seed: int, rng: np.random.Generator):
        self._catalog = catalog
        self._rng = rng
        self._queries = catalog.queries(seed, "long-tail")
        self._seen: set = set()

    def next(self) -> tuple:
        rng = self._rng
        concept_ids = self._catalog.concept_ids
        while True:
            if rng.random() < SEARCH_SHARE:
                text = f"{next(self._queries)} {next(self._queries)}"
                request = ("search_reranked", text)
                key = ("s", text)
            else:
                concept = concept_ids[int(rng.integers(len(concept_ids)))]
                page = int(rng.integers(1, MAX_PAGE + 1))
                request = ("items_for_concept_reranked", concept, page)
                key = ("i", concept, page)
            if key not in self._seen:
                self._seen.add(key)
                return request


def rerank_stream(catalog: Catalog, seed: int, n: int) -> list[tuple]:
    """``n`` distinct long-tail reranked requests (see :data:`SEARCH_SHARE`)."""
    tail = _LongTail(catalog, seed, np.random.default_rng([seed, 1]))
    return [tail.next() for _ in range(n)]


def evolve_stream(catalog: Catalog, seed: int, n: int) -> list[tuple]:
    """``n`` reader requests in the ``evolve-rw`` mix (see :data:`EVOLVE_MIX`).

    Plain searches are single queries of the model, so they repeat as
    its scenario and product queries do; the other lookups draw their
    key Zipf-hot from the ids (:data:`HOT_ZIPF`).
    """
    rng = np.random.default_rng([seed, 2])
    tail = _LongTail(catalog, seed, rng)
    searches = catalog.queries(seed, "search")
    kinds = [kind for kind, _ in EVOLVE_MIX]
    kind_p = np.array([share for _, share in EVOLVE_MIX])
    populations = {
        "items_for_concept": catalog.concept_ids,
        "concepts_for_item": catalog.item_ids,
        "hypernyms": catalog.primitive_ids,
    }
    hot_p = {
        name: _zipf_weights(len(ids), HOT_ZIPF) for name, ids in populations.items()
    }
    stream = []
    for _ in range(n):
        kind = kinds[int(rng.choice(len(kinds), p=kind_p))]
        if kind == "reranked":
            stream.append(tail.next())
        elif kind == "search_fresh":
            stream.append(("search_fresh",))
        elif kind == "search":
            stream.append(("search", next(searches)))
        else:
            ids = populations[kind]
            key = ids[int(rng.choice(len(ids), p=hot_p[kind]))]
            if kind == "items_for_concept":
                stream.append((kind, key, 10))
            elif kind == "hypernyms":
                stream.append((kind, key, True))
            else:
                stream.append((kind, key))
    return stream

"""Frozen scalar reference implementations of the vectorised hot paths.

When the beam search, the pruning and the TransE trainer were vectorised,
their original one-Python-iteration-per-beam/-triplet implementations moved
here verbatim; so did the CGGNN layers' concatenation-based forwards when
Eq. 1 became blockwise.  They serve two purposes:

* **equivalence oracles** — ``tests/test_perf_equivalence.py`` pins the
  vectorised implementations to these references (identical top-k items and
  explanation paths, all-close embeddings, identical pruned action sets);
* **in-run benchmark baselines** — ``python -m repro bench`` measures both
  sides in the same process on the same data, so the reported speedups are
  machine-independent ratios rather than absolute timings.

Nothing in the production stack calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import nn
from ..cggnn.category_attention import _MASK_FILL, CategoryAttentionLayer
from ..cggnn.model import CGGNN
from ..cggnn.propagation import AdaptivePropagationLayer
from ..darl.collaborative import action_target_categories
from ..darl.inference import PathRecommender
from ..embeddings.transe import TransEConfig, TransEModel
from ..kg.graph import KnowledgeGraph
from ..kg.relations import Relation
from ..nn import Tensor
from ..nn import functional as F
from ..rl.environment import EntityState
from ..rl.trajectory import RecommendationPath

NumpyLSTMState = Tuple[np.ndarray, np.ndarray]


def _relation_index_reference(relation: Relation) -> int:
    """The pre-PR ``relation_index``: a linear scan of the enum per lookup.

    ``repro.kg.relations.relation_index`` is a dict hit nowadays; the
    reference trainer keeps the original O(num_relations) lookup so the
    baseline reflects the true pre-PR cost of building the triplet table.
    """
    return list(Relation).index(relation)


# --------------------------------------------------------------------------- #
# scalar beam search (pre-vectorisation PathRecommender.search)
# --------------------------------------------------------------------------- #
@dataclass
class _Beam:
    """Internal beam-search state (one partial entity-agent walk)."""

    entity_state: EntityState
    entity_hidden: np.ndarray
    entity_lstm: NumpyLSTMState
    last_relation: Relation
    log_prob: float
    hops: Tuple[Tuple[Relation, int], ...] = ()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


class ScalarPathRecommender(PathRecommender):
    """A :class:`PathRecommender` whose beam search runs one beam at a time.

    Shares every collaborator (environments, caches, policy, milestone
    rollout) with the vectorised implementation — only the search loop
    differs — so a comparison between the two isolates exactly the
    vectorisation change.
    """

    def recommend_requests(self, requests):
        """Pre-vectorisation request batching: one scalar search per request."""
        return [self.recommend(user, exclude_items, top_k)
                for user, exclude_items, top_k in requests]

    def search(self, user_entity: int, exclude_items: Set[int],
               keep_all_paths: bool = False,
               milestones: Optional[List[Optional[int]]] = None
               ) -> Dict[int, RecommendationPath]:
        if milestones is None:
            milestones = self.category_milestones(user_entity)
        beams = [self._initial_beam(user_entity)]
        found: Dict[int, RecommendationPath] = {}

        for depth in range(1, self.max_path_length + 1):
            guided_category = milestones[depth - 1]
            expansions: List[_Beam] = []
            for beam in beams:
                expansions.extend(self._expand(beam, guided_category))
            if not expansions:
                break
            expansions.sort(key=lambda candidate: candidate.log_prob, reverse=True)
            survivors = expansions[: self.config.beam_width]
            beams = [self._advance_history(beam) for beam in survivors]

            if depth >= self.config.min_path_length:
                for beam in beams:
                    self._collect_beam(beam, user_entity, exclude_items, found,
                                       keep_all_paths)
        return found

    def _initial_beam(self, user_entity: int) -> _Beam:
        entity_state = self.entity_environment.initial_state(user_entity)
        lstm_state = self.policy.initial_state_numpy()
        hidden, lstm_state = self.policy.encode_entity_step_numpy(
            self.representations.relation_vector(Relation.SELF_LOOP),
            self.representations.entity_vector(user_entity), None, lstm_state)
        return _Beam(entity_state=entity_state, entity_hidden=hidden,
                     entity_lstm=lstm_state, last_relation=Relation.SELF_LOOP,
                     log_prob=0.0)

    def _expand(self, beam: _Beam, guided_category: Optional[int]) -> List[_Beam]:
        """Generate the highest-probability child beams of ``beam``."""
        actions = self.entity_environment.actions(beam.entity_state,
                                                  target_category=guided_category)
        if not actions:
            return []
        cache_key = (beam.entity_state.current_entity, guided_category,
                     beam.entity_state.user_entity)
        action_matrix = self.entity_environment.action_matrix(actions, cache_key=cache_key)
        logits = self.policy.entity_action_logits_numpy(
            self.representations.entity_vector(beam.entity_state.current_entity),
            self.representations.relation_vector(beam.last_relation),
            beam.entity_hidden, action_matrix)
        categories = action_target_categories(self.graph, actions)
        logits = logits + self.guidance.guidance_bonus(categories, guided_category)
        log_probs = _log_softmax(logits)

        order = np.argsort(-log_probs)[: self.config.expansions_per_beam]
        children: List[_Beam] = []
        for index in order:
            relation, target = actions[index]
            children.append(replace(
                beam,
                entity_state=self.entity_environment.step(beam.entity_state,
                                                          actions[index]),
                last_relation=relation,
                log_prob=beam.log_prob + float(log_probs[index]),
                hops=beam.hops + ((relation, target),),
            ))
        return children

    def _advance_history(self, beam: _Beam) -> _Beam:
        """Update the entity history encoder for a surviving beam."""
        relation, target = beam.hops[-1]
        hidden, lstm_state = self.policy.encode_entity_step_numpy(
            self.representations.relation_vector(relation),
            self.representations.entity_vector(target),
            None, beam.entity_lstm)
        return replace(beam, entity_hidden=hidden, entity_lstm=lstm_state)

    def _collect_beam(self, beam: _Beam, user_entity: int, exclude_items: Set[int],
                      found: Dict[int, RecommendationPath],
                      keep_all_paths: bool) -> None:
        """Record the beam's endpoint if it is a recommendable item."""
        entity = beam.entity_state.current_entity
        if not self.entity_environment.is_item(entity):
            return
        if entity in exclude_items:
            return
        path = RecommendationPath(user_entity=user_entity, item_entity=entity,
                                  hops=beam.hops, score=beam.log_prob)
        key = entity if not keep_all_paths else len(found)
        existing = found.get(key)
        if existing is None or path.score > existing.score:
            found[key] = path


# --------------------------------------------------------------------------- #
# scalar TransE training (pre-vectorisation train_transe)
# --------------------------------------------------------------------------- #
def train_transe_reference(graph: KnowledgeGraph,
                           config: Optional[TransEConfig] = None
                           ) -> Tuple[TransEModel, List[float]]:
    """The pre-vectorisation TransE trainer, kept verbatim.

    Per-triplet index columns stay strided views, the triplet table is rebuilt
    from Python objects on every call, and each margin step issues six
    ``np.add.at`` scatter passes — exactly the costs the vectorised
    :func:`repro.embeddings.train_transe` removes.  Draws from the RNG in the
    same order as the vectorised trainer, so same-seed runs are comparable.
    """
    config = config or TransEConfig()
    config.validate()
    model = TransEModel(graph.num_entities, config)
    rng = np.random.default_rng(config.seed + 1)

    triplets = np.array([(t.head, _relation_index_reference(t.relation), t.tail)
                         for t in graph.triplets()], dtype=np.int64)
    if len(triplets) == 0:
        return model, []

    losses: List[float] = []
    num_entities = graph.num_entities
    for _ in range(config.epochs):
        order = rng.permutation(len(triplets))
        epoch_loss = 0.0
        count = 0
        for start in range(0, len(order), config.batch_size):
            batch = triplets[order[start:start + config.batch_size]]
            heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            for _ in range(config.negative_samples):
                corrupt_heads = rng.random(len(batch)) < 0.5
                neg_heads = heads.copy()
                neg_tails = tails.copy()
                replacements = rng.integers(0, num_entities, size=len(batch))
                neg_heads[corrupt_heads] = replacements[corrupt_heads]
                neg_tails[~corrupt_heads] = replacements[~corrupt_heads]

                loss = _margin_step_reference(model, config, heads, relations, tails,
                                              neg_heads, neg_tails)
                epoch_loss += loss
                count += 1
        model._normalize_entities()
        losses.append(epoch_loss / max(count, 1))
    return model, losses


def _margin_step_reference(model: TransEModel, config: TransEConfig,
                           heads: np.ndarray, relations: np.ndarray,
                           tails: np.ndarray, neg_heads: np.ndarray,
                           neg_tails: np.ndarray) -> float:
    """One SGD step of the margin ranking loss; returns the batch loss."""
    ent = model.entity_embeddings
    rel = model.relation_embeddings

    pos_diff = ent[heads] + rel[relations] - ent[tails]
    neg_diff = ent[neg_heads] + rel[relations] - ent[neg_tails]
    pos_dist = np.linalg.norm(pos_diff, axis=1)
    neg_dist = np.linalg.norm(neg_diff, axis=1)
    violation = config.margin + pos_dist - neg_dist
    active = violation > 0
    if not np.any(active):
        return 0.0  # repro: ignore[NAN001] no margin violations: the batch loss really is 0

    lr = config.learning_rate
    # d/dx ||x|| = x / ||x||
    pos_grad = pos_diff[active] / (pos_dist[active, None] + 1e-12)
    neg_grad = neg_diff[active] / (neg_dist[active, None] + 1e-12)

    np.add.at(ent, heads[active], -lr * pos_grad)
    np.add.at(ent, tails[active], lr * pos_grad)
    np.add.at(rel, relations[active], -lr * pos_grad)
    np.add.at(ent, neg_heads[active], lr * neg_grad)
    np.add.at(ent, neg_tails[active], -lr * neg_grad)
    np.add.at(rel, relations[active], lr * neg_grad)

    return float(np.mean(violation[active]))


# --------------------------------------------------------------------------- #
# concatenation-based CGGNN layers (pre-blockwise Eq. 1)
# --------------------------------------------------------------------------- #
class ConcatPropagationLayer(AdaptivePropagationLayer):
    """:class:`AdaptivePropagationLayer` whose Eq. 1 concatenates, kept verbatim.

    Tiles the item and purchase states over the neighbour axis by multiplying
    with ``np.ones`` and builds the ``(I, N, 4d)`` concatenation that the
    production layer's blockwise Eq. 1 avoids.
    """

    def forward(self, item_states: Tensor, neighbor_states: Tensor,
                relation_states: Tensor, purchase_state: Tensor,
                neighbor_mask: np.ndarray, neighbor_is_outgoing: np.ndarray) -> Tensor:
        num_items, max_neighbors, dim = neighbor_states.shape

        # Broadcast the item state and the purchase-relation embedding over the
        # neighbour axis so the concatenation of Eq. 1 can be done in one shot.
        item_tiled = item_states.reshape(num_items, 1, dim) * Tensor(
            np.ones((1, max_neighbors, 1)))
        purchase_tiled = purchase_state.reshape(1, 1, dim) * Tensor(
            np.ones((num_items, max_neighbors, 1)))

        triplet_input = nn.concat(
            [item_tiled, neighbor_states, relation_states, purchase_tiled], axis=-1)
        triplet_repr = F.sigmoid(self.triplet_transform(triplet_input))       # Eq. 1
        attention = F.sigmoid(self.attention(triplet_repr))                   # Eq. 2 (I, N, 1)

        mask = Tensor(neighbor_mask[..., None])
        outgoing = Tensor(neighbor_is_outgoing[..., None])
        incoming = Tensor((1.0 - neighbor_is_outgoing)[..., None])

        interaction = neighbor_states * relation_states                       # h_ej ∘ h_r
        message_out = self.transform_out(interaction) * outgoing
        message_in = self.transform_in(interaction) * incoming
        weighted = attention * mask * (message_out + message_in)              # Eq. 3
        return weighted.sum(axis=1)


class TiledCategoryAttentionLayer(CategoryAttentionLayer):
    """:class:`CategoryAttentionLayer` tiling by ``np.ones`` products, kept verbatim."""

    def forward(self, item_states: Tensor, category_states: Tensor,
                category_mask: np.ndarray) -> Tensor:
        num_items, max_categories, dim = category_states.shape
        item_tiled = item_states.reshape(num_items, 1, dim) * Tensor(
            np.ones((1, max_categories, 1)))

        pair = nn.concat([item_tiled, category_states], axis=-1)
        scores = F.leaky_relu(self.score_transform(pair), self.negative_slope)  # Eq. 8 (I, C, 1)
        scores = scores.reshape(num_items, max_categories)

        # Masked softmax (Eq. 9): padded category slots get a large negative score.
        masked_scores = scores + Tensor((1.0 - category_mask) * _MASK_FILL)
        attention = F.softmax(masked_scores, axis=-1)
        attention = attention * Tensor(category_mask)
        normaliser = attention.sum(axis=-1, keepdims=True) + 1e-12
        attention = attention / normaliser

        weighted = category_states * attention.reshape(num_items, max_categories, 1)
        return weighted.sum(axis=1)                                             # Eq. 10


def _adopt(cls, layer: nn.Module) -> nn.Module:
    """A ``cls`` instance over ``layer``'s own attributes (weights shared)."""
    reference = cls.__new__(cls)
    reference.__dict__.update(vars(layer))
    return reference


def use_reference_layers(model: CGGNN) -> CGGNN:
    """Swap ``model``'s propagation and category layers for the frozen ones.

    The reference layers share the replaced layers' weights, so parameter
    names, order and values are unchanged; returns ``model``.
    """
    model.propagation_layers = [_adopt(ConcatPropagationLayer, layer)
                                for layer in model.propagation_layers]
    model.category_layers = [_adopt(TiledCategoryAttentionLayer, layer)
                             for layer in model.category_layers]
    return model

"""The Category-aware Gated Graph Neural Network (CGGNN, Section IV-B).

The model refines TransE item embeddings with ``k`` adaptive-propagation +
gated-aggregation hops (entity-level contextual dependency) and ``m``
category-attention hops (category-level contextual dependency), and fuses the
two with the trade-off factor ``δ`` (Eq. 11).

Only items receive refined representations — the paper's explicit design
choice — so non-item neighbours always contribute their static TransE vectors
while item neighbours contribute the representation of the previous GNN layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import nn
from ..embeddings.transe import TransEModel, category_embeddings
from ..kg.entities import EntityType
from ..kg.graph import KnowledgeGraph
from ..kg.relations import Relation, relation_index
from ..nn import Tensor
from .category_attention import CategoryAttentionLayer
from .gating import GatedAggregationLayer
from .neighbourhood import NeighbourhoodTable, build_neighbourhood_table
from .propagation import AdaptivePropagationLayer


@dataclass
class CGGNNConfig:
    """Hyper-parameters of the CGGNN (paper Section V-A.3)."""

    embedding_dim: int = 100
    num_ggnn_layers: int = 3        # k
    num_category_layers: int = 2    # m
    delta: float = 0.4              # trade-off factor in Eq. 11
    max_neighbors: int = 16
    max_categories: int = 6
    leaky_relu_slope: float = 0.2
    use_ggnn: bool = True           # disabled by the RGGNN ablation (Fig. 3)
    use_category_attention: bool = True  # disabled by the RCGAN ablation (Fig. 3)
    seed: int = 0

    def validate(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_ggnn_layers < 0 or self.num_category_layers < 0:
            raise ValueError("layer counts must be non-negative")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must lie in [0, 1]")


@dataclass
class Representations:
    """Frozen representation tables handed to the RL stage.

    ``entity`` rows of item entities hold CGGNN outputs; every other entity
    keeps its TransE vector.  ``category`` holds one vector per item-category.
    """

    entity: np.ndarray
    relation: np.ndarray
    category: np.ndarray

    @property
    def dim(self) -> int:
        return self.entity.shape[1]

    def entity_vector(self, entity_id: int) -> np.ndarray:
        return self.entity[entity_id]

    def relation_vector(self, relation: Relation) -> np.ndarray:
        return self.relation[relation_index(relation)]

    def category_vector(self, category_id: int) -> np.ndarray:
        return self.category[category_id]


class CGGNN(nn.Module):
    """End-to-end CGGNN producing high-order item representations."""

    def __init__(self, graph: KnowledgeGraph, transe: TransEModel,
                 config: Optional[CGGNNConfig] = None,
                 table: Optional[NeighbourhoodTable] = None) -> None:
        self.config = config or CGGNNConfig()
        self.config.validate()
        if transe.config.embedding_dim != self.config.embedding_dim:
            raise ValueError("TransE and CGGNN embedding dimensions must match")
        rng = np.random.default_rng(self.config.seed)
        self.graph = graph
        self.table = table or build_neighbourhood_table(
            graph, max_neighbors=self.config.max_neighbors,
            max_categories=self.config.max_categories, rng=rng)

        dim = self.config.embedding_dim
        # Static context (TransE): every entity and relation.
        self._static_entities = np.array(transe.entity_embeddings, copy=True)
        self._static_relations = np.array(transe.relation_embeddings, copy=True)
        self._static_categories = category_embeddings(transe, graph)
        if self._static_categories.shape[0] == 0:
            self._static_categories = np.zeros((1, dim))

        # Trainable tables: item self-embeddings and category embeddings,
        # initialised from the TransE statistics.
        self.item_embeddings = Tensor(
            self._static_entities[self.table.item_ids].copy(), requires_grad=True,
            name="cggnn.item_embeddings")
        self.category_table = Tensor(self._static_categories.copy(), requires_grad=True,
                                     name="cggnn.category_embeddings")

        self.propagation_layers = [
            AdaptivePropagationLayer(dim, rng=rng) for _ in range(self.config.num_ggnn_layers)
        ]
        self.gating_layers = [
            GatedAggregationLayer(dim, rng=rng) for _ in range(self.config.num_ggnn_layers)
        ]
        self.category_layers = [
            CategoryAttentionLayer(dim, self.config.leaky_relu_slope, rng=rng)
            for _ in range(self.config.num_category_layers)
        ]

        self._prepare_index_arrays()

    # ------------------------------------------------------------------ #
    def _prepare_index_arrays(self) -> None:
        """Pre-compute gather indices and the constant per-neighbour tensors.

        Relation states, the purchase-relation state and the static share of
        the neighbour states (attribute neighbours' TransE vectors, zero where
        the neighbour is an item) never change during training, so they are
        built once here instead of on every forward.
        """
        table = self.table
        is_item = np.zeros_like(table.neighbor_mask)
        item_positions = np.zeros_like(table.neighbor_entities)
        for row in range(table.num_items):
            for column in range(table.max_neighbors):
                if table.neighbor_mask[row, column] == 0.0:
                    continue
                neighbor = int(table.neighbor_entities[row, column])
                if self.graph.entities.type_of(neighbor) == EntityType.ITEM:
                    is_item[row, column] = 1.0
                    item_positions[row, column] = table.item_position[neighbor]
        self._neighbor_item_positions = item_positions
        self._neighbor_is_item = Tensor(is_item[..., None])
        self._static_neighbor_states = Tensor(
            self._static_entities[table.neighbor_entities] * (1.0 - is_item[..., None]))
        self._relation_states = Tensor(self._static_relations[table.neighbor_relations])
        self._purchase_state = Tensor(
            self._static_relations[relation_index(Relation.PURCHASE)])

    # ------------------------------------------------------------------ #
    def forward(self) -> Tensor:
        """Return the refined item representation matrix ``(num_items, dim)``."""
        table = self.table
        item_states = self.item_embeddings

        if self.config.use_ggnn:
            for propagation, gating in zip(self.propagation_layers, self.gating_layers):
                neighbor_states = self._neighbor_states(item_states)
                message = propagation(item_states, neighbor_states, self._relation_states,
                                      self._purchase_state, table.neighbor_mask,
                                      table.neighbor_is_outgoing)
                item_states = gating(message, item_states)

        if self.config.use_category_attention and self.config.num_category_layers > 0:
            category_context = self._category_context(item_states)
            item_states = item_states + self.config.delta * category_context   # Eq. 11
        return item_states

    def _neighbor_states(self, item_states: Tensor) -> Tensor:
        """Neighbour representations: current item states for item neighbours,
        static TransE vectors for attributes."""
        gathered_items = item_states.index_select(
            self._neighbor_item_positions.reshape(-1)
        ).reshape(self.table.num_items, self.table.max_neighbors, self.config.embedding_dim)
        return gathered_items * self._neighbor_is_item + self._static_neighbor_states

    def _category_context(self, item_states: Tensor) -> Tensor:
        """Stacked category attention hops (Eq. 8-10)."""
        table = self.table
        context = item_states
        category_states = self.category_table.index_select(
            table.category_ids.reshape(-1)
        ).reshape(table.num_items, table.max_categories, self.config.embedding_dim)
        for layer in self.category_layers:
            context = layer(context, category_states, table.category_mask)
        return context

    # ------------------------------------------------------------------ #
    def export_representations(self) -> Representations:
        """Freeze current outputs into numpy tables for the RL stage."""
        item_matrix = self.forward().data
        entity = np.array(self._static_entities, copy=True)
        entity[self.table.item_ids] = item_matrix
        return Representations(
            entity=entity,
            relation=np.array(self._static_relations, copy=True),
            category=np.array(self.category_table.data, copy=True),
        )

    def static_representations(self) -> Representations:
        """TransE-only representations (used by the ``w/o CGGNN`` ablation)."""
        return Representations(
            entity=np.array(self._static_entities, copy=True),
            relation=np.array(self._static_relations, copy=True),
            category=np.array(self._static_categories, copy=True),
        )

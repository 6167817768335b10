"""Category-aware graph attention network (CGAN, Eq. 8-10).

Items attend over their neighbouring item-categories: the aggregation
coefficient is a LeakyReLU of a linear map over the concatenated item/category
representations (Eq. 8), normalised with a masked softmax (Eq. 9), and the
category context ``h_v^c`` is the attention-weighted sum of category vectors
(Eq. 10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..nn.init import ensure_rng

_MASK_FILL = -1e9


class CategoryAttentionLayer(nn.Module):
    """One attention hop from an item to its neighbouring categories."""

    def __init__(self, embedding_dim: int, negative_slope: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.negative_slope = negative_slope
        self.score_transform = nn.Linear(2 * embedding_dim, 1, rng=rng)

    def forward(self, item_states: Tensor, category_states: Tensor,
                category_mask: np.ndarray) -> Tensor:
        """Return the category context vector ``h_v^c`` for every item.

        ``item_states`` (I, d); ``category_states`` (I, C, d);
        ``category_mask`` (I, C).  Output (I, d).
        """
        num_items, max_categories, dim = category_states.shape
        item_tiled = item_states.reshape(num_items, 1, dim).broadcast_to(
            (num_items, max_categories, dim))

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

"""Adaptive propagation layer of the GGNN (Eq. 1-3).

For every item ``v_i`` and neighbour ``(r, e_j)`` the layer

1. forms the triplet representation ``t = σ(W1 [h_vi ⊕ h_ej ⊕ h_r ⊕ h_rp])``
   where ``h_rp`` is the embedding of the *purchase* relation, injected so the
   attention can judge how relevant a neighbour is to shopping behaviour;
2. computes the scalar attention ``α = σ(W2 t + b)``;
3. aggregates ``n_vi = Σ_out α · W_out (h_ej ∘ h_r) + Σ_in α · W_in (h_ej ∘ h_r)``.

Eq. 1 is computed blockwise: ``W1`` is four stacked ``d × d`` row blocks, one
per concatenated part, so ``W1 [a ⊕ b ⊕ c ⊕ p] = W1_a a + W1_b b + W1_c c + W1_p p``.
The item block is applied once per item and the purchase block once, then both
are broadcast over the neighbours; the ``(I, N, 4d)`` concatenation is never
built.  The weight stays a single ``Linear(4d, d)``, so initialisation and
``state_dict`` keys are those of the concatenated form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import Tensor
from ..nn import functional as F
from ..nn.init import ensure_rng


class AdaptivePropagationLayer(nn.Module):
    """One message-passing step over padded item neighbourhoods."""

    def __init__(self, embedding_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        rng = ensure_rng(rng)
        self.embedding_dim = embedding_dim
        self.triplet_transform = nn.Linear(4 * embedding_dim, embedding_dim, rng=rng)
        self.attention = nn.Linear(embedding_dim, 1, rng=rng)
        self.transform_out = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)
        self.transform_in = nn.Linear(embedding_dim, embedding_dim, bias=False, rng=rng)

    def forward(self, item_states: Tensor, neighbor_states: Tensor,
                relation_states: Tensor, purchase_state: Tensor,
                neighbor_mask: np.ndarray, neighbor_is_outgoing: np.ndarray) -> Tensor:
        """Return the aggregated neighbourhood message ``n_vi`` for every item.

        Shapes: ``item_states`` (I, d); ``neighbor_states`` and
        ``relation_states`` (I, N, d); ``purchase_state`` (d,);
        masks (I, N).  Output (I, d).
        """
        num_items, _, dim = neighbor_states.shape
        weight = self.triplet_transform.weight
        item_block, neighbor_block, relation_block, purchase_block = (
            weight[i * dim:(i + 1) * dim] for i in range(4))

        # Eq. 1, blockwise: the item and purchase terms do not vary over the
        # neighbour axis, so they are computed once and broadcast.
        item_term = (item_states @ item_block).reshape(num_items, 1, dim)
        shared_term = purchase_state @ purchase_block + self.triplet_transform.bias
        triplet_logits = (item_term + neighbor_states @ neighbor_block
                          + relation_states @ relation_block + shared_term)
        triplet_repr = F.sigmoid(triplet_logits)                              # Eq. 1
        attention = F.sigmoid(self.attention(triplet_repr))                   # Eq. 2 (I, N, 1)

        mask = Tensor(neighbor_mask[..., None])
        outgoing = Tensor(neighbor_is_outgoing[..., None])
        incoming = Tensor((1.0 - neighbor_is_outgoing)[..., None])

        interaction = neighbor_states * relation_states                       # h_ej ∘ h_r
        message_out = self.transform_out(interaction) * outgoing
        message_in = self.transform_in(interaction) * incoming
        weighted = attention * mask * (message_out + message_in)              # Eq. 3
        return weighted.sum(axis=1)

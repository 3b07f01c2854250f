"""Spiking self-attention and transformer blocks (Spikformer / SDT style).

Spikformer's Spiking Self-Attention (SSA) differs from standard attention
in two ways that matter to an accelerator: queries, keys and values are
*binary spike* tensors (produced by LIF neurons after linear projections),
and there is no softmax — the attention map is the plain product
``Q_s @ K_s^T`` scaled by a constant.  Consequently every large matrix
multiplication in the block consumes a binary activation matrix, which is
exactly what Phi sparsity exploits.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, LIFLayer, Linear
from .surrogate import ArctanSurrogate


class SpikingSelfAttention(Layer):
    """Single spiking self-attention block operating on token sequences.

    Parameters
    ----------
    embed_dim:
        Token embedding width.
    num_heads:
        Number of attention heads (must divide ``embed_dim``).
    scale:
        Constant scaling of the attention product (Spikformer uses 0.125).
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int = 1,
        *,
        scale: float = 0.125,
        name: str = "ssa",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if embed_dim % num_heads:
            raise ValueError("embed_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.scale = scale
        self.q_proj = Linear(embed_dim, embed_dim, name=f"{name}.q", rng=rng)
        self.k_proj = Linear(embed_dim, embed_dim, name=f"{name}.k", rng=rng)
        self.v_proj = Linear(embed_dim, embed_dim, name=f"{name}.v", rng=rng)
        self.out_proj = Linear(embed_dim, embed_dim, name=f"{name}.out", rng=rng)
        self.q_lif = LIFLayer(name=f"{name}.q_lif", surrogate=ArctanSurrogate())
        self.k_lif = LIFLayer(name=f"{name}.k_lif", surrogate=ArctanSurrogate())
        self.v_lif = LIFLayer(name=f"{name}.v_lif", surrogate=ArctanSurrogate())
        self.out_lif = LIFLayer(name=f"{name}.out_lif", surrogate=ArctanSurrogate())
        self._cache: dict[str, np.ndarray] | None = None
        self._last_tokens: int | None = None

    # ------------------------------------------------------------------ #
    def children(self) -> list[Layer]:
        """Sub-layers of the block (used for recursive traversal)."""
        return [
            self.q_proj,
            self.q_lif,
            self.k_proj,
            self.k_lif,
            self.v_proj,
            self.v_lif,
            self.out_proj,
            self.out_lif,
        ]

    def _split_heads(self, x: np.ndarray, batch: int, tokens: int) -> np.ndarray:
        return x.reshape(batch, tokens, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    def _merge_heads(self, x: np.ndarray, batch: int, tokens: int) -> np.ndarray:
        return x.transpose(0, 2, 1, 3).reshape(batch, tokens, self.embed_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Process one time step of a ``(B, T_tok, D)`` spike tensor."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"SSA expects (batch, tokens, dim) input, got {x.shape}")
        batch, tokens, _ = x.shape
        self._last_tokens = tokens
        flat = x.reshape(batch * tokens, self.embed_dim)

        q = self.q_lif.forward(self.q_proj.forward(flat))
        k = self.k_lif.forward(self.k_proj.forward(flat))
        v = self.v_lif.forward(self.v_proj.forward(flat))

        q_h = self._split_heads(q.reshape(batch, tokens, -1), batch, tokens)
        k_h = self._split_heads(k.reshape(batch, tokens, -1), batch, tokens)
        v_h = self._split_heads(v.reshape(batch, tokens, -1), batch, tokens)

        attn = np.einsum("bhtd,bhsd->bhts", q_h, k_h)
        context = np.einsum("bhts,bhsd->bhtd", attn, v_h) * self.scale
        merged = self._merge_heads(context, batch, tokens)

        out = self.out_lif.forward(
            self.out_proj.forward(merged.reshape(batch * tokens, self.embed_dim))
        )
        self._cache = {
            "q_h": q_h,
            "k_h": k_h,
            "v_h": v_h,
            "attn": attn,
            "batch": batch,
        }
        return out.reshape(batch, tokens, self.embed_dim)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        batch = cache["batch"]
        tokens = self._last_tokens
        grad_output = np.asarray(grad_output, dtype=np.float64)

        grad_out_flat = grad_output.reshape(batch * tokens, self.embed_dim)
        grad_merged_flat = self.out_proj.backward(self.out_lif.backward(grad_out_flat))
        grad_context = self._split_heads(
            grad_merged_flat.reshape(batch, tokens, self.embed_dim), batch, tokens
        ) * self.scale

        grad_attn = np.einsum("bhtd,bhsd->bhts", grad_context, cache["v_h"])
        grad_v_h = np.einsum("bhts,bhtd->bhsd", cache["attn"], grad_context)
        grad_q_h = np.einsum("bhts,bhsd->bhtd", grad_attn, cache["k_h"])
        grad_k_h = np.einsum("bhts,bhtd->bhsd", grad_attn, cache["q_h"])

        grad_q = self._merge_heads(grad_q_h, batch, tokens).reshape(
            batch * tokens, self.embed_dim
        )
        grad_k = self._merge_heads(grad_k_h, batch, tokens).reshape(
            batch * tokens, self.embed_dim
        )
        grad_v = self._merge_heads(grad_v_h, batch, tokens).reshape(
            batch * tokens, self.embed_dim
        )

        grad_in = self.q_proj.backward(self.q_lif.backward(grad_q))
        grad_in += self.k_proj.backward(self.k_lif.backward(grad_k))
        grad_in += self.v_proj.backward(self.v_lif.backward(grad_v))
        return grad_in.reshape(batch, tokens, self.embed_dim)


class SpikingMLP(Layer):
    """Two-layer spiking MLP used inside transformer blocks."""

    def __init__(
        self,
        embed_dim: int,
        hidden_dim: int | None = None,
        *,
        name: str = "mlp",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        hidden_dim = hidden_dim or embed_dim * 2
        self.fc1 = Linear(embed_dim, hidden_dim, name=f"{name}.fc1", rng=rng)
        self.lif1 = LIFLayer(name=f"{name}.lif1", surrogate=ArctanSurrogate())
        self.fc2 = Linear(hidden_dim, embed_dim, name=f"{name}.fc2", rng=rng)
        self.lif2 = LIFLayer(name=f"{name}.lif2", surrogate=ArctanSurrogate())
        self.embed_dim = embed_dim
        self._last_shape: tuple[int, ...] | None = None

    def children(self) -> list[Layer]:
        return [self.fc1, self.lif1, self.fc2, self.lif2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._last_shape = x.shape
        flat = x.reshape(-1, self.embed_dim)
        hidden = self.lif1.forward(self.fc1.forward(flat))
        out = self.lif2.forward(self.fc2.forward(hidden))
        return out.reshape(x.shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64).reshape(-1, self.embed_dim)
        grad = self.fc2.backward(self.lif2.backward(grad))
        grad = self.fc1.backward(self.lif1.backward(grad))
        return grad.reshape(self._last_shape)


class SpikingTransformerBlock(Layer):
    """SSA + spiking MLP with residual connections (one encoder block)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int = 1,
        *,
        mlp_ratio: float = 2.0,
        name: str = "block",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.attention = SpikingSelfAttention(
            embed_dim, num_heads, name=f"{name}.attn", rng=rng
        )
        self.mlp = SpikingMLP(
            embed_dim, int(embed_dim * mlp_ratio), name=f"{name}.mlp", rng=rng
        )

    def children(self) -> list[Layer]:
        return [self.attention, self.mlp]

    def forward(self, x: np.ndarray) -> np.ndarray:
        attn_out = self.attention.forward(x)
        residual = x + attn_out
        mlp_out = self.mlp.forward(residual)
        return residual + mlp_out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_residual = grad_output + self.mlp.backward(grad_output)
        return grad_residual + self.attention.backward(grad_residual)

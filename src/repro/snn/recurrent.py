"""Recurrent spiking layers: leaky state carried across time steps.

The paper's zoo is feed-forward; this module adds the recurrent workload
family (ROADMAP item 3).  A :class:`RecurrentSpikingCell` combines an
input projection with a *recurrent* projection whose GEMM input is the
cell's own spike output from the previous time step.  Because both
projections are ordinary :class:`~repro.snn.layers.Linear` layers, the
existing activation-recording machinery captures one binary ``(B, K)``
matrix per time step for each — exactly the per-timestep spike matrices
the temporal workload builder unrolls into
:class:`~repro.workloads.workload.LayerWorkload` GEMMs.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, LIFLayer, Linear


class RecurrentSpikingCell(Layer):
    """A leaky recurrent spiking cell.

    At every time step the cell computes::

        current_t = W_in @ x_t + W_rec @ s_{t-1}
        s_t       = LIF(current_t)

    where ``s_{t-1}`` is the cell's own binary spike output from the
    previous step (a zero matrix on the first step).  The recurrent
    projection therefore always consumes a *binary* matrix, so its
    recorded GEMM is a spike workload Phi can decompose — the temporal
    sparsity structure feed-forward models never produce.

    The backward pass is one-step truncated BPTT: gradients accumulate
    into both projections' weights, but the gradient flowing to the
    previous step's hidden state is dropped.

    Parameters
    ----------
    in_features, hidden_features:
        Input width and recurrent state width.
    threshold, tau:
        LIF firing threshold and membrane time constant.
    rng:
        Generator for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        *,
        threshold: float = 1.0,
        tau: float = 2.0,
        name: str = "rnn_cell",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if hidden_features < 1:
            raise ValueError("hidden_features must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.hidden_features = hidden_features
        self.input_proj = Linear(
            in_features, hidden_features, name=f"{name}.input", rng=rng
        )
        self.recurrent_proj = Linear(
            hidden_features, hidden_features, bias=False,
            name=f"{name}.recurrent", rng=rng,
        )
        self.lif = LIFLayer(name=f"{name}.lif", threshold=threshold, tau=tau)
        self._hidden: np.ndarray | None = None

    def children(self) -> list[Layer]:
        """Constituent layers (descended into by :func:`iter_layers`)."""
        return [self.input_proj, self.recurrent_proj, self.lif]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        batch = x.shape[0]
        if self._hidden is None or self._hidden.shape[0] != batch:
            self._hidden = np.zeros((batch, self.hidden_features))
        current = self.input_proj.forward(x)
        # The recurrent projection runs on *every* step (a zero matrix on
        # step 0) so its recorded GEMM input exists for each time step.
        current = current + self.recurrent_proj.forward(self._hidden)
        spikes = self.lif.forward(current)
        self._hidden = spikes
        return spikes

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.lif.backward(np.asarray(grad_output, dtype=np.float64))
        # Truncated BPTT: accumulate recurrent weight gradients but drop
        # the gradient flowing to the previous step's spikes.
        self.recurrent_proj.backward(grad)
        return self.input_proj.backward(grad)

    def reset_state(self) -> None:
        super().reset_state()
        self._hidden = None

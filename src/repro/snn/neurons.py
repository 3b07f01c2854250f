"""Spiking neuron models (LIF and IF).

The paper's evaluation uses the Leaky-Integrate-and-Fire (LIF) neuron: at
each time step the membrane potential integrates the synaptic input, leaks
towards its resting value, and emits a binary spike (followed by a reset)
whenever it crosses the firing threshold.  The neurons here operate on
arbitrary-shaped NumPy tensors so the same implementation backs linear,
convolutional and attention layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surrogate import SigmoidSurrogate, SurrogateFn, heaviside


@dataclass
class LIFNeuron:
    """Leaky-Integrate-and-Fire neuron operating on tensors.

    Parameters
    ----------
    threshold:
        Firing threshold ``V_th``.
    tau:
        Membrane time constant; the leak factor is ``1 - 1/tau``.
    reset_mode:
        ``"hard"`` resets the membrane to 0 after a spike, ``"soft"``
        subtracts the threshold (keeps residual charge).
    surrogate:
        Surrogate gradient used during training.
    """

    threshold: float = 1.0
    tau: float = 2.0
    reset_mode: str = "hard"
    surrogate: SurrogateFn = field(default_factory=SigmoidSurrogate)

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")
        if self.reset_mode not in ("hard", "soft"):
            raise ValueError("reset_mode must be 'hard' or 'soft'")
        self._membrane: np.ndarray | None = None
        self._last_pre_reset: np.ndarray | None = None

    @property
    def leak(self) -> float:
        """Multiplicative membrane decay applied each step."""
        return 1.0 - 1.0 / self.tau

    @property
    def membrane(self) -> np.ndarray | None:
        """Current membrane potential (None before the first step)."""
        return self._membrane

    def reset_state(self) -> None:
        """Clear the membrane state (call between input samples)."""
        self._membrane = None
        self._last_pre_reset = None

    def step(self, current: np.ndarray) -> np.ndarray:
        """Advance one time step and return the emitted binary spikes."""
        current = np.asarray(current, dtype=np.float64)
        if self._membrane is None or self._membrane.shape != current.shape:
            self._membrane = np.zeros_like(current)

        self._membrane = self.leak * self._membrane + current
        self._last_pre_reset = self._membrane.copy()
        spikes = heaviside(self._membrane - self.threshold)

        if self.reset_mode == "hard":
            self._membrane = np.where(spikes > 0, 0.0, self._membrane)
        else:
            self._membrane = self._membrane - spikes * self.threshold
        return spikes

    def surrogate_grad(self) -> np.ndarray:
        """Surrogate derivative d(spike)/d(membrane) at the last step."""
        if self._last_pre_reset is None:
            raise RuntimeError("surrogate_grad called before any step")
        return self.surrogate(self._last_pre_reset - self.threshold)

    def run(self, currents: np.ndarray) -> np.ndarray:
        """Run the neuron over a ``(T, ...)`` input and return spike trains."""
        currents = np.asarray(currents, dtype=np.float64)
        self.reset_state()
        spikes = np.zeros_like(currents)
        for t in range(currents.shape[0]):
            spikes[t] = self.step(currents[t])
        return spikes


@dataclass
class IFNeuron(LIFNeuron):
    """Integrate-and-Fire neuron (no leak); a LIF with infinite tau."""

    tau: float = float("inf")

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.reset_mode not in ("hard", "soft"):
            raise ValueError("reset_mode must be 'hard' or 'soft'")
        self._membrane = None
        self._last_pre_reset = None

    @property
    def leak(self) -> float:
        """IF neurons do not leak."""
        return 1.0


@dataclass
class FewSpikesNeuron:
    """Few-Spikes (FS) neuron used by the Stellar baseline.

    The FS neuron (Stöckl & Maass, 2021) encodes an analog value with at
    most ``num_steps`` spikes using exponentially decaying output weights.
    Stellar relies on it to raise activation sparsity; we provide it so the
    Stellar baseline model operates on comparable spike trains.
    """

    num_steps: int = 4
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode analog values into a ``(num_steps, ...)`` spike train."""
        values = np.asarray(values, dtype=np.float64)
        spikes = np.zeros((self.num_steps,) + values.shape, dtype=np.float64)
        residual = np.clip(values, 0.0, None).copy()
        for t in range(self.num_steps):
            weight = self.threshold * (2.0 ** -(t + 1)) * 2.0
            fire = residual >= weight
            spikes[t] = fire.astype(np.float64)
            residual = residual - fire * weight
        return spikes

    def decode(self, spikes: np.ndarray) -> np.ndarray:
        """Reconstruct the analog value from a spike train."""
        spikes = np.asarray(spikes, dtype=np.float64)
        if spikes.shape[0] != self.num_steps:
            raise ValueError(
                f"expected {self.num_steps} time steps, got {spikes.shape[0]}"
            )
        weights = np.array(
            [self.threshold * (2.0 ** -(t + 1)) * 2.0 for t in range(self.num_steps)]
        )
        return np.tensordot(weights, spikes, axes=(0, 0))

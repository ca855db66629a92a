"""A small dense state-vector simulator for register-level unit checks.

The distributed algorithms themselves are simulated with the structured
branch representation of :mod:`repro.qcongest.branch_state` (which scales to
hundreds of network nodes); the dense simulator here exists to validate the
register-level building blocks the paper relies on -- in particular the
*CNOT copy* of Section 2 (``|u>|v> -> |u>|u xor v>``), which is how the
Setup procedure of Proposition 2 broadcasts the internal register over the
network, and the phase/diffusion steps of amplitude amplification on tiny
instances.

numpy is imported when a state is built, not when this module is
imported, so ``import repro.quantum`` works on a stdlib-only install.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Sequence, Tuple

from repro._numpy import require_numpy

if TYPE_CHECKING:
    import numpy as np

_FEATURE = "the dense state-vector simulator"


class StateVector:
    """A dense state vector over ``num_qubits`` qubits.

    Qubit 0 is the most significant bit of the basis-state index, so the
    basis label of index ``i`` is the ``num_qubits``-bit binary expansion of
    ``i`` read left to right.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits < 1:
            raise ValueError(f"need at least one qubit, got {num_qubits}")
        if num_qubits > 20:
            raise ValueError(
                "the dense simulator is meant for register-level unit checks; "
                f"{num_qubits} qubits would allocate 2^{num_qubits} amplitudes"
            )
        np = require_numpy(_FEATURE)
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(2 ** num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0

    # ------------------------------------------------------------------
    @classmethod
    def from_basis_state(cls, bits: Sequence[int]) -> "StateVector":
        """A computational-basis state given by a bit sequence."""
        state = cls(len(bits))
        state.amplitudes[0] = 0.0
        state.amplitudes[_bits_to_index(bits)] = 1.0
        return state

    @classmethod
    def uniform_superposition(cls, num_qubits: int) -> "StateVector":
        """The uniform superposition over all basis states."""
        state = cls(num_qubits)
        state.amplitudes[:] = 1.0 / math.sqrt(2 ** num_qubits)
        return state

    def copy(self) -> "StateVector":
        """An independent copy."""
        other = StateVector(self.num_qubits)
        other.amplitudes = self.amplitudes.copy()
        return other

    # ------------------------------------------------------------------
    def probability_of(self, bits: Sequence[int]) -> float:
        """Probability of measuring the given basis state."""
        return float(abs(self.amplitudes[_bits_to_index(bits)]) ** 2)

    def probabilities(self) -> Dict[Tuple[int, ...], float]:
        """Mapping from basis labels to measurement probabilities (> 1e-12)."""
        result: Dict[Tuple[int, ...], float] = {}
        for index, amplitude in enumerate(self.amplitudes):
            probability = float(abs(amplitude) ** 2)
            if probability > 1e-12:
                result[_index_to_bits(index, self.num_qubits)] = probability
        return result

    def is_normalised(self, tolerance: float = 1e-9) -> bool:
        """Whether the squared amplitudes sum to 1."""
        np = require_numpy(_FEATURE)
        return abs(float(np.sum(np.abs(self.amplitudes) ** 2)) - 1.0) < tolerance

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def apply_hadamard(self, qubit: int) -> None:
        """Apply a Hadamard gate to ``qubit``."""
        np = require_numpy(_FEATURE)
        self._apply_single_qubit(
            qubit,
            np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2),
        )

    def apply_x(self, qubit: int) -> None:
        """Apply a Pauli-X (NOT) gate to ``qubit``."""
        np = require_numpy(_FEATURE)
        self._apply_single_qubit(
            qubit, np.array([[0, 1], [1, 0]], dtype=np.complex128)
        )

    def apply_z(self, qubit: int) -> None:
        """Apply a Pauli-Z gate to ``qubit``."""
        np = require_numpy(_FEATURE)
        self._apply_single_qubit(
            qubit, np.array([[1, 0], [0, -1]], dtype=np.complex128)
        )

    def apply_cnot(self, control: int, target: int) -> None:
        """Apply a controlled-NOT gate."""
        if control == target:
            raise ValueError("control and target must differ")
        self._check_qubit(control)
        self._check_qubit(target)
        new_amplitudes = self.amplitudes.copy()
        for index in range(len(self.amplitudes)):
            if _bit_of(index, control, self.num_qubits) == 1:
                flipped = index ^ (1 << (self.num_qubits - 1 - target))
                new_amplitudes[flipped] = self.amplitudes[index]
        self.amplitudes = new_amplitudes

    def apply_phase_oracle(self, predicate: Callable[[Tuple[int, ...]], bool]) -> None:
        """Flip the sign of every basis state satisfying ``predicate``."""
        for index in range(len(self.amplitudes)):
            if predicate(_index_to_bits(index, self.num_qubits)):
                self.amplitudes[index] *= -1

    def apply_diffusion(self) -> None:
        """Reflect about the uniform superposition (the Grover diffusion)."""
        np = require_numpy(_FEATURE)
        mean = np.mean(self.amplitudes)
        self.amplitudes = 2 * mean - self.amplitudes

    # ------------------------------------------------------------------
    def measure(self, rng) -> Tuple[int, ...]:
        """Sample a basis state according to the Born rule."""
        np = require_numpy(_FEATURE)
        probabilities = np.abs(self.amplitudes) ** 2
        probabilities = probabilities / probabilities.sum()
        index = rng.choices(range(len(self.amplitudes)), weights=probabilities)[0]
        return _index_to_bits(index, self.num_qubits)

    # ------------------------------------------------------------------
    def _apply_single_qubit(self, qubit: int, matrix: np.ndarray) -> None:
        self._check_qubit(qubit)
        shift = self.num_qubits - 1 - qubit
        mask = 1 << shift
        amplitudes = self.amplitudes
        new_amplitudes = amplitudes.copy()
        for index in range(len(amplitudes)):
            if index & mask:
                continue
            zero_index, one_index = index, index | mask
            a0, a1 = amplitudes[zero_index], amplitudes[one_index]
            new_amplitudes[zero_index] = matrix[0, 0] * a0 + matrix[0, 1] * a1
            new_amplitudes[one_index] = matrix[1, 0] * a0 + matrix[1, 1] * a1
        self.amplitudes = new_amplitudes

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(
                f"qubit index {qubit} out of range for {self.num_qubits} qubits"
            )


def cnot_copy_register(state: StateVector, source: Sequence[int], target: Sequence[int]) -> None:
    """Apply the CNOT-copy operation ``|u>|v> -> |u>|u xor v>``.

    ``source`` and ``target`` are equal-length lists of qubit indices.  This
    is the operation the paper uses to "classically copy" the content of the
    internal register into a neighbour's register during Setup
    (Proposition 2); on a basis state it duplicates the source bits, and on
    a superposition it entangles the target with the source (no cloning).
    """
    if len(source) != len(target):
        raise ValueError("source and target registers must have the same size")
    if set(source) & set(target):
        raise ValueError("source and target registers must be disjoint")
    for control, controlled in zip(source, target):
        state.apply_cnot(control, controlled)


def _bits_to_index(bits: Sequence[int]) -> int:
    index = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit}")
        index = (index << 1) | bit
    return index


def _index_to_bits(index: int, num_qubits: int) -> Tuple[int, ...]:
    return tuple((index >> (num_qubits - 1 - position)) & 1 for position in range(num_qubits))


def _bit_of(index: int, qubit: int, num_qubits: int) -> int:
    return (index >> (num_qubits - 1 - qubit)) & 1

"""The concrete one-qubit PQC family and its shifted product functions.

The single-qubit block rotates |0> by exp(-i*pi*x*H) with
H = cos(phi)*X + sin(phi)*Z and measures Z.  With phi = arcsin(1/sqrt(3))
the Z expectation is the degree-1 trigonometric polynomial
h(x) = 1/3 + (2/3)cos(2*pi*x), which is 1 at x=0 and 0 at x=1/3, 2/3.
Tensoring n such blocks yields f_0(x) = prod_j h(x_j); the hidden family
member is f_a(x) = f_0(x - a) for a on the 1/3-grid.

A small statevector simulator validates the analytic formulas
independently: it builds the 2**n amplitudes of the product of closed-form
one-qubit unitaries on |0...0>, one gate column at a time and for many
points at once, and measures Z on every qubit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .torus import GridShift, TorusPoint, wrap01, wrap01_array

PHI = math.asin(1.0 / math.sqrt(3.0))  # rotation-axis angle, in ]0, pi/4[

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HAMILTONIAN = math.cos(PHI) * PAULI_X + math.sin(PHI) * PAULI_Z  # eigenvalues +-1

TENSOR_SIM_CAP = 10  # statevector has 2**n amplitudes


def h_eval(t: float) -> float:
    """One-qubit expectation value: 1/3 + (2/3)cos(2*pi*t), range [-1/3, 1]."""
    return 1.0 / 3.0 + (2.0 / 3.0) * math.cos(2.0 * math.pi * t)


def h_eval_array(t: np.ndarray) -> np.ndarray:
    return 1.0 / 3.0 + (2.0 / 3.0) * np.cos(2.0 * np.pi * np.asarray(t))


@dataclass(frozen=True)
class ShiftedProductFunction:
    """f_a(x) = prod_j h(x_j - a_j); maximum value 1, attained at x = a."""

    n: int
    shift: GridShift

    def __post_init__(self):
        if self.n < 1 or self.shift.n != self.n:
            raise ValueError("shift dimension must equal n >= 1")

    def __call__(self, x: TorusPoint) -> float:
        if len(x) != self.n:
            raise ValueError(f"dimension mismatch: expected {self.n}, got {len(x)}")
        out = 1.0
        # wrap before h so that f_a(x) == f_0(x - a) holds exactly
        for c, t in zip(x.coords, self.shift.trits):
            out *= h_eval(wrap01(c - t / 3.0))
        return out

    def eval_array(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points; `points` has shape (..., n)."""
        return shifted_product_rows(points, self.shift.trits)

    @property
    def max_value(self) -> float:
        return 1.0

    def argmax(self) -> TorusPoint:
        return self.shift.to_point()


def shifted_product_rows(points: np.ndarray, trits: np.ndarray | tuple[int, ...]) -> np.ndarray:
    """f_a(x) for each point x of `points`, shape (..., n); `trits` has shape
    (n,) (one shift a) or holds one row a per point.  The plain product: the
    float operations of ShiftedProductFunction.__call__, in its order, so for
    points in [0, 1) every value equals f_a(TorusPoint(x)) to the bit."""
    d = wrap01_array(np.asarray(points, dtype=np.float64) - np.asarray(trits) / 3.0)
    out = h_eval_array(d[..., 0])  # 1.0 * h_0 == h_0
    for j in range(1, d.shape[-1]):
        out *= h_eval_array(d[..., j])
    return out


def single_qubit_unitary(t: float) -> np.ndarray:
    """exp(-i*pi*t*H) in closed form: cos(pi t) I - i sin(pi t) H."""
    return math.cos(math.pi * t) * np.eye(2, dtype=complex) - 1j * math.sin(
        math.pi * t
    ) * HAMILTONIAN


def single_qubit_sim(x: float) -> float:
    """Z expectation of exp(-i*pi*x*H)|0>, by explicit statevector."""
    psi = single_qubit_unitary(x)[:, 0]
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def tensor_sim(f: ShiftedProductFunction, x: TorusPoint) -> float:
    """Full 2**n statevector evaluation of f at x; cross-checks eval_array.

    One row of tensor_sim_rows: the product state is built column by column,
    as each gate meets its qubit in |0>, so its second column would multiply
    only exact zeros; then Z is measured on every qubit.
    """
    if len(x) != f.n:
        raise ValueError(f"dimension mismatch: expected {f.n}, got {len(x)}")
    return float(tensor_sim_rows(np.array([x.coords]), np.array([f.shift.trits]))[0])


def tensor_sim_rows(points: np.ndarray, trits: np.ndarray) -> np.ndarray:
    """Z-parity expectation of prod_j U_j|0...0> on 2**n amplitudes, with
    U_j = single_qubit_unitary(x_j - a_j/3), per row x of the (rows, n)
    points and row a of the (rows, n) trits.

    Qubit j is still |0> when its one gate U_j comes, so the strided 2x2
    product meets exact zeros in U_j's second column: amplitude a*2**j + k
    becomes U_j[a, 0] times amplitude k.  Complex products are taken in real
    form (ar*br - ai*bi, ar*bi + ai*br), einsum's arithmetic to the bit, as
    numpy's complex multiply may fuse them.
    """
    t = np.asarray(points, dtype=np.float64) - np.asarray(trits) / 3.0
    rows, n = t.shape
    if n > TENSOR_SIM_CAP:
        raise ValueError(f"n={n} exceeds statevector cap {TENSOR_SIM_CAP} (2**n amplitudes)")
    # U_j|0> = cos(pi t)(1, 0) - i sin(pi t)(H00, H10), as single_qubit_unitary forms it
    ur = np.cos(np.pi * t)[..., None] * np.array([1.0, 0.0])
    ui = -np.sin(np.pi * t)[..., None] * HAMILTONIAN[:, 0].real
    re, im = ur[:, 0], ui[:, 0]
    for j in range(1, n):
        ar, ai = ur[:, j, :, None], ui[:, j, :, None]
        br, bi = re[:, None, :], im[:, None, :]
        re, im = (ar * br - ai * bi).reshape(rows, -1), (ar * bi + ai * br).reshape(rows, -1)
    state = np.empty((rows, 2**n), dtype=complex)
    state.real, state.imag = re, im
    return np.sum(_z_parity(n) * np.abs(state) ** 2, axis=-1)


@functools.cache
def _z_parity(n: int) -> np.ndarray:
    """Eigenvalue of Z on every qubit, prod_j (-1)^(bit j), per basis state (read-only)."""
    idx = np.arange(2**n)
    parity = np.ones(2**n)
    for j in range(n):
        parity *= 1 - 2 * ((idx >> j) & 1)
    parity.flags.writeable = False
    return parity

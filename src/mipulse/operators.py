"""Dense complex-matrix algebra on the truncated qubit (x) oscillator space.

All operators are plain ``numpy.ndarray`` with complex entries, row-major.
The composite basis ordering is fixed throughout the package: qubit index
slow, motional index fast, i.e. ``|g,0>, |g,1>, ..., |g,M>, |e,0>, ...``.
Matrix exponentials of Hermitian generators are computed by
eigendecomposition, which is exact at these dimensions (at most 2(M+1))
and returns a unitary by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENT_2",
    "FockOperators",
    "build_fock",
    "displacement_coupling",
    "expm_hermitian",
    "tensor",
    "unitarity_defect",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENT_2 = np.eye(2, dtype=complex)

#: Frobenius tolerance below which a matrix is accepted as Hermitian,
#: relative to max(1, ||H||_F).
HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class FockOperators:
    """Ladder operators on the motional space truncated at level ``truncation``.

    ``lower`` annihilates one motional quantum (``lower[m-1, m] = sqrt(m)``),
    ``raise_`` is its adjoint.  Both are ``(M+1) x (M+1)`` dense arrays,
    and so are ``number`` and ``position``, each computed once per instance;
    all four are read-only, since :func:`build_fock` shares one instance
    per truncation.
    """

    truncation: int
    lower: np.ndarray
    raise_: np.ndarray

    @property
    def dim(self) -> int:
        return self.truncation + 1

    @functools.cached_property
    def number(self) -> np.ndarray:
        """Occupation-number operator ``raise_ @ lower`` (diagonal 0..M)."""
        return _read_only(self.raise_ @ self.lower)

    @functools.cached_property
    def position(self) -> np.ndarray:
        """Dimensionless position quadrature ``raise_ + lower``."""
        return _read_only(self.raise_ + self.lower)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def build_fock(truncation: int) -> FockOperators:
    """Ladder operators with ``truncation`` retained excited levels.

    Built once per truncation and shared: the arrays are read-only, so a
    sweep of systems that differ only in their frequencies reuses one
    ladder, and no caller can change what another sees.

    Parameters
    ----------
    truncation : int
        Highest motional level kept (M >= 1).

    Raises
    ------
    ValueError
        If ``truncation`` < 1; no motional dynamics is representable then.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    dim = truncation + 1
    lower = np.zeros((dim, dim), dtype=complex)
    ladder = np.sqrt(np.arange(1, dim, dtype=float))
    lower[np.arange(dim - 1), np.arange(1, dim)] = ladder
    return FockOperators(
        truncation=truncation,
        lower=_read_only(lower),
        raise_=_read_only(lower.conj().T),
    )


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two 2-D arrays with the package's qubit-slow ordering.

    Entry ``(i*rb + j, k*cb + l)`` is ``a[i, k] * b[j, l]``: the same single
    products as ``np.kron``, so the same bits, from one broadcast multiply
    without kron's general-rank reshaping.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of ``U^dag U - I``."""
    dim = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(dim)))


def _require_hermitian(h: np.ndarray) -> None:
    defect = np.linalg.norm(h - h.conj().T)
    scale = max(1.0, float(np.linalg.norm(h)))
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(
            f"generator is not Hermitian: ||H - H^dag||_F = {defect:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e} * max(1, ||H||_F)"
        )


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Unitary ``exp(-i H t)`` for Hermitian ``H`` via eigendecomposition.

    Parameters
    ----------
    h : ndarray
        Hermitian generator; rejected if the Hermiticity defect exceeds
        1e-12 relative to max(1, ||H||_F).
    t : float
        Evolution duration (H carries rad/s, so ``H*t`` is in radians).
    """
    _require_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * vals * t)
    return (vecs * phases) @ vecs.conj().T


def displacement_coupling(eta: float, fock: FockOperators) -> np.ndarray:
    """Momentum-kick operator ``exp(i eta (raise_ + lower))``.

    Unitary up to truncation error; for ``eta <= 0.25`` and M >= 20 the
    unitarity defect stays below 1e-10.
    """
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return expm_hermitian(fock.position, t=-eta)

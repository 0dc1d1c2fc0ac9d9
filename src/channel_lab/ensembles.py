"""Seeded random objects and the default finite test families.

Every generator takes an explicit ``numpy.random.Generator`` so callers own
reproducibility.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DensityOperator,
    KrausChannel,
    Observable,
    PartialIsometry,
    ValidationError,
    dagger,
)


def crandn(shape, rng: np.random.Generator) -> np.ndarray:
    """Complex standard normal samples."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = crandn(dim, rng)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the phases of R's diagonal pulled out."""
    q, r = np.linalg.qr(crandn((dim, dim), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(d_in: int, d_total: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random d_total x d_in isometry."""
    if d_in > d_total:
        raise ValidationError(f"no isometry from dim {d_in} into dim {d_total}")
    return random_unitary(d_total, rng)[:, :d_in]


def random_partial_isometry(dim: int, rank: int, rng: np.random.Generator) -> PartialIsometry:
    """A random dim x dim partial isometry of the given rank."""
    if not 0 < rank <= dim:
        raise ValidationError(f"rank must lie in 1..{dim}, got {rank}")
    x = random_unitary(dim, rng)[:, :rank]
    y = random_unitary(dim, rng)[:, :rank]
    return PartialIsometry(x @ dagger(y))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    g = crandn((dim, rank or dim), rng)
    m = g @ dagger(g)
    return DensityOperator(m / np.trace(m))


def pure_density(vec) -> DensityOperator:
    v = np.asarray(vec, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def random_pure_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    return pure_density(haar_vector(dim, rng))


def random_kraus_channel(
    d_in: int, d_out: int, n_ops: int, rng: np.random.Generator
) -> KrausChannel:
    """A random channel with exactly ``n_ops`` Kraus operators.

    Slices a Haar-random isometry into d_out x d_in blocks, one per
    environment basis vector, so trace preservation is exact by construction.
    """
    if d_out * n_ops < d_in:
        raise ValidationError(
            f"dim {d_out}*{n_ops} environment cannot dilate an input of dim {d_in}"
        )
    v = random_isometry(d_in, d_out * n_ops, rng)
    return KrausChannel(v.reshape(d_out, n_ops, d_in).transpose(1, 0, 2))


def random_observable(dim: int, rng: np.random.Generator) -> Observable:
    return Observable(crandn((dim, dim), rng))


def basis_vector(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


def basis_states(dim: int) -> list[DensityOperator]:
    """The diagonal matrix-unit states |i><i|."""
    return [pure_density(basis_vector(dim, i)) for i in range(dim)]


def matrix_unit_observables(dim: int) -> list[Observable]:
    """All dim^2 matrix units |i><j|, each of unit operator norm, in row-major (i, j) order."""
    return [Observable(m) for m in np.eye(dim * dim).reshape(-1, dim, dim)]


def default_test_states(dim: int, rng: np.random.Generator) -> list[DensityOperator]:
    """Basis states plus four seeded Haar-random pure states."""
    return basis_states(dim) + [random_pure_density(dim, rng) for _ in range(4)]


def default_test_vectors(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Basis vectors plus two seeded Haar-random unit vectors."""
    return [basis_vector(dim, i) for i in range(dim)] + [haar_vector(dim, rng) for _ in range(2)]

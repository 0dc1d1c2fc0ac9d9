"""Seeded random objects, the default finite test families and the probe object.

Every generator takes an explicit ``numpy.random.Generator`` so callers own
reproducibility.

A :class:`Probes` holds the three probe families of a convergence report as
read-only stacks: test states for the strong column, observables and the
vectors they are applied to for the strong* column.  It validates each
family once, as one array; ``sequences.strong_defect`` and
``sequences.strongstar_defect`` validate the lists or stacks they take by the
same rules, through :func:`_states` and :func:`_family`.
:func:`default_probes` draws the default families straight into the stacks;
:func:`default_test_states` and :func:`default_test_vectors` give the same
draws as lists of members, from the same helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    KrausChannel,
    Observable,
    PartialIsometry,
    ValidationError,
    _reject_first,
    _require_states,
    _stack,
    dagger,
)
from .dilation import _kraus_from_rows


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


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """The pure states ``|v><v|`` of the rows v of ``vecs``, each row normalized first."""
    unit = np.array([v / np.linalg.norm(v) for v in vecs])
    return unit[:, :, None] * unit.conj()[:, None, :]


def pure_density(vec) -> DensityOperator:
    return DensityOperator(_projectors(np.asarray(vec, dtype=np.complex128)[None])[0])


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
    return _kraus_from_rows(v, d_out, n_ops)


def random_observable(dim: int, rng: np.random.Generator) -> Observable:
    return Observable(crandn((dim, dim), rng))


def basis_vector(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


def basis_states(dim: int) -> list[DensityOperator]:
    """The diagonal matrix-unit states |i><i|."""
    return [pure_density(basis_vector(dim, i)) for i in range(dim)]


def _matrix_units(dim: int) -> np.ndarray:
    """All dim^2 matrix units |i><j| in row-major (i, j) order, stacked: exactly the identity as a table."""
    return np.eye(dim * dim).reshape(-1, dim, dim)


def _basis_and_haar(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The dim basis vectors, then ``count`` seeded Haar-random unit vectors drawn in turn, as rows."""
    draws = np.array([haar_vector(dim, rng) for _ in range(count)])
    return np.concatenate([np.eye(dim, dtype=np.complex128), draws])


def matrix_unit_observables(dim: int) -> list[Observable]:
    """All dim^2 matrix units |i><j|, each of unit operator norm, in row-major (i, j) order."""
    return [Observable(m) for m in _matrix_units(dim)]


def default_test_states(dim: int, rng: np.random.Generator) -> list[DensityOperator]:
    """Basis states plus four seeded Haar-random pure states."""
    return [DensityOperator(m) for m in _projectors(_basis_and_haar(dim, 4, rng))]


def default_test_vectors(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Basis vectors plus two seeded Haar-random unit vectors."""
    return list(_basis_and_haar(dim, 2, rng))


def _family(members, what: str, ndim: int) -> np.ndarray:
    """A probe family as one read-only complex stack of nonempty ``ndim``-dimensional members.

    ``members`` is such a stack or a sequence of members, each an array or an
    object with a ``matrix``, stacked by ``core._stack``; matrices must be
    square and every entry finite.
    """
    if not isinstance(members, np.ndarray):
        members = [getattr(x, "matrix", x) for x in members]
    stack = _stack(members, what)
    if len(stack) == 0:
        raise ValidationError(f"empty {what} family")
    shape = stack.shape[1:]
    if len(shape) != ndim or 0 in shape or shape[0] != shape[-1]:
        expected = "nonempty square matrices" if ndim == 2 else "nonempty vectors"
        raise ValidationError(f"{what} family has members of shape {shape}, expected {expected}")
    _reject_first(
        ~np.isfinite(stack.reshape(len(stack), -1)).all(axis=1),
        lambda k: f"{what} {k} contains non-finite entries",
    )
    return stack


def _states(members) -> np.ndarray:
    """A test-state family stacked by :func:`_family`, each member checked as a ``DensityOperator`` is."""
    states = _family(members, "test state", 2)
    _require_states(states, lambda k: f"test state {k}")
    return states


@dataclass(frozen=True, eq=False)
class Probes:
    """The probes of a convergence report, each family one read-only complex stack.

    ``states`` (S, d_in, d_in) are the test states of the strong column;
    ``observables`` (O, d_out, d_out) and the ``vectors`` (V, d_in) they are
    applied to are the grid of the strong* column.  Each family is given as
    such a stack or as a sequence of equal-shape members (arrays, or objects
    with a ``matrix`` such as :class:`DensityOperator`), and is validated once,
    as one array: every family must be nonempty and finite, and the states
    must pass the rule a :class:`DensityOperator` passes (Hermitian, no
    eigenvalue below ``-TOL_EIG`` by one batched ``eigvalsh``, trace 1).  A
    rejection names the family and the first member that breaks the rule.
    Which spaces the families act on is checked against a channel by
    ``sequences.convergence_report``.
    """

    states: np.ndarray
    observables: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _states(self.states))
        object.__setattr__(self, "observables", _family(self.observables, "test observable", 2))
        object.__setattr__(self, "vectors", _family(self.vectors, "test vector", 1))


def default_probes(d_in: int, d_out: int, rng: np.random.Generator) -> Probes:
    """The default probes of a channel from d_in to d_out, drawn straight into their stacks.

    The basis states plus four seeded Haar-random pure states, all d_out^2
    matrix units in row-major order, then the basis vectors plus two seeded
    Haar-random unit vectors: bit for bit the members of
    :func:`default_test_states`, :func:`matrix_unit_observables` and
    :func:`default_test_vectors`, with the states drawn before the vectors.
    """
    states = _projectors(_basis_and_haar(d_in, 4, rng))
    return Probes(states, _matrix_units(d_out), _basis_and_haar(d_in, 2, rng))

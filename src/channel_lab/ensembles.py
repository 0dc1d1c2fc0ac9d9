"""Seeded random objects, the default finite test families and the probe object.

Every generator takes an explicit ``numpy.random.Generator`` so callers own
reproducibility.

A probe family is one read-only complex stack: :func:`default_test_states`,
:func:`matrix_unit_observables` and :func:`default_test_vectors` return the
default ones.  A :class:`Probes` holds the three families of a convergence
report: test states for the strong column, observables and the vectors they
are applied to for the strong* column.  It validates each family once, as
one array; ``sequences.strong_defect`` and ``sequences.strongstar_defect``
validate the stacks or sequences of arrays they take by the same rules,
through :func:`_states` and :func:`_family`.  :func:`default_probes` is the
three default families in one ``Probes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    ValidationError,
    _finite,
    _first_failure,
    _frozen,
    _integers,
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
    dim, rank = _integers([dim, rank], "random_partial_isometry: dim and rank")
    if not 0 < rank <= dim:
        raise ValidationError(f"rank must lie in 1..{dim}, got {rank}")
    x = random_unitary(dim, rng)[:, :rank]
    y = random_unitary(dim, rng)[:, :rank]
    return PartialIsometry(x @ dagger(y))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """A random density operator on dim of the given rank, full rank for None.

    ``rank`` must be an integer in 1..dim; it is checked before any draw.
    """
    rank = dim if rank is None else _integers([rank], "random_density: rank")[0]
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in 1..{dim}, got {rank}")
    g = crandn((dim, rank), rng)
    m = g @ dagger(g)
    return DensityOperator(m / np.trace(m))


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """The pure states ``|v><v|`` of the rows v of ``vecs``, each row normalized first.

    The Haar rows of :func:`default_test_states` are unit vectors already, so
    this second division moves only last bits, of about a third of the rows:
    160 to 175 of 200 seeded state families change at d = 2..16.  The
    goldens' bytes depend on those bits, so it stays; new probe families
    should not copy it.
    """
    unit = np.array([v / np.linalg.norm(v) for v in vecs])
    return unit[:, :, None] * unit.conj()[:, None, :]


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


def _basis_and_haar(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The dim basis vectors, then ``count`` seeded Haar-random unit vectors drawn in turn, as rows."""
    draws = np.array([haar_vector(dim, rng) for _ in range(count)])
    return np.concatenate([np.eye(dim, dtype=np.complex128), draws])


def matrix_unit_observables(dim: int) -> np.ndarray:
    """All dim^2 matrix units |i><j| in row-major (i, j) order, as one (dim^2, dim, dim) stack.

    Each has unit operator norm, and the stack is exactly the identity as a table.
    """
    units = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    np.fill_diagonal(units.reshape(dim * dim, -1), 1)
    return _frozen(units)


def default_test_states(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The basis states, then four seeded Haar-random pure states, as one (dim+4, dim, dim) stack."""
    return _frozen(_projectors(_basis_and_haar(dim, 4, rng)))


def default_test_vectors(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The basis vectors, then two seeded Haar-random unit vectors, as one (dim+2, dim) stack."""
    return _frozen(_basis_and_haar(dim, 2, rng))


def _family(members, what: str, ndim: int) -> np.ndarray:
    """A probe family as one read-only complex stack of nonempty ``ndim``-dimensional members.

    ``members`` is such a stack or a sequence of equal-shape arrays, stacked
    by ``core._stack``; matrices must be square and every entry finite.
    """
    stack = _stack(members, what)
    if len(stack) == 0:
        raise ValidationError(f"empty {what} family")
    shape = stack.shape[1:]
    if len(shape) != ndim or 0 in shape or shape[0] != shape[-1]:
        expected = "nonempty square matrices" if ndim == 2 else "nonempty vectors"
        raise ValidationError(f"{what} family has members of shape {shape}, expected {expected}")
    _first_failure([(~_finite(stack), lambda k: f"{what} {k} contains non-finite entries")])
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
    such a stack or as a sequence of equal-shape arrays, and is validated
    once, as one array: every family must be nonempty and finite, and the
    states must pass the rule a :class:`DensityOperator` passes (Hermitian,
    no eigenvalue below ``-TOL_EIG`` by one batched ``eigvalsh``, trace 1).
    A rejection names the family and the first member that breaks the rule.
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
    """The default probes of a channel from d_in to d_out, the states drawn before the vectors.

    :func:`default_test_states` on d_in, :func:`matrix_unit_observables` on
    d_out and :func:`default_test_vectors` on d_in.
    """
    return Probes(default_test_states(d_in, rng), matrix_unit_observables(d_out), default_test_vectors(d_in, rng))

"""Finite-dimensional operator and channel primitives.

Conventions, fixed once and used by every module:

* Composite spaces flatten row-major: basis label (i, k) of X (tensor) Y
  maps to index ``i * dim(Y) + k``, exactly the ``numpy.kron`` layout.
  The first tensor factor is the one kept by ``partial_trace(..., "E")``.
* The operator norm is the largest singular value, the trace norm the sum
  of singular values.
* Eigendecompositions are reproducible: eigenvalues ascending, ties broken
  by lexicographic comparison of eigenvector entries (real part, then
  imaginary part), and every eigenvector's first significant component
  rotated to be real positive.

Tolerances are module-level constants, one name per decision, and no call
overrides them:

* ``TOL_VALID``: an invariant (trace preservation, isometry, projector,
  unitarity, trace one) holds within it in operator norm.
* ``TOL_HERM``: entrywise self-adjointness (Hermitian states, symmetric
  Gaussian covariance and noise matrices).
* ``TOL_EIG``: how far below zero a positive-semidefinite eigenvalue may
  slip (states here, Gaussian validity in :mod:`channel_lab.gaussian`).
* ``STATE_RANK_CUTOFF``: eigenvalues of a state at or below it are dropped
  when the state is written as a sum of pure parts (``_pure_parts``).
* ``PHASE_PIVOT_RTOL``: the first entry of an eigenvector above this
  fraction of its largest modulus is the one rotated real positive.

The other modules keep their own decisions the same way (for example
``dilation.CHOI_RANK_CUTOFF``); the README's "Tolerances" table lists them
all.

Operations assume their inputs passed construction-time validation and are
free to rely on the invariants.  Every invariant held "within ``TOL_VALID``
in operator norm" is judged by one gate, ``_defect_norms``, over a stack of
defects, member by member: a defect is accepted without an SVD when its
Frobenius norm is already within the tolerance, since the operator norm
never exceeds the Frobenius norm; only otherwise is the exact operator norm
computed.  So every verdict is the operator-norm verdict, and a rejection
message prints the exact operator norm.

A stack of operators is checked one batched rule per invariant, and
``_first_failure`` rejects it as a loop over its members would: the first
failing member, at the first check it fails.  A single operator is a stack
of one: ``StinespringIsometry`` and ``UnitaryOp`` check their defect this
way, ``PartialIsometry`` and ``KrausChannel`` apply their rules
(``_partial_isometry_checks``, ``_kraus_checks``) to themselves, as
``DensityOperator`` applies ``_require_states``; a partial-trace form applies
them to a block of its terms, the tracked completion to its family.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Constructor-time invariant checks (trace preservation, isometry, ...).
TOL_VALID = 1e-10
#: Entrywise self-adjointness tolerance.
TOL_HERM = 1e-12
#: How far below zero a positive-semidefinite eigenvalue may slip.
TOL_EIG = 1e-10
#: Eigenvalues of a state at or below this are dropped from its pure parts.
STATE_RANK_CUTOFF = 1e-12
#: An eigenvector entry counts as significant above this fraction of its largest modulus.
PHASE_PIVOT_RTOL = 1e-12


class ValidationError(ValueError):
    """Raised when a value violates its construction-time invariants."""


#: Bools are integers to Python, but never a count, an index or a number here.
_NOT_NUMBERS = (bool, np.bool_)


def _integers(values, what: str) -> tuple:
    """``values`` as a tuple of plain ints; any other value raises "``what`` must be integers".

    Integers of every type count, numpy's included; bools do not.  The sweeps
    check their indices with it before building a term, the report on
    construction, the single defects their index; ``compression_sequence``
    checks its ranks, the Gaussian functions their mode counts, ``z_grid`` its
    point count and ``identity_channel`` its dimension; ``StinespringIsometry``,
    ``UnitaryDilation``, ``pad_environment`` and ``random_partial_isometry``
    check their sizes, the Givens rotations their plane.
    """
    values = tuple(values)
    for n in values:
        # A plain int passes at once: ``term`` checks its index on every call.
        if type(n) is not int and (not isinstance(n, numbers.Integral) or isinstance(n, _NOT_NUMBERS)):
            raise ValidationError(f"{what} must be integers, got {list(values)!r}")
    return tuple(map(int, values))


def _real(x) -> bool:
    """Whether ``x`` is a real number of any type, numpy's included; a bool is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, _NOT_NUMBERS)


def _require_unit_interval(x, what: str, open_low: bool = False) -> None:
    """Check that ``x`` is a real number in [0, 1], or in (0, 1] with ``open_low``.

    A value that is not :func:`_real` raises "``what`` must be a real
    number", a real outside the interval (NaN included) "``what`` must lie
    in [0, 1]" (or "(0, 1]").  The qubit channels check their parameter with
    it, the attenuators their transmissivities.
    """
    if not _real(x):
        raise ValidationError(f"{what} must be a real number, got {x!r}")
    if not ((0.0 < x if open_low else 0.0 <= x) and x <= 1.0):
        raise ValidationError(f"{what} must lie in {'(0' if open_low else '[0'}, 1], got {x}")


def _numeric(m, dtype, what: str) -> np.ndarray:
    """``m`` as a read-only array of ``dtype``, or "``what`` is not numeric: ..." with numpy's reason.

    The one rule for input numpy cannot read as numbers of that type: a
    ragged nested list, a string, an object.  Kraus and probe families, the
    operator dataclasses, ancilla vectors and the Gaussian parameters and
    points all convert here.  Anything else is copied, so a caller's later
    write to their own array never reaches the result; only a plain read-only
    ndarray of ``dtype`` that owns its data, such as a result of this rule or
    of :func:`_frozen`, is used as it is.
    """
    if type(m) is np.ndarray and m.dtype == dtype and not m.flags.writeable and m.base is None:
        return m
    try:
        a = np.array(m, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not numeric: {exc}") from exc
    return _frozen(a)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, an array built here that owns its data, made read-only in place.

    :func:`_numeric` then takes it without a copy: the default probe stacks and
    the compression terms reach ``Probes`` and ``KrausChannel`` this way.
    """
    a.setflags(write=False)
    return a


def _cmat(m, what: str) -> np.ndarray:
    """``m`` as a read-only complex array, by the rule of :func:`_numeric`."""
    return _numeric(m, np.complex128, what)


def _stack(members, what: str) -> np.ndarray:
    """``members`` as one read-only complex stack: an array as it is, or a sequence of equal-shape arrays.

    Only the members of a sequence can disagree in shape; the first one whose
    shape is not member 0's is rejected as "``what`` k has shape X, ``what`` 0
    has Y".  A member numpy cannot read as complex numbers (a ragged nested
    list, a string, an object) is rejected first, as "``what`` family is not
    numeric: ..." with numpy's reason.  Kraus families and probe families
    both stack here.
    """
    if not isinstance(members, np.ndarray):
        members = [_cmat(m, f"{what} family") for m in members]
        for k, m in enumerate(members):
            if m.shape != members[0].shape:
                raise ValidationError(f"{what} {k} has shape {m.shape}, {what} 0 has {members[0].shape}")
    return _cmat(members, f"{what} family")


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} contains non-finite entries")


def _square(m, what: str) -> np.ndarray:
    """``m`` as a read-only complex array, checked to be a finite nonempty square matrix."""
    a = _cmat(m, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError(f"{what} must be square, got shape {a.shape}")
    _require_finite(a, what)
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def opnorm(m: np.ndarray) -> float:
    """Operator norm (largest singular value); of a stack of matrices, the largest one."""
    return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())


def _defect_norms(m: np.ndarray) -> np.ndarray:
    """The operator-norm gate of every invariant check, over a (B, r, c) stack of defects, member by member.

    A member whose Frobenius norm is within ``TOL_VALID`` gets that norm, an
    upper bound on its operator norm, and no SVD; every other member gets its
    exact operator norm, from one batched SVD.  So ``norms > TOL_VALID`` is the
    operator-norm verdict and a rejected member's norm is exact.  A member
    whose Frobenius norm is not finite keeps it: its own or its input's
    entries are not finite, and the SVD would not converge.  A single defect
    is checked as a stack of one.
    """
    flat = m.reshape(len(m), -1).view(np.float64)
    # One BLAS dot per member: einsum took three times as long on one 216^2 defect.
    norms = np.sqrt(flat[:, None] @ flat[:, :, None]).ravel()
    over = norms > TOL_VALID
    if over.any():
        over &= np.isfinite(norms)
        norms[over] = np.linalg.norm(m[over], 2, axis=(1, 2))
    return norms


def _finite(stack: np.ndarray) -> np.ndarray:
    """Whether each member of a stack has only finite entries."""
    return np.isfinite(stack).reshape(len(stack), -1).all(axis=1)


def _first_failure(checks: list) -> None:
    """Reject a stack as a loop over its members would: the first failing member, at its first failing check.

    ``checks`` holds (bad, message) pairs in the order one member is checked:
    ``bad`` flags the failing members, ``message(k)`` words the rejection of
    member k.
    """
    if any(b.any() for b, _ in checks):
        bad = np.array([b for b, _ in checks])
        k = int(np.argmax(bad.any(axis=0)))
        raise ValidationError(checks[int(np.argmax(bad[:, k]))][1](k))


def _partial_isometry_checks(w: np.ndarray) -> tuple[np.ndarray, list]:
    """The initial projectors ``W*W`` of a (B, r, c) stack, and its checks for :func:`_first_failure`.

    In order: W finite, and ``W*W`` a projector (``(W*W)^2 - W*W`` within
    ``TOL_VALID`` in operator norm).  A member that is not finite fails the
    first check, so the arithmetic on its entries raises no warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        w_bar = w.conj()
        p = w_bar.swapaxes(1, 2) @ w
        # A square stack's conjugate is done with once p is formed: the defect reuses it.
        defect = np.matmul(p, p, out=w_bar if w_bar.shape == p.shape else None)
        defect -= p
        proj = _defect_norms(defect)
    return p, [
        (~_finite(w), lambda k: "partial isometry contains non-finite entries"),
        (proj > TOL_VALID, lambda k: f"W*W is not a projector (defect {proj[k]:.3e})"),
    ]


def _kraus_checks(stacks: np.ndarray) -> list:
    """The checks of a (B, K, d_out, d_in) stack of Kraus families, for :func:`_first_failure`.

    In order: finite, and trace preserving (``sum A*A - I`` within
    ``TOL_VALID`` in operator norm).
    """
    flat = stacks.reshape(len(stacks), -1, stacks.shape[-1])
    with np.errstate(invalid="ignore", over="ignore"):
        gram = flat.conj().swapaxes(1, 2) @ flat
        gram -= np.eye(flat.shape[2])
        tp = _defect_norms(gram)
    return [
        (~_finite(stacks), lambda k: "Kraus operator contains non-finite entries"),
        (tp > TOL_VALID, lambda k: f"Kraus family is not trace preserving: ||sum A*A - I|| = {tp[k]:.3e}"),
    ]


def _require_states(m: np.ndarray, name: Callable[[int], str]) -> None:
    """Check that a finite (S, d, d) stack holds states; ``name(k)`` names member k.

    Each rule runs over the whole stack in turn, and a rejection names the
    first member that breaks it: Hermitian within ``TOL_HERM`` entrywise, no
    eigenvalue below ``-TOL_EIG`` (one batched ``eigvalsh``), trace 1 within
    ``TOL_VALID``.  ``DensityOperator`` checks itself as a stack of one.
    """
    herm = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2))
    _first_failure([(herm > TOL_HERM, lambda k: f"{name(k)} is not Hermitian (deviation {herm[k]:.3e})")])
    low = np.linalg.eigvalsh(m)[:, 0]
    _first_failure([(low < -TOL_EIG, lambda k: f"{name(k)} has negative eigenvalue {low[k]:.3e}")])
    tr = np.trace(m, axis1=1, axis2=2)
    _first_failure(
        [(np.abs(tr - 1.0) > TOL_VALID, lambda k: f"{name(k)} has trace {complex(tr[k]):.12g}, expected 1")]
    )


def trace_norm(x: np.ndarray) -> float:
    """Trace norm, the sum of singular values.

    Not the induced 1-norm that ``numpy.linalg.norm(x, 1)`` computes.
    """
    return float(np.linalg.norm(x, "nuc"))


def partial_trace(x: np.ndarray, which: str, d_left: int, d_right: int) -> np.ndarray:
    """Trace out one tensor factor of a matrix on a d_left*d_right space.

    ``which`` names the factor that is traced out: ``"E"`` removes the
    second (right) factor and returns a d_left x d_left matrix with
    entries ``sum_e X[(b, e), (b', e)]``; ``"B"`` removes the first.
    """
    d = d_left * d_right
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (d, d):
        raise ValidationError(
            f"matrix of shape {x.shape} does not live on a {d_left}x{d_right} product space"
        )
    t = x.reshape(d_left, d_right, d_left, d_right)
    if which == "E":
        return np.trace(t, axis1=1, axis2=3)
    if which == "B":
        return np.trace(t, axis1=0, axis2=2)
    raise ValidationError(f"unknown factor {which!r}, expected 'B' or 'E'")


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector, or each column of a matrix, so its first significant entry is real positive.

    Zero columns stay unchanged.  The pivot modulus is ``np.hypot``, since numpy's
    array ``abs`` of complex entries can round differently from scalar ``abs``."""
    cols = v.reshape(len(v), -1)
    mags = np.abs(cols)
    top = mags.max(axis=0, initial=0.0)
    pivot = cols[np.argmax(mags > PHASE_PIVOT_RTOL * top, axis=0), np.arange(cols.shape[1])]
    mod = np.hypot(pivot.real, pivot.imag)
    phase = np.divide(pivot.conj(), mod, out=np.ones_like(pivot), where=mod > 0)
    return (cols * phase).reshape(v.shape)


def ordered_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with a reproducible output convention.

    Eigenvalues ascend; exact ties are ordered lexicographically by the
    phase-fixed eigenvector entries.  Degenerate subspaces still admit many
    orthonormal bases, so only the ordering and phases are canonical, which
    is what downstream constructions need for determinism.
    """
    w, v = np.linalg.eigh(np.asarray(h, dtype=np.complex128))
    if not len(w):
        return w, v
    vecs, order = _eigen_order(w, v)
    return w[order], vecs[:, order]


def _eigen_order(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reproducible convention for eigenpairs ``(w[k], v[:, k])``.

    Returns the phase-fixed columns of ``v`` and the permutation that sorts
    the pairs: eigenvalues ascending, exact ties by the phase-fixed entries.
    """
    vecs = _fix_phase(v)
    order = np.argsort(w)
    ascending = w[order]
    if np.any(ascending[1:] == ascending[:-1]):
        # np.lexsort sorts by its last key first: the eigenvalue, then entry 0, 1, ...;
        # complex keys compare by real part, then imaginary part.  It costs a few kB
        # per key, so it only runs when there is a tie to break.
        order = np.lexsort(np.vstack([vecs[::-1], w]))
    return vecs, order


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square(self.matrix, "density operator")
        _require_states(m[None], lambda k: "density operator")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _pure_parts(sigma: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """A state as its weighted pure parts: ``sigma = sum_k roots[k]**2 v_k v_k*``.

    The eigenpairs (p_k, v_k) of :func:`ordered_eigh` with p_k above
    ``STATE_RANK_CUTOFF``, in that order, as the roots ``sqrt(p_k)`` and the
    columns v_k of ``vecs``.  The replacement channel, the purification and
    the compression terms all split a state here.
    """
    vals, vecs = ordered_eigh(sigma.matrix)
    keep = vals > STATE_RANK_CUTOFF
    return np.sqrt(vals[keep]), vecs[:, keep]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel presented by Kraus operators ``rho -> sum_i A_i rho A_i*``.

    The family is one read-only complex array ``stack`` of shape
    (K, d_out, d_in), built from any sequence of equal-shape matrices or
    from such an array by ``_stack``, the rule probe families share;
    ``kraus_ops`` holds read-only views of its slices.
    Its Stinespring isometry is a transpose-and-reshape of ``stack``, and
    ``stack.reshape(K, -1)`` is the matrix of stacked ``vec(A_k)``.
    The family is trace preserving: ``sum_i A_i* A_i = I`` within
    ``TOL_VALID`` in operator norm.  Zero operators are legal members.
    """

    kraus_ops: tuple
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = _stack(self.kraus_ops, "Kraus operator")
        if len(stack) == 0:
            raise ValidationError("a channel needs at least one Kraus operator")
        shape = stack.shape[1:]
        if len(shape) != 2 or 0 in shape:
            raise ValidationError(f"Kraus operators must be matrices, got shape {shape}")
        _first_failure(_kraus_checks(stack[None]))
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus_ops", tuple(stack))

    @property
    def d_in(self) -> int:
        return self.stack.shape[2]

    @property
    def d_out(self) -> int:
        return self.stack.shape[1]

    @property
    def signature(self) -> str:
        """The spaces the channel acts between, as text; sequences compare it term by term."""
        return f"dims ({self.d_in},{self.d_out})"


@dataclass(frozen=True, eq=False)
class StinespringIsometry:
    """An isometry V from the input space into output (tensor) environment.

    ``v`` has shape (d_out * d_env, d_in) in the row-major flattening, and
    ``V* V = I`` within ``TOL_VALID``.  The channel it presents is
    ``rho -> Tr_env V rho V*``.
    """

    v: np.ndarray
    d_out: int
    d_env: int

    def __post_init__(self):
        d_out, d_env = _integers((self.d_out, self.d_env), "StinespringIsometry: d_out and d_env")
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "d_env", d_env)
        m = _cmat(self.v, "isometry")
        if self.d_out < 1 or self.d_env < 1:
            raise ValidationError(
                f"dimensions must be positive, got d_out={self.d_out}, d_env={self.d_env}"
            )
        if m.ndim != 2 or m.shape[0] != self.d_out * self.d_env:
            raise ValidationError(
                f"isometry of shape {m.shape} does not match d_out*d_env = "
                f"{self.d_out}*{self.d_env}"
            )
        if m.shape[1] == 0:
            raise ValidationError(f"isometry of shape {m.shape} has input dimension 0")
        _require_finite(m, "isometry")
        # V*V - I in place: one product-sized array.
        gram = dagger(m) @ m
        gram.reshape(-1)[:: m.shape[1] + 1] -= 1
        defect = _defect_norms(gram[None])
        _first_failure([(defect > TOL_VALID, lambda k: f"V*V deviates from identity by {defect[k]:.3e}")])
        object.__setattr__(self, "v", m)

    @property
    def d_in(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True, eq=False)
class PartialIsometry:
    """A matrix W whose restriction to (ker W)^perp is isometric.

    Equivalently W*W is a projector, checked as ``||(W*W)^2 - W*W|| <=
    TOL_VALID`` in operator norm, and kept read-only as ``initial_projector``.
    Rectangular shapes are allowed.
    """

    w: np.ndarray
    initial_projector: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _cmat(self.w, "partial isometry")
        if m.ndim != 2 or 0 in m.shape:
            raise ValidationError(f"partial isometry must be a matrix, got shape {m.shape}")
        p, checks = _partial_isometry_checks(m[None])
        _first_failure(checks)
        object.__setattr__(self, "w", m)
        object.__setattr__(self, "initial_projector", _frozen(p)[0])

    @property
    def d_in(self) -> int:
        return self.w.shape[1]

    @property
    def d_out(self) -> int:
        return self.w.shape[0]

    @property
    def range_projector(self) -> np.ndarray:
        """The projector WW* onto the range."""
        return self.w @ dagger(self.w)


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """A square unitary, both ``U*U`` and ``UU*`` within ``TOL_VALID`` of I.

    For a square U the two defects ``U*U - I`` and ``UU* - I`` have the same
    singular values ``|s^2 - 1|`` over the singular values s of U, so only
    the first is checked; the second is formed only to word a rejection.
    """

    u: np.ndarray

    def __post_init__(self):
        m = _square(self.u, "unitary")
        # U*U - I in place: one product-sized array.
        gram = dagger(m) @ m
        gram.reshape(-1)[:: len(m) + 1] -= 1
        defect = _defect_norms(gram[None])
        message = "matrix is not unitary: ||U*U-I||={:.3e}, ||UU*-I||={:.3e}"
        _first_failure(
            [(defect > TOL_VALID, lambda k: message.format(defect[k], opnorm(m @ dagger(m) - np.eye(len(m)))))]
        )
        object.__setattr__(self, "u", m)

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def channel_action(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """The linear action ``sum_i A_i X A_i*`` on an arbitrary matrix."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (ch.d_in, ch.d_in):
        raise ValidationError(
            f"channel expects a {ch.d_in}x{ch.d_in} input, got shape {x.shape}"
        )
    s = ch.stack
    return (s @ x @ s.conj().swapaxes(1, 2)).sum(axis=0)


def dual_action(ch: KrausChannel, b: np.ndarray) -> np.ndarray:
    """The dual (Heisenberg picture) action ``sum_i A_i* B A_i``."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (ch.d_out, ch.d_out):
        raise ValidationError(
            f"dual action expects a {ch.d_out}x{ch.d_out} operator, got shape {b.shape}"
        )
    s = ch.stack
    return (s.conj().swapaxes(1, 2) @ b @ s).sum(axis=0)


def _kraus_matrix(ch: KrausChannel) -> np.ndarray:
    """The (K, d_out*d_in) matrix M whose rows are the row-major ``vec(A_k)``."""
    return ch.stack.reshape(len(ch.stack), -1)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """The Choi matrix ``sum_ij ch(E_ij) (tensor) E_ij`` on output (x) input.

    One GEMM: with M the (K, d_out*d_in) stack of row-major ``vec(A_k)``,
    ``J = M^T conj(M)``.
    """
    m = _kraus_matrix(ch)
    return m.T @ m.conj()


def max_action_deviation(a: KrausChannel, b: KrausChannel) -> float:
    """Largest trace-norm disagreement of two channels over the matrix-unit basis.

    Equal Kraus stacks give exactly 0.0.  Otherwise it takes one singular-value
    decomposition per unordered pair of matrix units, i <= j, d_in (d_in + 1) / 2
    in all, with temporaries of O(d_in * d_out^2) entries: a difference of
    channels preserves adjoints, so its image of E_ji is the adjoint of its image
    of E_ij and has the same trace norm.  The difference at E_ij is ``X_i eta X_j*``,
    with ``X_i = [A_k e_i | B_l e_i]`` the (d_out, K_a + K_b) matrix of input
    column i and ``eta = diag(I_{K_a}, -I_{K_b})``.  When
    ``K_a + K_b < d_out``, one batched QR ``X_i = Q_i R_i`` reduces each
    decomposition to the (K_a + K_b)-square core ``R_i eta R_j*``, which has
    the same singular values; otherwise each is of a d_out-square difference.
    """
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise ValidationError(
            f"channels act between different spaces: "
            f"({a.d_in},{a.d_out}) vs ({b.d_in},{b.d_out})"
        )
    sa, sb = a.stack, b.stack
    if sa.shape == sb.shape and np.array_equal(sa, sb):
        return 0.0
    d_in, d_out = a.d_in, a.d_out
    # Both branches stay: dense-only, the d=16 check of 8 against 4 Kraus operators took
    # 7.9 -> 12.8 ms (shared 2-core host, BLAS on one thread).
    if len(sa) + len(sb) < d_out:
        # Q_i has orthonormal columns, so X_i eta X_j* = Q_i (R_i eta R_j*) Q_j* keeps
        # the core's singular values; each row i is a (d_in - i, K, K) stack of cores.
        r = np.linalg.qr(np.concatenate([sa.T, sb.T], axis=2), mode="r")
        eta = np.repeat([1.0, -1.0], [len(sa), len(sb)])
        r_h = r.conj().swapaxes(1, 2)
        rows = ((r_i * eta) @ r_h[i:] for i, r_i in enumerate(r))
    else:
        # Phi(E_ij)[p, q] = sum_k A_k[p, i] conj(A_k[q, j]): one GEMM gives the units
        # j >= i of a row i, so the temporaries stay O(d_in * d_out^2).
        def row_outputs(s: np.ndarray, s_bar: np.ndarray, i: int) -> np.ndarray:
            # [j - i, p, q] = Phi(E_ij)[p, q]; s_bar is (K, d_in, d_out), so its
            # columns j >= i are one block of each operator's rows.
            prod = s[:, :, i].T @ s_bar[:, i:].reshape(len(s), -1)
            return prod.reshape(d_out, d_in - i, d_out).swapaxes(0, 1)

        sa_bar, sb_bar = (s.conj().swapaxes(1, 2).copy() for s in (sa, sb))
        rows = (row_outputs(sa, sa_bar, i) - row_outputs(sb, sb_bar, i) for i in range(d_in))
    return max(float(np.linalg.svd(diffs, compute_uv=False).sum(axis=1).max()) for diffs in rows)


def tensor_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Tensor product channel with the pairwise Kraus family {A_i (x) B_j} at i*len(B)+j."""
    # The broadcast product is np.kron bit for bit; einsum can round differently.
    prod = a.stack[:, None, :, None, :, None] * b.stack[None, :, None, :, None, :]
    return KrausChannel(prod.reshape(-1, a.d_out * b.d_out, a.d_in * b.d_in))


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Composition (apply ``first``, then ``then``) with Kraus family {B_j A_i} at i*len(B)+j."""
    if first.d_out != then.d_in:
        raise ValidationError(
            f"cannot compose: first channel outputs dim {first.d_out}, "
            f"second expects dim {then.d_in}"
        )
    prod = then.stack[None] @ first.stack[:, None]
    return KrausChannel(prod.reshape(-1, then.d_out, first.d_in))


def identity_channel(dim: int) -> KrausChannel:
    (dim,) = _integers([dim], "identity_channel: dim")
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    return KrausChannel((np.eye(dim),))


def dephasing_channel(keep: float = 0.0) -> KrausChannel:
    """Qubit channel multiplying off-diagonal entries by ``keep``.

    ``keep = 0`` is full dephasing with Kraus {diag(1,0), diag(0,1)}.
    """
    _require_unit_interval(keep, "off-diagonal factor")
    ops = [np.diag([1.0, keep]).astype(np.complex128)]
    if keep < 1.0:
        ops.append(np.diag([0.0, np.sqrt(1.0 - keep * keep)]).astype(np.complex128))
    return KrausChannel(tuple(ops))


def depolarizing_qubit_channel() -> KrausChannel:
    """The completely depolarizing qubit channel, Kraus {|i><j| / sqrt(2)}."""
    return KrausChannel(np.eye(4).reshape(4, 2, 2) / np.sqrt(2.0))


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Qubit amplitude damping with decay probability ``gamma``."""
    _require_unit_interval(gamma, "damping probability")
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=np.complex128)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    return KrausChannel((a0, a1))


def replacement_channel(sigma: DensityOperator, d_in: int) -> KrausChannel:
    """The constant channel ``rho -> Tr(rho) sigma``."""
    roots, vecs = _pure_parts(sigma)
    # Operator (k, m) writes sqrt(p_k) v_k into column m.
    cols = (roots * vecs).T
    ops = cols[:, None, :, None] * np.eye(d_in)[None, :, None, :]
    return KrausChannel(ops.reshape(-1, sigma.dim, d_in))

"""Channel sequences, convergence defects, and the standard counterexamples.

A :class:`ChannelSequence` pairs a limit channel with a lazy rule for its
terms (index 1 and up; index 0 returns the limit); an index that is not an
integer is rejected before anything is built.  A :class:`PartialTraceForm`
is its own channel sequence: it presents term n as
``Tr_env W(n) V0 . V0* W(n)*``, with the Kraus family of ``V0`` as the
limit.  Its one W rule returns the W(n) of a tuple of indices as one
(B, D, D) array, which the form checks with one batched rule per invariant
and slices into one (B, d_env, d_out, d_in) Kraus stack; a term is the
block of one.  A Kraus sweep's block is a list of Kraus stacks: a form's
one stack, any other sequence's one stack per term.

Defects compare a term against the limit over finite test families.
:func:`convergence_report` takes them as one ``ensembles.Probes`` object,
whose stacks are validated when it is built.  :func:`strong_defect` and
:func:`strongstar_defect` take each family as a stack or as a sequence of
equal-shape arrays, and validate it per call by the rules of ``Probes`` and
their index by the rule of the sweeps, all before any term is built:

* ``strong_defect``: worst trace-norm disagreement on test states.
* ``strongstar_defect``: worst Euclidean disagreement of the dual maps on
  observables applied to test vectors.  This is the quantity that also
  controls the duals, hence "strong*": it can stay large while every
  per-state strong defect dies out, and the swap family below realizes
  exactly that separation.
* ``choi_defect``: ``trace_norm(J(term) - J(limit)) / d_in``, a lower bound
  on the completely bounded (diamond) distance.  Being a lower bound it can
  undershoot a strong defect measured at a well-chosen state; reports carry
  the comparison as a diagnostic rather than an invariant.

All three come from one block kernel, which takes a block of terms at once
as a list of (B, K, d_out*d_in) Kraus stacks; a single defect is a block of
one.  The Choi matrices of a stack's terms are one batched GEMM over their
stacked Kraus vectors, and reshuffling the stacked
``J(term) - J(limit)`` gives the superoperator differences ``S_n - S_0``
(``vec(ch(X)) = S vec(X)``), so every channel and dual difference of a
block over a whole test family is one matrix product.  The matrix-unit
observables stack to the identity, so their dual differences are the
conjugated rows of ``S_n - S_0`` themselves (``vec(ch*(B)) = S^H vec(B)``)
and cost no observable product, only the one applying them to the test
vectors.  Trace norms of the Hermitian differences are sums of
|eigenvalues|, one batched ``eigvalsh`` per block.
:func:`convergence_report` builds each term once per index and the
limit's Choi matrix and the column layout of the probe stacks once per
report; a block's largest stack holds at most ``SWEEP_BLOCK_ENTRIES``
entries, whether it is the Choi stack, the report's strong* vector images or
a form's W stack.

The block kernels write into the arrays they return, not into per-call
temporaries: a block's stacks sit at glibc's mmap threshold, so each fresh
one costs its pages again.  Each term's Choi GEMM fills its slice of one
stack, which lives only until it is reshuffled into ``S_n - S_0``; the
strong* norms square the vector images in place against their one
conjugate copy (the product ``np.linalg.norm`` takes, so the norms are
bitwise its own); the Hermitian part of a difference is formed in its
conjugate; a compression term writes heads and replacement branch into the
one read-only stack its channel keeps; and default probe stacks reach the
kernels without a copy, the matrix units not even as columns.

The Choi column builds no Choi matrix.  With M the (K, d_out*d_in) matrix
of stacked ``vec(A_k)``, ``J = M^T conj(M)``, so
``J_n - J_0 = A diag(I, -I) A^H`` for ``A = [M_n^T, M_0^T]``, and by
Sylvester's law of inertia the difference has at most k = min(K_n, K_0)
eigenvalues of the smaller side's sign.  Each term takes the first of two
paths that applies (:func:`_choi_gaps`):

1. **Krylov**, while ``k <= KRYLOV_MAX_BLOCK``: ``||J_n - J_0||_1`` is the
   exact trace plus twice the k extreme eigenvalues on the smaller side,
   found by a block Lanczos process that applies the difference through the
   two Kraus matrices and forms no Choi matrix (:func:`_ritz_bounds`).  Ritz
   values interlace from above, so the value only ever undershoots: an early
   stop can only under-report a lower bound.  A solve that reaches
   ``KRYLOV_MAX_STEPS`` hands its term on to the next path.
2. **QR core**, otherwise: the nonzero eigenvalues are those of
   ``R diag(I, -I) R^H``, with R the QR factor of A, which has
   ``min(K_n + K_0, d_out*d_in)`` rows, one batched QR per Kraus stack of
   the block.

Compress on the identity base has k = 1 (the limit is one Kraus operator),
so every such term takes Krylov; the partial-trace forms and the swap
embedding have k = d_env and take the QR core, a block's terms in one
batched QR, in :func:`choi_defect` and :func:`convergence_report` alike.

The separating families are built here too.  :func:`swap_counterexample`
converges strongly but not in the strong* sense, and :func:`swap_report` is
its report: the two vector-level columns read from one stack of the terms
minus the limit projector, the Choi column from :func:`choi_defects` of the
family's channels on a (2, d/2) embedding.  The command line writes it as it
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    TOL_VALID,
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    ValidationError,
    choi_matrix,
    compose_channels,
    dagger,
    tensor_channels,
    _cmat,
    _defect_norms,
    _first_failure,
    _frozen,
    _integers,
    _kraus_checks,
    _kraus_matrix,
    _partial_isometry_checks,
    _pure_parts,
)
from .dilation import (
    complementary_kraus,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    pad_environment,
)
from .ensembles import Probes, _family, _states
from .report import Report

#: A compression term adds no replacement operator for a Kraus row below this norm.
ZERO_ROW_NORM = 1e-14
#: At most this many complex entries are stacked at once by one block of a
#: sweep: Choi-matrix entries (indices x (d_out*d_in)^2) in
#: :func:`convergence_report` and :func:`choi_defects`, characteristic values
#: (indices x states x points) in ``gaussian.param_convergence_check``.  A
#: Kraus sweep counts the largest stack of its block: in the report the strong*
#: images (indices x d_out^2 d_in x vectors) when they outnumber the Choi
#: entries, and a partial-trace form's W matrices (indices x D^2) when they do.
#: 8192 complex entries are 128 KiB, glibc's default mmap threshold, so each
#: block-sized array a kernel allocates costs fresh pages, and the kernels
#: write into the arrays they return (module docstring).  Raising it does not
#: pay: in interleaved compress d=10 reports (shared 2-core Xeon host, BLAS on
#: one thread), 131072 and 1048576 entries, one block for the whole sweep,
#: took 1-5% more process time than 8192.
SWEEP_BLOCK_ENTRIES = 8192
#: The Choi column takes the block Krylov path while the smaller of a term's and
#: the limit's Kraus counts, the block size, is at most this.
KRYLOV_MAX_BLOCK = 1
#: A Krylov direction is dropped, and a Ritz pair has converged, at or below this
#: fraction of ``||M_n||_F^2 + ||M_0||_F^2``.
KRYLOV_RTOL = 1e-13
#: A Krylov solve still running after this many block steps hands its term on.
KRYLOV_MAX_STEPS = 32

#: Older name of :class:`~channel_lab.report.Report`; the benchmark harness in
#: ``bench/`` still looks it up here.
ConvergenceReport = Report


@dataclass(frozen=True, eq=False)
class ChannelSequence:
    """A limit channel plus a rule producing term n for n >= 1.

    ``term(0)`` returns the limit.  Every term must act between the same
    spaces as the limit, which is checked on access by comparing the
    channels' ``signature``.  Kraus channels and Gaussian channels both
    provide one, so the class serves both.
    """

    limit: object
    term_fn: Callable[[int], object]

    def term(self, n: int):
        (n,) = _integers([n], "sequence index")
        if n < 0:
            raise ValidationError(f"sequence index must be >= 0, got {n}")
        if n == 0:
            return self.limit
        ch = self.term_fn(n)
        if ch.signature != self.limit.signature:
            raise ValidationError(
                f"term {n} acts between {ch.signature}, limit between {self.limit.signature}"
            )
        return ch

    def _kraus_groups(self, ns: tuple) -> list:
        """A Kraus sweep's block: the terms at ``ns`` as a list of (B, K, d_out*d_in) stacks, in index order.

        Here a stack of one per term; a partial-trace form's block is its one
        checked stack.
        """
        return [_kraus_matrix(self.term(n))[None] for n in ns]

    def _terms_per_block(self, entries: int = 0) -> int:
        """Terms in a Kraus sweep's block, whose largest stack holds at most ``SWEEP_BLOCK_ENTRIES`` entries.

        Per term a block stacks a Choi matrix, (d_out*d_in)^2 entries, and
        ``entries`` in the sweep's own largest stack.
        """
        return _per_block(max((self.limit.d_out * self.limit.d_in) ** 2, entries))


def _probe_columns(stack: np.ndarray, what: str, shape: tuple) -> np.ndarray:
    """A validated probe stack laid out as the columns of one contiguous array.

    Every member must have ``shape``, the one the limit acts on: d_in-square
    states, d_in vectors, d_out-square observables.  Matrices enter as their
    row-major ``vec``, so the result is (dim^2, size); vectors give (dim, size).
    """
    if stack.shape[1:] != shape:
        raise ValidationError(f"{what} family has a member of shape {stack.shape[1:]}, the limit needs {shape}")
    return np.ascontiguousarray(stack.reshape(len(stack), -1).T)


def _per_block(entries_per_term: int) -> int:
    """Terms in a block of at most ``SWEEP_BLOCK_ENTRIES`` entries, ``entries_per_term`` each (at least one)."""
    return max(1, SWEEP_BLOCK_ENTRIES // entries_per_term)


def _blocks(ns: tuple, per_block: int):
    """``ns`` ``per_block`` indices at a time, in index order, each block with its row slice.

    The stacks a block builds do not grow with ``len(ns)``.
    """
    for start in range(0, len(ns), per_block):
        yield slice(start, start + per_block), ns[start:start + per_block]


def _deltas(groups: list, limit_choi: np.ndarray, d_out: int) -> np.ndarray:
    """``S_n - S_0`` stacked over a block given as a list of (B, K, d_out*d_in) Kraus stacks.

    ``S[(a,b),(i,j)] = J[(a,i),(b,j)]`` reshuffles a Choi matrix into the
    superoperator, so that with row-major ``vec`` ``vec(ch(X)) = S vec(X)``
    and ``vec(ch*(B)) = S^H vec(B)``.  The map is linear, so the reshuffle of
    ``J_n - J_0`` is ``S_n - S_0``.  The Choi GEMMs write into one
    ``J_n - J_0`` stack, which lives only until it is reshuffled: one batched
    product per Kraus stack, into its slice.
    """
    d_in = len(limit_choi) // d_out
    dj = np.empty((sum(map(len, groups)),) + limit_choi.shape, dtype=complex)
    start = 0
    for ms in groups:
        np.matmul(ms.swapaxes(1, 2), ms.conj(), out=dj[start:start + len(ms)])
        start += len(ms)
    dj -= limit_choi
    return dj.reshape(-1, d_out, d_in, d_out, d_in).transpose(0, 1, 3, 2, 4).reshape(-1, d_out**2, d_in**2)


def _output_diffs(ds: np.ndarray, states: np.ndarray, d_out: int) -> np.ndarray:
    """``(term - limit)(rho)`` for every term and stacked state, as a (B, S, d_out, d_out) array.

    One GEMM of the stacked ``S_n - S_0`` with the stacked states.
    """
    out = ds.reshape(-1, ds.shape[2]) @ states
    return out.reshape(len(ds), d_out * d_out, -1).transpose(0, 2, 1).reshape(len(ds), -1, d_out, d_out)


def _unless_identity(obs: np.ndarray, d_out: int) -> np.ndarray | None:
    """The observables' :func:`_probe_columns`, or ``None`` when they are the matrix units in row-major order.

    For those :func:`_dual_norms` needs no product with the observables.  Their
    (O, d_out^2) table is then exactly the identity: square, 1 on the diagonal
    and no other nonzero entry, which is checked on the stack itself, without
    laying out its columns or building an identity.
    """
    if obs.shape == (d_out**2, d_out, d_out):
        flat = obs.reshape(d_out**2, -1)
        if np.count_nonzero(flat) == d_out**2 and (flat.diagonal() == 1).all():
            return None
    return _probe_columns(obs, "test observable", (d_out, d_out))


def _dual_norms(ds: np.ndarray, obs: np.ndarray | None, vecs: np.ndarray, d_in: int) -> np.ndarray:
    """``||(term* - limit*)(B) phi||_2`` for every term, observable and vector, as a (B, obs, vec) array.

    The dual difference of observable b is ``(S_n - S_0)^H vec(B)``, so row o
    of ``obs^H (S_n - S_0)``, read as a d_in-square matrix, is its conjugate,
    and the conjugates of its images are that matrix times ``conj(vecs)``,
    with the same norms: one product with the observables and one GEMM with
    the vectors.  With ``obs`` None (the stack is the identity, see
    :func:`_unless_identity`) the rows are those of ``S_n - S_0`` itself
    and the product with the observables is skipped.  The images are
    squared in place, against one conjugate copy: the product
    ``np.linalg.norm`` takes, so the norms are bitwise its own.
    """
    rows = ds if obs is None else obs.conj().T @ ds
    images = rows.reshape(-1, d_in) @ vecs.conj()
    images *= images.conj()
    return np.sqrt(np.add.reduce(images.real.reshape(len(ds), rows.shape[1], d_in, -1), axis=2))


def _hermitian_trace_norm(h: np.ndarray) -> np.ndarray:
    """Trace norms of a Hermitian matrix or a stack of them: sums of |eigenvalues|.

    The input is symmetrized first, in its conjugate transpose, so
    rounding-level skew is ignored.
    """
    herm = h.conj().swapaxes(-1, -2)
    herm += h
    herm /= 2
    return np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


def _ritz_bounds(m_n: np.ndarray, m_0: np.ndarray) -> list | None:
    """Lower bounds on ``trace_norm(J_n - J_0)``, one per block Krylov step, or None at the step cap.

    ``m_n`` and ``m_0`` are the stacked Kraus matrices.  Let S be the one
    with fewer rows (k of them; ``m_0`` on a tie) and B the other, so that
    ``H = B^T conj(B) - S^T conj(S)`` is ``+-(J_n - J_0)`` and, by Sylvester's
    law of inertia, has at most k negative eigenvalues.  Hence
    ``||H||_1 = Tr H + 2 sum |lambda_-|`` with the exact
    ``Tr H = ||B||_F^2 - ||S||_F^2``.

    A block Lanczos (Rayleigh-Ritz) process with full reorthogonalization
    applies H to a block X as ``B^T conj(B conj(X)) - S^T conj(S conj(X))``,
    forming no Choi matrix and no conjugate Kraus matrix.  Its start block
    is the orthonormalized columns of ``S^T``, which every negative
    eigenvector overlaps: a vector x orthogonal to them has
    ``conj(S) x = 0``, so ``x^H H x = ||conj(B) x||^2 >= 0``.  Each new block
    is the image of the last one minus its projection on the basis, less the
    directions of singular value at most ``KRYLOV_RTOL * (||B||_F^2 +
    ||S||_F^2)``.

    After each step, ``Tr H + 2 sum max(0, -theta_i)`` over the k smallest
    Ritz values theta_i is a lower bound: by Cauchy interlacing theta_i is
    never below the i-th eigenvalue.  The process stops when the basis
    deflates to nothing (it spans an invariant subspace, so the Ritz values
    are eigenvalues) or when each of the k Ritz pairs has a residual within
    the same tolerance, and gives up after ``KRYLOV_MAX_STEPS`` steps.  The
    last bound is the value.
    """
    big, small = (m_n, m_0) if len(m_0) <= len(m_n) else (m_0, m_n)
    k, norms = len(small), (np.vdot(big, big).real, np.vdot(small, small).real)
    trace, tol = norms[0] - norms[1], KRYLOV_RTOL * (norms[0] + norms[1])
    q = block = np.linalg.qr(small.T)[0]
    # Only the upper triangle of the Rayleigh quotient Q^H H Q is filled, a block column per step.
    t = np.zeros((0, 0), dtype=complex)
    bounds = []
    for _ in range(KRYLOV_MAX_STEPS):
        x, q_h = block.conj(), q.conj().T
        image = big.T @ (big @ x).conj() - small.T @ (small @ x).conj()
        cols = q_h @ image
        t, old = np.zeros((len(cols), len(cols)), dtype=complex), t
        t[:len(old), :len(old)] = old
        t[:, len(old):] = cols
        theta, y = np.linalg.eigh(t, UPLO="U")
        bounds.append(trace - 2 * np.minimum(theta[:k], 0).sum())
        rest = image - q @ cols
        rest -= q @ (q_h @ rest)
        u, s, vh = np.linalg.svd(rest, full_matrices=False)
        keep = s > tol
        if not keep.any():
            return bounds
        # Ritz pair i's residual is the part of H Q y_i off the basis: rest times y_i's last-block rows.
        if np.linalg.norm(s[:, None] * (vh @ y[-block.shape[1]:, :k]), axis=0).max() <= tol:
            return bounds
        block = u[:, keep]
        q = np.hstack([q, block])
    return None


def _choi_gaps(groups: list, m_0: np.ndarray) -> np.ndarray:
    """``trace_norm(J_n - J_0)`` for a block given as a list of Kraus stacks, against the limit's ``m_0``.

    Each stack goes to :func:`_group_gaps`, in order.
    """
    return np.concatenate([_group_gaps(ms, m_0) for ms in groups])


def _group_gaps(ms: np.ndarray, m_0: np.ndarray) -> np.ndarray:
    """``trace_norm(J_n - J_0)`` for a (B, K, d_out*d_in) Kraus stack, each by the first of two paths that applies.

    ``J_n - J_0 = A diag(I, -I) A^H`` with ``A = [M_n^T, M_0^T]``.

    1. Krylov, while ``min(K_n, K_0) <= KRYLOV_MAX_BLOCK``: the extreme
       eigenvalues on the smaller side from :func:`_ritz_bounds`, forming no
       Choi matrix.  A term whose solve reaches ``KRYLOV_MAX_STEPS`` goes on to
       the QR core.
    2. The QR core: the difference's nonzero eigenvalues are those of
       ``R diag(I, -I) R^H`` for the QR factor R of A, which has
       ``min(K_n + K_0, d_out*d_in)`` rows; the stack's terms share one
       batched QR.

    Equal families give exactly 0.  The equality checks and the QR pairs are
    each one array operation over the stack; only Krylov solves go term by
    term.
    """
    k_n, k_0 = ms.shape[1], len(m_0)
    gaps = np.zeros(len(ms))
    todo = ~(ms == m_0).all(axis=(1, 2)) if k_n == k_0 else np.ones(len(ms), dtype=bool)
    # Krylov against the QR core on the column's built terms (shared 2-core host, BLAS on one thread):
    # compress (k = 1) 6.5 -> 2.0 ms at d=10 and 86 -> 5.4 ms at d=16, but the 8/4/8 partial-trace
    # form (k = 8) 1.7 -> 14.8 ms and compress at d=8 on a 4-operator base 3.4 -> 14.8 ms.
    if min(k_n, k_0) <= KRYLOV_MAX_BLOCK:
        for i in np.flatnonzero(todo):
            bounds = _ritz_bounds(ms[i], m_0)
            if bounds is not None:
                gaps[i], todo[i] = bounds[-1], False
    if not todo.any():
        return gaps
    rest = ms if todo.all() else ms[todo]
    pairs = np.concatenate([rest, np.broadcast_to(m_0, (len(rest),) + m_0.shape)], axis=1)
    r = np.linalg.qr(pairs.transpose(0, 2, 1), mode="r")
    signs = np.repeat([1.0, -1.0], [k_n, k_0])
    gaps[todo] = _hermitian_trace_norm((r * signs) @ r.conj().swapaxes(-1, -2))
    return gaps


def strong_defect(seq: ChannelSequence, n: int, test_states) -> float:
    """Largest trace-norm gap ``||term(rho) - limit(rho)||_1`` over test states."""
    (n,) = _integers([n], "strong_defect: index")
    states = _probe_columns(_states(test_states), "test state", (seq.limit.d_in,) * 2)
    ds = _deltas(seq._kraus_groups((n,)), choi_matrix(seq.limit), seq.limit.d_out)
    return float(_hermitian_trace_norm(_output_diffs(ds, states, seq.limit.d_out)).max())


def strongstar_defect(seq: ChannelSequence, n: int, test_obs, test_vectors) -> float:
    """Largest dual-side gap ``||(term* - limit*)(B) phi||_2`` over the test grid."""
    (n,) = _integers([n], "strongstar_defect: index")
    obs, vecs = _family(test_obs, "test observable", 2), _family(test_vectors, "test vector", 1)
    obs = _unless_identity(obs, seq.limit.d_out)
    vecs = _probe_columns(vecs, "test vector", (seq.limit.d_in,))
    ds = _deltas(seq._kraus_groups((n,)), choi_matrix(seq.limit), seq.limit.d_out)
    return float(_dual_norms(ds, obs, vecs, seq.limit.d_in).max())


def choi_defects(seq: ChannelSequence, ns) -> np.ndarray:
    """:func:`choi_defect` at every index of ``ns``, in order, swept in blocks."""
    ns = _integers(ns, "choi_defects: indices")
    gaps, m_0 = np.empty(len(ns)), _kraus_matrix(seq.limit)
    for rows, block in _blocks(ns, seq._terms_per_block()):
        gaps[rows] = _choi_gaps(seq._kraus_groups(block), m_0)
    return gaps / seq.limit.d_in


def choi_defect(seq: ChannelSequence, n: int) -> float:
    """``trace_norm(J(term) - J(limit)) / d_in``, a diamond-distance lower bound.

    Computed from the two stacked Kraus matrices by the first of two paths
    that applies (module docstring): block Krylov while the smaller Kraus
    count is at most ``KRYLOV_MAX_BLOCK``, whose early stop could only
    under-report; otherwise the QR core, whose side is their total operator
    count or ``d_out * d_in``, whichever is smaller.  Neither builds a Choi
    matrix.  Equal families give exactly 0.
    """
    return float(choi_defects(seq, [n])[0])


def convergence_report(seq: ChannelSequence, ns, probes: Probes, test_family: str = "") -> Report:
    """Sweep all three defect kinds over the given indices.

    ``probes`` holds the test states, observables and vectors as validated
    stacks; each is laid out as the columns of one array once per report
    (the matrix units are not laid out at all), and the limit's Choi matrix
    is built once per report.  The indices are swept in blocks whose largest
    stack, the Choi stack, the strong* vector images or a partial-trace
    form's W stack, holds at most ``SWEEP_BLOCK_ENTRIES`` entries (at least
    one index), so memory does not grow with ``len(ns)``.  Each block builds
    its terms once per index, in index order, as a list of Kraus stacks (a
    form's one checked stack, a stack per term otherwise), and stacks their
    Choi matrices (one batched GEMM per Kraus stack) minus the limit's;
    reshuffled, the stack is every ``S_n - S_0``.  One product with
    the stacked states gives every output difference of the block, one with
    the stacked observables every dual difference; when the observables are
    the matrix units in order (their stack is exactly the identity, checked
    once per report) that product is skipped and the rows of the stack are
    the dual differences.  Trace norms are sums of
    |eigenvalues| of the Hermitian differences, one batched ``eigvalsh`` per
    block; the Choi column takes its own by the two paths of the module
    docstring and builds no Choi difference.
    Witnesses are first maximizers: in state order for strong,
    observable-major then vector order for strong*.  A probe family that does
    not act on the limit (states and vectors on d_in, observables on d_out)
    is a ``ValidationError``, raised before any term is built.  An index
    that is not an integer (a bool is not) is rejected before any term is
    built; other errors surface in index order.
    """
    ns = _integers(ns, "convergence_report: indices")
    d_in, d_out = seq.limit.d_in, seq.limit.d_out
    states = _probe_columns(probes.states, "test state", (d_in, d_in))
    obs = _unless_identity(probes.observables, d_out)
    vecs = _probe_columns(probes.vectors, "test vector", (d_in,))
    limit_choi, m_0 = choi_matrix(seq.limit), _kraus_matrix(seq.limit)
    strong, star, choi = np.empty((3, len(ns)))
    strong_args, star_args = np.empty((2, len(ns)), dtype=np.intp)
    # Per term the strong* kernel's vector images hold d_out^2 * d_in entries per test vector.
    for rows, block in _blocks(ns, seq._terms_per_block(d_out**2 * d_in * vecs.shape[1])):
        groups = seq._kraus_groups(block)
        ds = _deltas(groups, limit_choi, d_out)
        gaps = _hermitian_trace_norm(_output_diffs(ds, states, d_out))
        duals = _dual_norms(ds, obs, vecs, d_in).reshape(len(block), -1)
        strong[rows], strong_args[rows] = gaps.max(axis=1), gaps.argmax(axis=1)
        star[rows], star_args[rows] = duals.max(axis=1), duals.argmax(axis=1)
        choi[rows] = _choi_gaps(groups, m_0)
    obs_args, vec_args = np.divmod(star_args, vecs.shape[1])
    return Report(
        "convergence-report",
        ns,
        strong=strong,
        strongstar=star,
        choi=choi / d_in,
        strong_witness=[f"state[{k}]" for k in strong_args],
        strongstar_witness=[f"obs[{b}]|vec[{v}]" for b, v in zip(obs_args, vec_args)],
        test_family=test_family,
    )


def compression_sequence(ch: KrausChannel, sigma: DensityOperator, ranks) -> ChannelSequence:
    """Compress a channel's output onto growing coordinate subspaces.

    Term n applies the base channel, keeps the block ``P ch(rho) P`` on the
    first ``ranks[n-1]`` output coordinates, and reroutes the lost weight
    into the replacement state: ``P ch(rho) P + Tr((I-P) ch(rho)) sigma``.
    The Kraus family is {P A_i} together with operators realizing the
    replacement branch through sigma's eigenvectors.  At full rank the term
    equals the base channel.
    """
    if sigma.dim != ch.d_out:
        raise ValidationError(
            f"replacement state dim {sigma.dim} != channel output dim {ch.d_out}"
        )
    ranks = list(_integers(ranks, "ranks"))
    if not ranks:
        raise ValidationError("need at least one rank")
    for r in ranks:
        if not 0 <= r <= ch.d_out:
            raise ValidationError(f"rank {r} outside 0..{ch.d_out}")
    if any(a > b for a, b in zip(ranks, ranks[1:])):
        raise ValidationError(f"ranks must be nondecreasing, got {ranks}")

    roots, vecs = _pure_parts(sigma)

    def term(n: int) -> KrausChannel:
        if n > len(ranks):
            raise ValidationError(f"term {n} beyond the configured {len(ranks)} ranks")
        r = ranks[n - 1]
        # One replacement operator sqrt(p) v (x) row per kept eigenpair (p, v) of
        # sigma and per nonzero row m >= r of each A_k, eigenpair-major, after the
        # heads P A_k, all written into the one stack the term keeps.
        rows = ch.stack[:, r:].reshape(-1, ch.d_in)
        rows = rows[np.linalg.norm(rows, axis=1) >= ZERO_ROW_NORM]
        k = len(ch.stack)
        stack = np.empty((k + len(roots) * len(rows), ch.d_out, ch.d_in), dtype=complex)
        stack[:k] = ch.stack
        stack[:k, r:] = 0
        branch = stack[k:].reshape(len(roots), len(rows), ch.d_out, ch.d_in)
        np.multiply(vecs.T[:, None, :, None], rows[None, :, None, :], out=branch)
        branch *= roots[:, None, None, None]
        return KrausChannel(_frozen(stack))

    return ChannelSequence(ch, term)


def swap_counterexample(d: int) -> tuple[list[PartialIsometry], np.ndarray]:
    """Partial isometries that converge strongly but not in the strong* sense.

    On dim d, the first d-1 basis vectors are the tracked frame and the last
    one is the witness psi.  Term n fixes every frame vector except the n-th,
    which it swaps out to psi.  Each fixed frame vector is eventually exact
    (term n acts as the limit projector on it once n differs from its index),
    while the adjoints send psi to a fresh frame vector forever:
    ``W_n* psi`` is the n-th frame vector, at distance 1 from the limit's 0.
    Returns the list of terms (n = 1..d-1) and psi; the limit is the
    projector onto the frame, i.e. ``terms[0].initial_projector``.
    """
    ws, psi = _swap_stack(*_integers([d], "swap_counterexample: dimension"))
    return [PartialIsometry(w) for w in ws], psi


def _swap_stack(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The swap family's terms as one read-only (d-1, d, d) stack, and psi; d >= 3 is checked here."""
    if d < 3:
        raise ValidationError(f"the swap family needs dimension >= 3, got {d}")
    psi = np.eye(d, dtype=np.complex128)[d - 1]
    # ws[n - 1] maps e_(i-1) to e_(i-1) for i != n and e_(n-1) to psi, i = 1..d-1.
    ws = np.zeros((d - 1, d, d), dtype=np.complex128)
    frame = np.arange(d - 1)
    ws[:, frame, frame] = 1.0
    ws[frame, frame, frame] = 0.0
    ws[frame, d - 1, frame] = 1.0
    return _frozen(ws), psi


def swap_report(d: int, probe: int) -> Report:
    """The swap family's vector-level defects, with the Choi column of its channel embedding.

    Row n holds ``||(W_n - P) tau||`` with tau the frame vector ``probe``
    (``sqrt(2)`` at n = probe, 0 elsewhere), ``||(W_n* - P) psi||`` (1 on
    every row) and the Choi defect of the channels of ``W_n`` on the
    embedding ``eye(d, d-1)`` with a (2, d/2) output/environment split.
    Both vector columns read the family's (d-1, d, d) stack minus P, and its
    partial-trace form's W rule indexes the stack.  Checked in order: d is
    even (the split needs it), the family's own dimension rule, and
    ``1 <= probe <= d - 1``, after both are checked to be integers.
    """
    d, probe = _integers([d, probe], "swap_report: dimension and probe")
    if d % 2:
        raise ValidationError(f"the swap report needs an even dimension to embed, got {d}")
    ws, psi = _swap_stack(d)
    if not 1 <= probe <= d - 1:
        raise ValidationError(f"probe index must lie in 1..{d - 1}, got {probe}")
    frame = np.eye(d, d - 1)
    gaps = ws - frame @ frame.T
    form = PartialTraceForm(StinespringIsometry(frame, 2, d // 2), lambda ns: ws[np.subtract(ns, 1)])
    return Report(
        "convergence-report",
        range(1, d),
        strong=np.linalg.norm(gaps[:, :, probe - 1], axis=1),
        strongstar=np.linalg.norm(psi.conj() @ gaps, axis=1),
        choi=choi_defects(form, range(1, d)),
        strong_witness=[f"tau[{probe}]"] * (d - 1),
        strongstar_witness=["psi"] * (d - 1),
        test_family=f"vector-level probes tau[{probe}] and psi; choi from the (2, {d // 2}) embedding",
    )


@dataclass(frozen=True, eq=False)
class PartialTraceForm(ChannelSequence):
    """A channel sequence presented as ``rho -> Tr_env W(n) V0 rho V0* W(n)*``.

    ``v0`` fixes the embedding and the output/environment split, and its
    Kraus family is the limit.  ``w_fn`` is the form's W rule: given a tuple
    of indices n >= 1 it returns their W(n) as one (len(ns), D, D) array,
    D = d_out * d_env.  Each W(n) must be a partial isometry whose initial
    projector is the range projector of ``v0``, so that every composite
    ``W(n) V0`` is again an isometry.  A block of indices is checked when it
    is built (:meth:`_kraus_block`); a Kraus sweep takes it as one stack,
    and ``term(n)`` and ``isometry(n)`` are the block of one.
    """

    limit: KrausChannel = field(init=False, repr=False)
    term_fn: Callable[[int], KrausChannel] = field(init=False, repr=False)
    v0: StinespringIsometry
    w_fn: Callable[[tuple], np.ndarray]
    #: The range projector ``v0 v0*`` of the embedding, computed once.
    range0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "limit", kraus_from_isometry(self.v0))
        object.__setattr__(self, "term_fn", lambda n: KrausChannel(self._kraus_block((n,))[0]))
        object.__setattr__(self, "range0", self.v0.v @ dagger(self.v0.v))

    def isometry(self, n: int) -> StinespringIsometry:
        term = self.term(n)
        return self.v0 if n == 0 else isometry_from_kraus(term)

    def _kraus_groups(self, ns: tuple) -> list:
        if min(ns) < 1:
            # Index 0 is the limit and a negative one is rejected: term by term, in index order.
            return super()._kraus_groups(ns)
        return [self._kraus_block(ns).reshape(len(ns), self.v0.d_env, -1)]

    def _terms_per_block(self, entries: int = 0) -> int:
        # The (D, D) W stack can be the block's largest (D^2 > (d_out*d_in)^2).
        return super()._terms_per_block(max(entries, self.range0.size))

    def _kraus_block(self, ns: tuple) -> np.ndarray:
        """The Kraus families of ``W(n) V0`` at indices ``ns`` (each >= 1), one (B, d_env, d_out, d_in) stack.

        The W rule's stack is checked one batched rule per invariant, in the
        order one term is checked: W finite, ``W*W`` a projector, ``W*W`` the
        embedding's range projector, and ``W(n) V0`` finite and trace
        preserving (the isometry check; ``sum A*A`` is ``V*V`` summed in
        another order).  Each within ``TOL_VALID`` in operator norm.  The first
        failing index is rejected, at the first check it fails.
        """
        v0, dim = self.v0, len(self.range0)
        w = _cmat(self.w_fn(ns), "partial isometry")
        if w.shape != (len(ns), dim, dim):
            raise ValidationError(
                f"the W rule gave shape {w.shape} for indices {list(ns)}, expected {(len(ns), dim, dim)}"
            )
        p, checks = _partial_isometry_checks(w)
        with np.errstate(invalid="ignore", over="ignore"):
            p -= self.range0
            drift = _defect_norms(p)
            products = (w @ v0.v).reshape(len(ns), v0.d_out, v0.d_env, v0.d_in)
        kraus = np.ascontiguousarray(products.swapaxes(1, 2))
        on_range = (
            drift > TOL_VALID,
            lambda k: f"term {ns[k]}: initial projector deviates from the embedding range by {drift[k]:.3e}",
        )
        _first_failure(checks + [on_range] + _kraus_checks(kraus))
        return kraus


def givens_rotation(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    """The rotation by ``theta`` in the (e_i, e_j) coordinate plane."""
    return _givens_rotations(dim, i, j, [theta])[0]


def _givens_rotations(dim: int, i: int, j: int, thetas) -> np.ndarray:
    """The rotations by each of ``thetas`` in the (e_i, e_j) coordinate plane, one (len(thetas), dim, dim) stack.

    ``dim`` must be an integer, ``i`` and ``j`` distinct integers in ``0..dim-1``.
    """
    dim, i, j = _integers([dim, i, j], "rotation dimension and plane")
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise ValidationError(f"invalid rotation plane ({i}, {j}) in dim {dim}")
    r = np.zeros((len(thetas), dim, dim), dtype=np.complex128)
    c, s = np.cos(thetas), np.sin(thetas)
    diagonal = np.arange(dim)
    r[:, diagonal, diagonal] = 1.0
    r[:, [i, j], [i, j]] = c[:, None]
    r[:, i, j] = -s
    r[:, j, i] = s
    return r


def rotation_partial_trace_form(
    v0: StinespringIsometry,
    plane: tuple[int, int],
    theta_fn: Callable[[int], float],
) -> PartialTraceForm:
    """Partial-trace form with ``W(n)`` a plane rotation of the embedding range.

    ``W(n) = R(theta_fn(n)) P0`` where P0 projects onto the range of v0, so
    the terms converge to the limit in operator norm as the angles shrink.
    The W rule calls ``theta_fn`` once per index, builds the block's
    rotations as one stack and multiplies it by P0 in one batched product.
    The plane is checked here, before any term is built.
    """
    p0 = v0.v @ dagger(v0.v)
    dim = p0.shape[0]
    _givens_rotations(dim, plane[0], plane[1], [])

    def w(ns: tuple) -> np.ndarray:
        return _frozen(_givens_rotations(dim, plane[0], plane[1], [theta_fn(n) for n in ns]) @ p0)

    return PartialTraceForm(v0, w)


def tensor_sequence(a: ChannelSequence, b: ChannelSequence) -> ChannelSequence:
    """Elementwise tensor product of two sequences."""
    return ChannelSequence(
        tensor_channels(a.limit, b.limit),
        lambda n: tensor_channels(a.term(n), b.term(n)),
    )


def compose_sequence(first: ChannelSequence, then: ChannelSequence) -> ChannelSequence:
    """Elementwise composition: term n applies ``first.term(n)``, then ``then.term(n)``.

    Composing the limits checks that the dimensions fit.
    """
    return ChannelSequence(
        compose_channels(first.limit, then.limit),
        lambda n: compose_channels(first.term(n), then.term(n)),
    )


def complementary_sequence(source) -> ChannelSequence:
    """The sequence of complementary channels.

    For a :class:`PartialTraceForm` the complementary channel comes directly
    from the isometry ``W(n) V0``, sharing the form's environment.  For a
    plain :class:`ChannelSequence` each term's minimal dilation is padded to
    the common environment dim ``d_in * d_out`` (an upper bound on every
    Choi rank) so all complementary channels share one output space.
    """
    if isinstance(source, PartialTraceForm):
        return ChannelSequence(
            complementary_kraus(source.v0),
            lambda n: complementary_kraus(source.isometry(n)),
        )
    d_env = source.limit.d_in * source.limit.d_out

    def comp(ch: KrausChannel) -> KrausChannel:
        return complementary_kraus(pad_environment(minimal_stinespring(ch), d_env))

    return ChannelSequence(comp(source.limit), lambda n: comp(source.term(n)))

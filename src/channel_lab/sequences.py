"""Channel sequences, convergence defects, and the standard counterexamples.

A :class:`ChannelSequence` pairs a limit channel with a lazy rule for its
terms (index 1 and up; index 0 returns the limit).  Defects compare a term
against the limit over finite test families.  :func:`convergence_report`
takes them as one ``ensembles.Probes`` object, whose stacks are validated
when it is built.  :func:`strong_defect` and :func:`strongstar_defect` take
each family as a list of members or as a stack, and validate it per call by
the rules of ``Probes`` and their index by the rule of the sweeps, all before
any term is built:

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

All three come from one block kernel, which takes a block of built terms at
once; a single defect is a block of one.  A term's Choi matrix is one GEMM
over its stacked Kraus vectors, and reshuffling the stacked
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
report; a block holds at most ``SWEEP_BLOCK_ENTRIES`` Choi-matrix entries.

The Choi column never diagonalizes the (d_out*d_in)-square difference while
it has low rank.  With M the (K, d_out*d_in) matrix of stacked
``vec(A_k)``, ``J = M^T conj(M)``, so ``J_n - J_0 = A diag(I, -I) A^H`` for
``A = [M_n^T, M_0^T]``.  While ``K_n + K_0 < d_out*d_in`` its nonzero
eigenvalues are those of ``R diag(I, -I) R^H``, where R is A's
(K_n + K_0)-square QR factor, one batched QR for the terms of a block with
the same Kraus count; :func:`choi_defect` then diagonalizes no Choi
matrix.  Larger families diagonalize the dense difference, which every
Choi sweep stacks as the report does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    ValidationError,
    choi_matrix,
    compose_channels,
    dagger,
    tensor_channels,
    _integers,
    _kraus_matrix,
    _pure_parts,
    _require_within,
)
from .dilation import (
    complementary_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    pad_environment,
    _kraus_from_rows,
)
from .ensembles import Probes, _family, _states
from .report import Report

#: A compression term adds no replacement operator for a Kraus row below this norm.
ZERO_ROW_NORM = 1e-14
#: At most this many complex entries are stacked at once by one block of a
#: sweep: Choi-matrix entries (indices x (d_out*d_in)^2) in
#: :func:`convergence_report` and :func:`choi_defects`, characteristic values
#: (indices x states x points) in ``gaussian.param_convergence_check``.
SWEEP_BLOCK_ENTRIES = 8192

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


def _probe_columns(stack: np.ndarray, what: str, shape: tuple) -> np.ndarray:
    """A validated probe stack laid out as the columns of one contiguous array.

    Every member must have ``shape``, the one the limit acts on: d_in-square
    states, d_in vectors, d_out-square observables.  Matrices enter as their
    row-major ``vec``, so the result is (dim^2, size); vectors give (dim, size).
    """
    if stack.shape[1:] != shape:
        raise ValidationError(f"{what} family has a member of shape {stack.shape[1:]}, the limit needs {shape}")
    return np.ascontiguousarray(stack.reshape(len(stack), -1).T)


def _term_blocks(seq: ChannelSequence, ns: list, entries_per_term: int):
    """The built terms of ``ns`` in index order, a block at a time, each with its row slice.

    A block holds at most ``SWEEP_BLOCK_ENTRIES`` entries at
    ``entries_per_term`` per term (at least one term), so the stacks a block
    builds do not grow with ``len(ns)``.
    """
    block = max(1, SWEEP_BLOCK_ENTRIES // entries_per_term)
    for start in range(0, len(ns), block):
        yield slice(start, start + block), [seq.term(n) for n in ns[start:start + block]]


def _deltas(terms, limit_choi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``J_n - J_0`` and ``S_n - S_0`` stacked over a block of built terms.

    ``S[(a,b),(i,j)] = J[(a,i),(b,j)]`` reshuffles a Choi matrix into the
    superoperator, so that with row-major ``vec`` ``vec(ch(X)) = S vec(X)``
    and ``vec(ch*(B)) = S^H vec(B)``.  The map is linear, so the reshuffle of
    ``J_n - J_0`` is ``S_n - S_0``.
    """
    d_out, d_in = terms[0].d_out, terms[0].d_in
    dj = np.stack([choi_matrix(t) for t in terms])
    dj -= limit_choi
    ds = dj.reshape(-1, d_out, d_in, d_out, d_in).transpose(0, 1, 3, 2, 4).reshape(-1, d_out**2, d_in**2)
    return dj, ds


def _output_diffs(ds: np.ndarray, states: np.ndarray, d_out: int) -> np.ndarray:
    """``(term - limit)(rho)`` for every term and stacked state, as a (B, S, d_out, d_out) array.

    One GEMM of the stacked ``S_n - S_0`` with the stacked states.
    """
    out = ds.reshape(-1, ds.shape[2]) @ states
    return out.reshape(len(ds), d_out * d_out, -1).transpose(0, 2, 1).reshape(len(ds), -1, d_out, d_out)


def _unless_identity(obs: np.ndarray) -> np.ndarray | None:
    """Stacked observable columns, or ``None`` when they are exactly the identity.

    The matrix units in row-major order are; for them :func:`_dual_norms`
    needs no product with the observables.
    """
    return None if np.array_equal(obs, np.eye(obs.shape[1])) else obs


def _dual_norms(ds: np.ndarray, obs: np.ndarray | None, vecs: np.ndarray, d_in: int) -> np.ndarray:
    """``||(term* - limit*)(B) phi||_2`` for every term, observable and vector, as a (B, obs, vec) array.

    The dual difference of observable b is ``(S_n - S_0)^H vec(B)``, so row o
    of ``obs^H (S_n - S_0)``, read as a d_in-square matrix, is its conjugate,
    and the conjugates of its images are that matrix times ``conj(vecs)``,
    with the same norms: one product with the observables and one GEMM with
    the vectors.  With ``obs`` None (the stack is the identity, see
    :func:`_unless_identity`) the rows are those of ``S_n - S_0`` itself
    and the product with the observables is skipped.
    """
    rows = ds if obs is None else obs.conj().T @ ds
    images = rows.reshape(-1, d_in) @ vecs.conj()
    return np.linalg.norm(images.reshape(len(ds), rows.shape[1], d_in, -1), axis=2)


def _hermitian_trace_norm(h: np.ndarray) -> np.ndarray:
    """Trace norms of a Hermitian matrix or a stack of them: sums of |eigenvalues|.

    The input is symmetrized first, so rounding-level skew is ignored.
    """
    herm = (h + h.conj().swapaxes(-1, -2)) / 2
    return np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1)


def _choi_gaps(terms, limit: KrausChannel, dj: np.ndarray) -> np.ndarray:
    """``trace_norm(J_n - J_0)`` for a block of built terms.

    ``J_n - J_0 = A diag(I, -I) A^H`` with ``A = [M_n^T, M_0^T]``.  While A
    has fewer columns than rows (``K_n + K_0 < d_out*d_in``), the difference's
    nonzero eigenvalues are those of ``R diag(I, -I) R^H`` for the QR factor
    R of A, a (K_n + K_0)-square matrix; the terms with one Kraus count share
    one batched QR.  The other terms diagonalize their dense difference,
    their slice of the block's stacked ``dj``.  Equal families give exactly 0.
    """
    m_0 = _kraus_matrix(limit)
    k_0, size = m_0.shape
    gaps = np.zeros(len(terms))
    by_count, dense = {}, []
    for i, term in enumerate(terms):
        m_n = _kraus_matrix(term)
        if np.array_equal(m_n, m_0):
            continue
        if len(m_n) + k_0 < size:
            by_count.setdefault(len(m_n), []).append(i)
        else:
            dense.append(i)
    for k_n, rows in by_count.items():
        pairs = np.stack([np.concatenate([_kraus_matrix(terms[i]), m_0]) for i in rows])
        r = np.linalg.qr(pairs.transpose(0, 2, 1), mode="r")
        signs = np.repeat([1.0, -1.0], [k_n, k_0])
        gaps[rows] = _hermitian_trace_norm((r * signs) @ r.conj().swapaxes(-1, -2))
    if dense:
        gaps[dense] = _hermitian_trace_norm(dj[dense])
    return gaps


def strong_defect(seq: ChannelSequence, n: int, test_states) -> float:
    """Largest trace-norm gap ``||term(rho) - limit(rho)||_1`` over test states."""
    (n,) = _integers([n], "strong_defect: index")
    states = _probe_columns(_states(test_states), "test state", (seq.limit.d_in,) * 2)
    _, ds = _deltas([seq.term(n)], choi_matrix(seq.limit))
    return float(_hermitian_trace_norm(_output_diffs(ds, states, seq.limit.d_out)).max())


def strongstar_defect(seq: ChannelSequence, n: int, test_obs, test_vectors) -> float:
    """Largest dual-side gap ``||(term* - limit*)(B) phi||_2`` over the test grid."""
    (n,) = _integers([n], "strongstar_defect: index")
    obs, vecs = _family(test_obs, "test observable", 2), _family(test_vectors, "test vector", 1)
    obs = _unless_identity(_probe_columns(obs, "test observable", (seq.limit.d_out,) * 2))
    vecs = _probe_columns(vecs, "test vector", (seq.limit.d_in,))
    _, ds = _deltas([seq.term(n)], choi_matrix(seq.limit))
    return float(_dual_norms(ds, obs, vecs, seq.limit.d_in).max())


def choi_defects(seq: ChannelSequence, ns) -> np.ndarray:
    """:func:`choi_defect` at every index of ``ns``, in order, swept in blocks."""
    ns = _integers(ns, "choi_defects: indices")
    limit_choi = choi_matrix(seq.limit)
    gaps = np.empty(len(ns))
    for rows, terms in _term_blocks(seq, ns, limit_choi.size):
        gaps[rows] = _choi_gaps(terms, seq.limit, _deltas(terms, limit_choi)[0])
    return gaps / seq.limit.d_in


def choi_defect(seq: ChannelSequence, n: int) -> float:
    """``trace_norm(J(term) - J(limit)) / d_in``, a diamond-distance lower bound.

    Computed from the two stacked Kraus matrices: while the term and the
    limit together have fewer Kraus operators than ``d_out * d_in``, from a
    QR factor of their size, diagonalizing no Choi matrix; otherwise from the
    dense difference.  Equal families give exactly 0.
    """
    return float(choi_defects(seq, [n])[0])


def convergence_report(seq: ChannelSequence, ns, probes: Probes, test_family: str = "") -> Report:
    """Sweep all three defect kinds over the given indices.

    ``probes`` holds the test states, observables and vectors as validated
    stacks; each is laid out as the columns of one array once per report,
    and the limit's Choi matrix is built once per report.  The indices are
    swept in blocks of at most
    ``SWEEP_BLOCK_ENTRIES // (d_out*d_in)^2`` (at least one), so memory does
    not grow with ``len(ns)``.  Each block builds its terms in index order,
    once per index, and stacks their Choi matrices (one GEMM each) minus the
    limit's; reshuffled, the stack is every ``S_n - S_0``.  One product with
    the stacked states gives every output difference of the block, one with
    the stacked observables every dual difference; when the observables are
    the matrix units in order (their stack is exactly the identity, checked
    once per report) that product is skipped and the rows of the stack are
    the dual differences.  Trace norms are sums of
    |eigenvalues| of the Hermitian differences, one batched ``eigvalsh`` per
    block; the Choi column takes them from the small QR core described in
    the module docstring whenever the two Kraus families are small enough.
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
    obs = _unless_identity(_probe_columns(probes.observables, "test observable", (d_out, d_out)))
    vecs = _probe_columns(probes.vectors, "test vector", (d_in,))
    limit_choi = choi_matrix(seq.limit)
    strong, star, choi = np.empty((3, len(ns)))
    strong_args, star_args = np.empty((2, len(ns)), dtype=np.intp)
    for rows, terms in _term_blocks(seq, ns, limit_choi.size):
        dj, ds = _deltas(terms, limit_choi)
        gaps = _hermitian_trace_norm(_output_diffs(ds, states, d_out))
        duals = _dual_norms(ds, obs, vecs, d_in).reshape(len(terms), -1)
        strong[rows], strong_args[rows] = gaps.max(axis=1), gaps.argmax(axis=1)
        star[rows], star_args[rows] = duals.max(axis=1), duals.argmax(axis=1)
        choi[rows] = _choi_gaps(terms, seq.limit, dj)
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
        head = ch.stack.copy()
        head[:, r:] = 0
        # One replacement operator sqrt(p) v (x) row per kept eigenpair (p, v) of
        # sigma and per nonzero row m >= r of each A_k, eigenpair-major.
        rows = ch.stack[:, r:].reshape(-1, ch.d_in)
        rows = rows[np.linalg.norm(rows, axis=1) >= ZERO_ROW_NORM]
        outers = vecs.T[:, None, :, None] * rows[None, :, None, :]
        branch = roots[:, None, None, None] * outers
        return KrausChannel(np.concatenate([head, branch.reshape(-1, ch.d_out, ch.d_in)]))

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
    if d < 3:
        raise ValidationError(f"the swap family needs dimension >= 3, got {d}")
    psi = np.zeros(d, dtype=np.complex128)
    psi[d - 1] = 1.0
    # ws[n - 1] maps e_(i-1) to e_(i-1) for i != n and e_(n-1) to psi, i = 1..d-1.
    ws = np.zeros((d - 1, d, d), dtype=np.complex128)
    frame = np.arange(d - 1)
    ws[:, frame, frame] = 1.0
    ws[frame, frame, frame] = 0.0
    ws[frame, d - 1, frame] = 1.0
    return [PartialIsometry(w) for w in ws], psi


@dataclass(frozen=True, eq=False)
class PartialTraceForm:
    """A sequence presented as ``rho -> Tr_env W(n) V0 rho V0* W(n)*``.

    ``v0`` fixes the embedding and the output/environment split; each
    ``w_fn(n)`` must be a partial isometry whose initial projector is the
    range projector of ``v0`` (checked on access, within TOL_VALID), so that
    every composite ``W(n) V0`` is again an isometry.
    """

    v0: StinespringIsometry
    w_fn: Callable[[int], PartialIsometry]
    #: The range projector ``v0 v0*`` of the embedding, computed once.
    range0: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "range0", self.v0.v @ dagger(self.v0.v))

    def isometry(self, n: int) -> StinespringIsometry:
        if n < 0:
            raise ValidationError(f"sequence index must be >= 0, got {n}")
        if n == 0:
            return self.v0
        return StinespringIsometry(self._product(n), self.v0.d_out, self.v0.d_env)

    def _product(self, n: int) -> np.ndarray:
        """``W(n) V0`` for n >= 1, once W(n) is checked against the embedding range."""
        w = self.w_fn(n)
        _require_within(
            w.initial_projector - self.range0,
            lambda norm: f"term {n}: initial projector deviates from the embedding range by {norm:.3e}",
        )
        return w.w @ self.v0.v


def channels_from_partial_isometries(form: PartialTraceForm) -> ChannelSequence:
    """The channel sequence of a partial-trace form.

    Each term's compatibility of W(n) with the embedding is checked when the
    term is accessed.  The product ``W(n) V0`` is sliced straight into its
    Kraus family, whose trace-preservation check is the isometry check
    (``sum A*A`` is ``V*V`` summed in another order), so it runs once.
    """
    v0 = form.v0
    return ChannelSequence(
        kraus_from_isometry(v0), lambda n: _kraus_from_rows(form._product(n), v0.d_out, v0.d_env)
    )


def givens_rotation(dim: int, i: int, j: int, theta: float) -> np.ndarray:
    """The rotation by ``theta`` in the (e_i, e_j) coordinate plane."""
    if i == j or not (0 <= i < dim and 0 <= j < dim):
        raise ValidationError(f"invalid rotation plane ({i}, {j}) in dim {dim}")
    r = np.eye(dim, dtype=np.complex128)
    c, s = np.cos(theta), np.sin(theta)
    r[i, i] = c
    r[j, j] = c
    r[i, j] = -s
    r[j, i] = s
    return r


def rotation_partial_trace_form(
    v0: StinespringIsometry,
    plane: tuple[int, int],
    theta_fn: Callable[[int], float],
) -> PartialTraceForm:
    """Partial-trace form with ``W(n)`` a plane rotation of the embedding range.

    ``W(n) = R(theta_fn(n)) P0`` where P0 projects onto the range of v0, so
    the terms converge to the limit in operator norm as the angles shrink.
    """
    p0 = v0.v @ dagger(v0.v)
    dim = p0.shape[0]

    def w(n: int) -> PartialIsometry:
        return PartialIsometry(givens_rotation(dim, plane[0], plane[1], theta_fn(n)) @ p0)

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

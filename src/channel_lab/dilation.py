"""Conversions between channel representations and unitary completions.

The three presentations of one channel, and how this module moves between
them:

* Kraus family {A_i}  <->  Stinespring isometry V with
  ``V phi = sum_i (A_i phi) (tensor) e_i``, so the i-th Kraus operator is
  the environment-basis slice ``(I (x) <e_i|) V``.  Both are one array
  read two ways: V reshaped to (d_out, d_env, d_in) is the (K, d_out, d_in)
  Kraus stack with its first two axes swapped, so converting is a
  transpose-and-reshape.
* Kraus family  ->  minimal isometry, whose environment dimension is the
  Choi rank.  The Choi matrix is ``M^T conj(M)`` for the (K, d_out*d_in)
  matrix M of stacked ``vec(A_k)``, so its eigenpairs come from a thin SVD
  of M, whose cost grows with K rather than with the (d_out*d_in)^2 Choi
  matrix, which is never formed.
* Stinespring isometry V  ->  unitary U on input (x) ancilla with
  ``U (phi (x) tau_0) = (V phi) (x) chi_0``, built factor by factor: off
  that subspace U pairs ``e_i (x) T`` (T the kernel basis of
  ``tau_0 tau_0*``) with the output-side kernel ``[I (x) e_x for x != 0,
  C (x) chi_0]`` (C the kernel basis of ``V V*``), so no eigensolve is
  larger than the ancilla or the output (x) environment space.

Results are deterministic: orthonormal complement bases and the minimal
dilation's Kraus operators follow the reproducible eigenpair convention of
:mod:`channel_lab.core`, so the same input always yields the same output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    STATE_RANK_CUTOFF,
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    dagger,
    ordered_eigh,
    _cmat,
    _eigen_order,
    _fix_phase,
    _kraus_matrix,
    _require_within,
)

#: Pruning threshold for Choi eigenvalues (squared singular values of the
#: stacked Kraus matrix) when extracting a minimal dilation.
CHOI_RANK_CUTOFF = 1e-10
#: Below this norm a projected tracking candidate counts as degenerate.
TRACKING_DEGENERACY = 1e-8
#: How far from 1 the norm of the ancilla vector tau_0 may be.
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class UnitaryDilation:
    """A unitary model of a channel: ``rho -> Tr_env U (rho (x) |tau_0><tau_0|) U*``.

    ``u`` acts on the d_in * d_anc product space, which is re-read on the
    output side as d_out * d_env; the two products agree exactly.
    """

    u: UnitaryOp
    tau0: np.ndarray
    d_in: int
    d_anc: int
    d_out: int
    d_env: int

    def __post_init__(self):
        dims = (self.d_in, self.d_anc, self.d_out, self.d_env)
        if any(d < 1 for d in dims):
            raise ValidationError(f"dimensions must be positive, got {dims}")
        if self.d_in * self.d_anc != self.d_out * self.d_env:
            raise ValidationError(
                f"dimension products disagree: {self.d_in}*{self.d_anc} != "
                f"{self.d_out}*{self.d_env}"
            )
        if self.u.dim != self.d_in * self.d_anc:
            raise ValidationError(
                f"unitary of dim {self.u.dim} does not act on a "
                f"{self.d_in}*{self.d_anc} space"
            )
        object.__setattr__(self, "tau0", _ancilla_vector(self.tau0, self.d_anc))


def kraus_from_isometry(v: StinespringIsometry) -> KrausChannel:
    """Slice an isometry into its environment-basis Kraus family.

    Returns exactly ``d_env`` operators; zero slices are kept so the
    indexing matches the environment basis.
    """
    return KrausChannel(v.v.reshape(v.d_out, v.d_env, v.d_in).transpose(1, 0, 2))


def isometry_from_kraus(ch: KrausChannel) -> StinespringIsometry:
    """The isometry ``phi -> sum_i A_i phi (x) e_i``: the Kraus stack, first two axes swapped."""
    k, d_out, d_in = ch.stack.shape
    return StinespringIsometry(ch.stack.transpose(1, 0, 2).reshape(d_out * k, d_in), d_out, k)


def minimal_stinespring(ch: KrausChannel) -> StinespringIsometry:
    """A Stinespring isometry whose environment dimension is the Choi rank.

    With M the (K, d_out*d_in) matrix of stacked ``vec(A_k)`` and its thin
    SVD ``M = U diag(s) Vh``, the Choi matrix is ``J = M^T conj(M) =
    Vh^T diag(s^2) conj(Vh)``: its nonzero eigenvalues are ``s^2`` with the
    rows of ``Vh`` as eigenvectors, so J itself is never formed.  Pairs with
    ``s^2`` above ``CHOI_RANK_CUTOFF`` are kept, in the order and with the
    phases :func:`~channel_lab.core.ordered_eigh` would give them, and the
    Kraus operators ``s_k Vh[k]`` are stacked.
    """
    _, s, vh = np.linalg.svd(_kraus_matrix(ch), full_matrices=False)
    vals = s * s
    vecs, order = _eigen_order(vals, vh.T)
    # Trace preservation makes sum(vals) = ||M||_F^2 about d_in, so the largest is
    # at least about 1/d_out and one pair always survives the cutoff.
    order = order[vals[order] > CHOI_RANK_CUTOFF]
    ops = (s[order] * vecs[:, order]).T.reshape(-1, ch.d_out, ch.d_in)
    return isometry_from_kraus(KrausChannel(ops))


def complementary_kraus(v: StinespringIsometry) -> KrausChannel:
    """The complementary channel ``rho -> Tr_out V rho V*`` as a Kraus family.

    Kraus operators are the output-basis slices ``(<b| (x) I_env) V``, one
    per output basis vector.
    """
    return KrausChannel(v.v.reshape(v.d_out, v.d_env, v.d_in))


def pad_environment(v: StinespringIsometry, d_env: int) -> StinespringIsometry:
    """Embed an isometry into a larger environment by appending zero slices."""
    if d_env < v.d_env:
        raise ValidationError(
            f"cannot shrink environment from dim {v.d_env} to dim {d_env}"
        )
    blocks = np.zeros((v.d_out, d_env, v.d_in), dtype=np.complex128)
    blocks[:, : v.d_env, :] = v.v.reshape(v.d_out, v.d_env, v.d_in)
    return StinespringIsometry(blocks.reshape(v.d_out * d_env, v.d_in), v.d_out, d_env)


def stinespring_from_unitary(dil: UnitaryDilation) -> StinespringIsometry:
    """Restrict a unitary dilation to the isometry ``phi -> U (phi (x) tau_0)``."""
    embed = np.kron(np.eye(dil.d_in), dil.tau0.reshape(-1, 1))
    return StinespringIsometry(dil.u.u @ embed, dil.d_out, dil.d_env)


def to_kraus(obj) -> KrausChannel:
    """The Kraus family of a Kraus, Stinespring or unitary-dilation object; others are rejected."""
    if isinstance(obj, UnitaryDilation):
        obj = stinespring_from_unitary(obj)
    if isinstance(obj, StinespringIsometry):
        return kraus_from_isometry(obj)
    if isinstance(obj, KrausChannel):
        return obj
    raise ValidationError(f"object of type {type(obj).__name__} is not a channel representation")


def unitary_from_isometry(
    v: StinespringIsometry,
    d_anc: int | None = None,
    d_extra: int | None = None,
    tau0: np.ndarray | None = None,
) -> UnitaryDilation:
    """Extend an isometry to a unitary dilation.

    The unitary acts on input (x) ancilla (dim ``d_anc``) and satisfies
    ``U (phi (x) tau_0) = (V phi) (x) chi_0`` with ``chi_0 = e_0`` in an
    extra dim ``d_extra`` factor appended to the environment; ``tau0``
    defaults to ``e_0`` too.
    Defaults ``d_anc = d_out * d_env`` and ``d_extra = d_in`` always make
    the dimension products match; other choices must satisfy
    ``d_in * d_anc = d_out * d_env * d_extra`` exactly.

    U is built from the tensor factors, ``U = [lift | R] [embed | L]*``.
    ``embed = I (x) tau_0`` and ``lift = V (x) chi_0``; the input-side kernel
    is ``L = I_{d_in} (x) T`` with T the kernel basis of ``tau_0 tau_0*``;
    the output-side kernel is ``R = [I_D (x) (e_1 ... e_{d_extra-1}),
    C (x) chi_0]`` with D = d_out * d_env and C the kernel basis of
    ``V V*``.  Columns of L and R pair up in order, so the largest
    eigensolve is of size max(d_anc, D), and most entries of U are exact
    zeros.
    """
    d_anc = d_anc if d_anc is not None else v.d_out * v.d_env
    d_extra = d_extra if d_extra is not None else v.d_in
    if v.d_in * d_anc != v.d_out * v.d_env * d_extra:
        raise ValidationError(
            f"dimension products disagree: {v.d_in}*{d_anc} != "
            f"{v.d_out}*{v.d_env}*{d_extra}"
        )
    tau0 = _e0(d_anc) if tau0 is None else _ancilla_vector(tau0, d_anc)

    d_big = v.d_out * v.d_env
    ker_anc = _kernel_basis(np.outer(tau0, tau0.conj()))
    ker_range = _kernel_basis(v.v @ dagger(v.v))
    n_spare = d_big * (d_extra - 1)
    # D - d_in kernel columns: R then pairs with L's d_in * (d_anc - 1) exactly when
    # the dimension products agree, as checked above.
    n_right = n_spare + ker_range.shape[1]

    # Output-side columns as (output (x) environment, extra, input, ancilla): the one
    # paired with e_i (x) [tau_0 | T][:, a] is lift's column i for a = 0, else R's
    # column i * (d_anc - 1) + a - 1.
    right = np.zeros((d_big, d_extra, n_right), dtype=np.complex128)
    right[:, 1:, :n_spare] = np.eye(n_spare).reshape(d_big, d_extra - 1, n_spare)
    right[:, 0, n_spare:] = ker_range
    cols = np.zeros((d_big, d_extra, v.d_in, d_anc), dtype=np.complex128)
    cols[:, 0, :, 0] = v.v
    cols[..., 1:] = right.reshape(d_big, d_extra, v.d_in, d_anc - 1)
    # Right-multiplying by [embed | L]* = I (x) [tau_0 | T]* acts on the ancilla axis only.
    n = v.d_in * d_anc
    u = cols.reshape(n, v.d_in, d_anc) @ dagger(np.column_stack([tau0, ker_anc]))
    return UnitaryDilation(
        u=UnitaryOp(u.reshape(n, n)),
        tau0=tau0,
        d_in=v.d_in,
        d_anc=d_anc,
        d_out=v.d_out,
        d_env=v.d_env * d_extra,
    )


def _e0(dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = 1.0
    return out


def _ancilla_vector(vec, dim: int) -> np.ndarray:
    """``vec`` as a read-only complex array, checked to be a unit vector in dim ``dim``."""
    out = _cmat(vec)
    if out.shape != (dim,):
        raise ValidationError(f"ancilla vector of shape {out.shape} does not live in dim {dim}")
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"ancilla vector has norm {norm:.12g}, expected 1")
    return out


def purify(sigma: DensityOperator) -> np.ndarray:
    """A purification ``sum_k sqrt(p_k) v_k (x) e_k`` of rank(sigma) ancilla dim.

    Eigenvalues at or below ``STATE_RANK_CUTOFF`` are dropped.  The
    eigendecomposition is the deterministic one, and the returned vector's
    first nonzero amplitude is rotated to be real positive, so the
    construction is continuous along families whose eigendecompositions
    converge.
    """
    vals, vecs = ordered_eigh(sigma.matrix)
    keep = vals > STATE_RANK_CUTOFF
    # Row-major ravel of the (dim, rank) amplitudes: entry (a, k) is sqrt(p_k) v_k[a].
    return _fix_phase((np.sqrt(vals[keep]) * vecs[:, keep]).ravel())


def complete_unitary(w: PartialIsometry) -> UnitaryOp:
    """The deterministic unitary U with ``U (W*W) = W``.

    U agrees with W on the initial subspace and maps the deterministic
    orthonormal basis of ker(W*W) onto the one of ker(WW*).  Requires a
    square W; both kernels then have ``d - rank`` columns, since W*W and WW*
    are projectors with the same nonzero spectrum, and ``UnitaryOp`` checks
    the result.
    """
    if w.d_in != w.d_out:
        raise ValidationError(
            f"only square partial isometries complete to a unitary, got shape "
            f"({w.d_out}, {w.d_in})"
        )
    ker_initial = _kernel_basis(w.initial_projector)
    ker_range = _kernel_basis(w.range_projector)
    return UnitaryOp(w.w + ker_range @ dagger(ker_initial))


def _kernel_basis(projector: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the kernel of a projector.

    The columns of :func:`~channel_lab.core.ordered_eigh` with eigenvalue
    below 1/2.  Those eigenvalues sort first and their ties are broken by the
    same keys, so only their eigenpairs are phase-fixed and ordered.
    """
    w, v = np.linalg.eigh(np.asarray(projector, dtype=np.complex128))
    low = w < 0.5
    vecs, order = _eigen_order(w[low], v[:, low])
    return vecs[:, order]


def _tracked_extension(
    w_seq: list[PartialIsometry], reference: UnitaryOp
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel basis (d, m) of the shared initial projector, and the (T, m, d) extensions."""
    if not w_seq:
        raise ValidationError("need at least one partial isometry to track")
    p = w_seq[0].initial_projector
    if any(w.w.shape != p.shape for w in w_seq):
        raise ValidationError("tracked completion needs square partial isometries of one dimension")
    for k, w in enumerate(w_seq):
        _require_within(
            w.initial_projector - p,
            lambda norm: f"term {k} has a different initial projector (deviation {norm:.3e})",
        )
    if reference.dim != w_seq[0].d_in:
        raise ValidationError(
            f"reference of dim {reference.dim} does not act on dim {w_seq[0].d_in}"
        )
    _require_within(
        reference.u @ p - w_seq[0].w,
        lambda norm: f"reference does not complete the first term (deviation {norm:.3e})",
    )

    kernel = _kernel_basis(p)
    ref_basis = (reference.u @ kernel).T
    extensions = np.empty((len(w_seq),) + ref_basis.shape, dtype=np.complex128)
    # Sequential Gram-Schmidt, one step for all terms: each vector is orthogonal
    # to its term's range grown so far.
    grown = np.stack([w.range_projector for w in w_seq])
    for j, target in enumerate(ref_basis):
        candidates = target - grown @ target
        norms = np.linalg.norm(candidates, axis=1)
        tracked = norms > TRACKING_DEGENERACY
        ext = extensions[:, j]
        ext[tracked] = candidates[tracked] / norms[tracked, None]
        for n in np.flatnonzero(~tracked):
            ext[n] = _kernel_basis(grown[n])[:, 0]
        grown += ext[:, :, None] * ext[:, None, :].conj()
    return kernel, extensions


def tracked_complete_unitary(w_seq: list[PartialIsometry], reference: UnitaryOp) -> list[UnitaryOp]:
    """Complete every term of a shared-initial-projector family to a unitary.

    All terms must share one initial projector P, and ``reference`` must
    complete the first term.  The reference's images of the deterministic
    kernel basis of P are projected onto the orthocomplement of each term's
    range, grown by the vectors already chosen, and renormalized; when a
    projection is numerically degenerate (norm at most
    ``TRACKING_DEGENERACY``) the first deterministic complement vector is
    substituted instead, which is the step that can break convergence of
    the unitaries even when the isometries themselves converge in the strong
    operator sense.  Term n's unitary is ``U_n = W_n + E_n K*``, with K the
    kernel basis as columns and E_n the term's extension vectors as columns,
    so a constant family reproduces the reference exactly and families whose
    ranges converge vector by vector yield convergent unitaries.

    Each reference vector is one array step over all T terms: the T
    projections and their norms come from one batched product, and only the
    degenerate terms take an eigensolve of their grown range.  A term whose
    initial projector differs from P by more than ``TOL_VALID`` in operator
    norm is rejected, the first such term by its index; only terms above the
    tolerance in Frobenius norm pay an SVD for that check.  The extensions
    are not checked on their own: ``K*(U*U - I)K = E*E - I`` and
    ``P(U*U - I)K = W*E``, so the ``UnitaryOp`` check of every U_n already
    bounds their orthonormality and their overlap with the range by
    ``TOL_VALID``.
    """
    kernel, extensions = _tracked_extension(w_seq, reference)
    return [UnitaryOp(w.w + ext.T @ dagger(kernel)) for w, ext in zip(w_seq, extensions)]

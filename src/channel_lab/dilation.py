"""Conversions between channel representations and unitary completions.

The three presentations of one channel, and how this module moves between
them:

* Kraus family {A_i}  <->  Stinespring isometry V with
  ``V phi = sum_i (A_i phi) (tensor) e_i``, so the i-th Kraus operator is
  the environment-basis slice ``(I (x) <e_i|) V``.  Both are one array
  read two ways: V reshaped to (d_out, d_env, d_in) is the (K, d_out, d_in)
  Kraus stack with its first two axes swapped, so converting is a
  transpose-and-reshape.
* Stinespring isometry V  ->  unitary U on input (x) ancilla with
  ``U (phi (x) tau_0) = (V phi) (x) chi_0``, built by completing the
  partial isometry that matches those two subspaces.

Completions are deterministic: orthonormal complement bases come from the
reproducible eigendecomposition in :mod:`channel_lab.core`, so the same
input always yields the same unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_VALID,
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    choi_matrix,
    dagger,
    opnorm,
    ordered_eigh,
    _cmat,
    _fix_phase,
)

#: Pruning threshold for Choi eigenvalues when extracting a minimal dilation.
CHOI_RANK_CUTOFF = 1e-10
#: Eigenvalue cutoff for the purification of a mixed state.
PURIFY_CUTOFF = 1e-12
#: Below this norm a projected tracking candidate counts as degenerate.
TRACKING_DEGENERACY = 1e-8


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
        t = _cmat(self.tau0)
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
        if t.shape != (self.d_anc,):
            raise ValidationError(
                f"ancilla vector of shape {t.shape} does not live in dim {self.d_anc}"
            )
        norm = np.linalg.norm(t)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"ancilla vector has norm {norm:.12g}, expected 1")
        object.__setattr__(self, "tau0", t)


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


def minimal_stinespring(ch: KrausChannel, cutoff: float = CHOI_RANK_CUTOFF) -> StinespringIsometry:
    """A Stinespring isometry whose environment dimension is the Choi rank.

    Kraus operators are read off the eigendecomposition of the Choi matrix
    (eigenvalues above ``cutoff`` kept, deterministic ordering), then stacked.
    """
    vals, vecs = ordered_eigh(choi_matrix(ch))
    keep = vals > cutoff
    if not keep.any():
        raise ValidationError("channel has numerically vanishing Choi matrix")
    ops = (np.sqrt(vals[keep]) * vecs[:, keep]).T.reshape(-1, ch.d_out, ch.d_in)
    return isometry_from_kraus(KrausChannel(ops))


def stinespring_span_rank(v: StinespringIsometry, rel_tol: float = 1e-8) -> int:
    """Rank of span{(B (x) I) V phi} over matrix units B and basis vectors phi.

    Equals d_out * d_env exactly when the isometry is minimal.  Since
    ``(|a><b| (x) I) V phi = |a> (x) sum_k <b|A_k|phi> e_k``, the rank is
    d_out times the rank of the (d_env, d_out*d_in) matrix M of stacked
    ``vec(A_k)``; the full span matrix has M's singular values, each d_out
    times, so ``rel_tol`` is relative to M's largest one.
    """
    m = kraus_from_isometry(v).stack.reshape(v.d_env, -1)
    svals = np.linalg.svd(m, compute_uv=False)
    return v.d_out * int(np.sum(svals > rel_tol * svals[0]))


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


def unitary_from_isometry(
    v: StinespringIsometry,
    d_anc: int | None = None,
    d_extra: int | None = None,
    tau0: np.ndarray | None = None,
    chi0: np.ndarray | None = None,
) -> UnitaryDilation:
    """Extend an isometry to a unitary dilation.

    The unitary acts on input (x) ancilla (dim ``d_anc``) and satisfies
    ``U (phi (x) tau_0) = (V phi) (x) chi_0`` with ``chi0`` a fixed unit
    vector in an extra dim ``d_extra`` factor appended to the environment.
    Defaults ``d_anc = d_out * d_env`` and ``d_extra = d_in`` always make
    the dimension products match; other choices must satisfy
    ``d_in * d_anc = d_out * d_env * d_extra`` exactly.
    """
    d_anc = d_anc if d_anc is not None else v.d_out * v.d_env
    d_extra = d_extra if d_extra is not None else v.d_in
    if v.d_in * d_anc != v.d_out * v.d_env * d_extra:
        raise ValidationError(
            f"dimension products disagree: {v.d_in}*{d_anc} != "
            f"{v.d_out}*{v.d_env}*{d_extra}"
        )
    tau0 = _unit_vector(tau0, d_anc, "ancilla")
    chi0 = _unit_vector(chi0, d_extra, "extra environment")

    # Partial isometry matching phi (x) tau_0 to (V phi) (x) chi_0.
    lift = np.kron(v.v, chi0.reshape(-1, 1))
    embed = np.kron(np.eye(v.d_in), tau0.reshape(-1, 1))
    u = complete_unitary(PartialIsometry(lift @ dagger(embed)))
    return UnitaryDilation(
        u=u,
        tau0=tau0,
        d_in=v.d_in,
        d_anc=d_anc,
        d_out=v.d_out,
        d_env=v.d_env * d_extra,
    )


def _unit_vector(vec, dim: int, what: str) -> np.ndarray:
    if vec is None:
        out = np.zeros(dim, dtype=np.complex128)
        out[0] = 1.0
        return out
    out = np.asarray(vec, dtype=np.complex128)
    if out.shape != (dim,):
        raise ValidationError(f"{what} vector of shape {out.shape} does not live in dim {dim}")
    norm = np.linalg.norm(out)
    if abs(norm - 1.0) > 1e-12:
        raise ValidationError(f"{what} vector has norm {norm:.12g}, expected 1")
    return out


def purify(sigma: DensityOperator, cutoff: float = PURIFY_CUTOFF) -> np.ndarray:
    """A purification ``sum_k sqrt(p_k) v_k (x) e_k`` of rank(sigma) ancilla dim.

    Eigenvalues below ``cutoff`` are dropped.  The eigendecomposition is the
    deterministic one, and the returned vector's first nonzero amplitude is
    rotated to be real positive, so the construction is continuous along
    families whose eigendecompositions converge.
    """
    vals, vecs = ordered_eigh(sigma.matrix)
    keep = vals > cutoff
    # Row-major ravel of the (dim, rank) amplitudes: entry (a, k) is sqrt(p_k) v_k[a].
    return _fix_phase((np.sqrt(vals[keep]) * vecs[:, keep]).ravel())


def complete_unitary(w: PartialIsometry) -> UnitaryOp:
    """The deterministic unitary U with ``U (W*W) = W``.

    U agrees with W on the initial subspace and maps the deterministic
    orthonormal basis of ker(W*W) onto the one of ker(WW*).  Requires a
    square W; raises if the two kernels disagree in numerical dimension,
    which cannot happen for an exact partial isometry.
    """
    if w.d_in != w.d_out:
        raise ValidationError(
            f"only square partial isometries complete to a unitary, got shape "
            f"({w.d_out}, {w.d_in})"
        )
    ker_initial = _kernel_basis(w.initial_projector)
    ker_range = _kernel_basis(w.range_projector)
    if ker_initial.shape[1] != ker_range.shape[1]:
        raise ValidationError(
            f"numerical kernel dimensions disagree: {ker_initial.shape[1]} vs "
            f"{ker_range.shape[1]}"
        )
    return UnitaryOp(w.w + ker_range @ dagger(ker_initial))


def _kernel_basis(projector: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the kernel of a projector."""
    vals, vecs = ordered_eigh(projector)
    return vecs[:, vals < 0.5]


@dataclass(frozen=True, eq=False)
class TrackedBasisExtension:
    """Per-term orthonormal complement bases tracked against a reference.

    ``extensions[n][j]`` extends the range of the n-th partial isometry; it
    is built from reference vector ``reference_basis[j]`` by projecting out
    the current range and renormalizing, so whenever the ranges converge to
    the reference range vector by vector, the extensions converge too.
    Each extension is orthonormal and orthogonal to its range projector
    within ``TOL_VALID``.
    """

    reference_basis: tuple
    extensions: tuple
    range_projectors: tuple

    def __post_init__(self):
        ref = tuple(_cmat(x) for x in self.reference_basis)
        exts = tuple(tuple(_cmat(x) for x in ext) for ext in self.extensions)
        projs = tuple(_cmat(p) for p in self.range_projectors)
        if len(exts) != len(projs):
            raise ValidationError(
                f"{len(exts)} extensions but {len(projs)} range projectors"
            )
        for ext, proj in zip(exts, projs):
            if len(ext) != len(ref):
                raise ValidationError(
                    f"extension of size {len(ext)} does not match reference size {len(ref)}"
                )
            if ext:
                mat = np.column_stack(ext)
                gram = opnorm(dagger(mat) @ mat - np.eye(len(ext)))
                if gram > TOL_VALID:
                    raise ValidationError(f"extension is not orthonormal (defect {gram:.3e})")
                overlap = opnorm(proj @ mat)
                if overlap > TOL_VALID:
                    raise ValidationError(
                        f"extension is not orthogonal to its range (defect {overlap:.3e})"
                    )
        object.__setattr__(self, "reference_basis", ref)
        object.__setattr__(self, "extensions", exts)
        object.__setattr__(self, "range_projectors", projs)


def tracked_basis_extension(
    w_seq: list[PartialIsometry],
    reference: UnitaryOp,
    degenerate_tol: float = TRACKING_DEGENERACY,
) -> TrackedBasisExtension:
    """Extend each term's range basis, tracking the reference completion.

    All terms must share one initial projector P, and ``reference`` must
    complete the first term.  The reference's images of the deterministic
    kernel basis of P are projected onto the orthocomplement of the current
    (sequentially grown) range and renormalized; when a projection is
    numerically degenerate (norm below ``degenerate_tol``) the first
    deterministic complement vector is substituted instead, which is the
    step that can break convergence of the resulting unitaries even when
    the isometries themselves converge in the strong operator sense.
    """
    if not w_seq:
        raise ValidationError("need at least one partial isometry to track")
    p = w_seq[0].initial_projector
    for k, w in enumerate(w_seq):
        drift = opnorm(w.initial_projector - p)
        if drift > TOL_VALID:
            raise ValidationError(
                f"term {k} has a different initial projector (deviation {drift:.3e})"
            )
        if w.d_in != w.d_out:
            raise ValidationError("tracked completion needs square partial isometries")
    if reference.dim != w_seq[0].d_in:
        raise ValidationError(
            f"reference of dim {reference.dim} does not act on dim {w_seq[0].d_in}"
        )
    mismatch = opnorm(reference.u @ p - w_seq[0].w)
    if mismatch > TOL_VALID:
        raise ValidationError(
            f"reference does not complete the first term (deviation {mismatch:.3e})"
        )

    kernel = _kernel_basis(p)
    ref_basis = tuple(reference.u @ kernel[:, j] for j in range(kernel.shape[1]))
    extensions = []
    projectors = []
    for w in w_seq:
        grown = w.range_projector.copy()
        ext = []
        for target in ref_basis:
            candidate = target - grown @ target
            norm = np.linalg.norm(candidate)
            if norm > degenerate_tol:
                vec = candidate / norm
            else:
                vec = _kernel_basis(grown)[:, 0]
            ext.append(vec)
            grown = grown + np.outer(vec, vec.conj())
        extensions.append(tuple(ext))
        projectors.append(w.range_projector)
    return TrackedBasisExtension(
        reference_basis=ref_basis,
        extensions=tuple(extensions),
        range_projectors=tuple(projectors),
    )


def tracked_complete_unitary(
    w_seq: list[PartialIsometry],
    reference: UnitaryOp,
    degenerate_tol: float = TRACKING_DEGENERACY,
) -> list[UnitaryOp]:
    """Complete every term of a shared-initial-projector family to a unitary.

    Completions reuse the tracked basis extension, so a constant family
    reproduces the reference exactly and families whose ranges converge
    vector by vector yield convergent unitaries.
    """
    tracked = tracked_basis_extension(w_seq, reference, degenerate_tol)
    kernel = _kernel_basis(w_seq[0].initial_projector)
    out = []
    for w, ext in zip(w_seq, tracked.extensions):
        u = w.w.astype(np.complex128).copy()
        for j, vec in enumerate(ext):
            u += np.outer(vec, kernel[:, j].conj())
        out.append(UnitaryOp(u))
    return out

"""Acceptance suite: one test and one printed verdict line per criterion.

Each test prints ``[PASS]``/``[FAIL] criterion N: ...`` with the measured
numbers, then asserts.  Tolerances are stated inline next to each check.
"""

import time

import numpy as np

from channel_lab import ensembles, sequences
from channel_lab.core import (
    DensityOperator,
    StinespringIsometry,
    channel_action,
    dual_action,
    identity_channel,
    max_action_deviation,
    opnorm,
)
from channel_lab.dilation import (
    complete_unitary,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    stinespring_from_unitary,
    unitary_from_isometry,
)
from channel_lab.gaussian import (
    GaussianChannel,
    GaussianState,
    apply_gaussian,
    attenuator,
    attenuator_output_distance,
    attenuator_sequence,
    char_fn,
    dual_weyl_symbol,
    param_convergence_check,
    symplectic_form,
    validate_channel,
    validate_state,
    vacuum,
    z_grid,
)

SEED = 987654321


def _record(capsys, ok, num, text):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_duality(capsys):
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        dim = (2, 3, 4, 6)[i % 4]
        ch = ensembles.random_kraus_channel(dim, dim, int(rng.integers(1, 5)), rng)
        rho = ensembles.random_density(dim, rng)
        b = ensembles.crandn((dim, dim), rng)
        lhs = np.trace(channel_action(ch, rho.matrix) @ b)
        rhs = np.trace(rho.matrix @ dual_action(ch, b))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _record(capsys, ok, 1, f"duality on 200 triples, max gap {worst:.3e} (<= 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_representation_round_trips(capsys):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(100):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n_ops = int(rng.integers(1, 5))
        if d_out * n_ops < d_in:
            n_ops = 4
        ch = ensembles.random_kraus_channel(d_in, d_out, n_ops, rng)
        v = isometry_from_kraus(ch)
        dev1 = max_action_deviation(ch, kraus_from_isometry(v))
        dev2 = max_action_deviation(
            ch, kraus_from_isometry(stinespring_from_unitary(unitary_from_isometry(v)))
        )
        dev3 = max_action_deviation(ch, kraus_from_isometry(minimal_stinespring(ch)))
        worst = max(worst, dev1, dev2, dev3)
    ok = worst <= 1e-8
    _record(capsys, ok, 2, f"100 channels, three round trips, max action deviation {worst:.3e} (<= 1e-8)")


def test_criterion_3_unitary_completion(capsys):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        w = ensembles.random_partial_isometry(dim, rank, rng)
        u = complete_unitary(w).u
        eye = np.eye(dim)
        worst = max(
            worst,
            opnorm(u.conj().T @ u - eye),
            opnorm(u @ u.conj().T - eye),
            opnorm(u @ w.initial_projector - w.w),
        )
    ok = worst <= 1e-10
    _record(capsys, ok, 3, f"100 completions up to dim 8, max identity/agreement defect {worst:.3e} (<= 1e-10)")


def test_criterion_4_separation_witness(capsys):
    d = 16
    terms, psi = sequences.swap_counterexample(d)
    p = terms[0].initial_projector
    witness_err = 0.0
    exact_zero = True
    for n, w in enumerate(terms, start=1):
        witness_err = max(witness_err, abs(np.linalg.norm((w.w.conj().T - p) @ psi) - 1.0))
        for j in range(1, n):
            # n > j: the n-th term has already released the j-th frame vector
            tau = np.eye(d, dtype=complex)[j - 1]
            if np.linalg.norm((w.w - p) @ tau) != 0.0:
                exact_zero = False
    ok = witness_err <= 1e-10 and exact_zero
    _record(
        capsys, ok, 4,
        f"swap family d=16, witness defect 1.0 within {witness_err:.3e} (<= 1e-10), "
        f"per-vector defects exactly 0 for n > j: {exact_zero}",
    )


def test_criterion_5_compression_fingerprint(capsys):
    rng = np.random.default_rng(SEED + 3)
    base = ensembles.random_kraus_channel(2, 8, 3, rng)
    replacement = np.zeros((8, 8))
    replacement[0, 0] = 1.0
    seq = sequences.compression_sequence(base, DensityOperator(replacement), list(range(1, 9)))
    obs = ensembles.matrix_unit_observables(8)
    vecs = ensembles.default_test_vectors(2, rng)
    ss = [sequences.strongstar_defect(seq, n, obs, vecs) for n in range(1, 9)]
    monotone = all(b <= a + 1e-12 for a, b in zip(ss, ss[1:]))
    final_zero = ss[-1] <= 1e-10

    ident = sequences.compression_sequence(
        identity_channel(8), DensityOperator(np.eye(8) / 8), list(range(1, 9))
    )
    choi_rank1 = sequences.choi_defect(ident, 1)
    ok = monotone and final_zero and choi_rank1 > 0.1
    _record(
        capsys, ok, 5,
        f"strongstar over ranks nonincreasing: {monotone}, full-rank value {ss[-1]:.3e} (<= 1e-10), "
        f"identity-base choi defect at rank 1 = {choi_rank1:.6f} (> 0.1)",
    )


def test_criterion_6_gaussian_anchors(capsys):
    anchor = attenuator_output_distance(0.6, 0.5, 100.0)
    part_a = abs(anchor - 2.0) <= 1e-6

    dists = [attenuator_output_distance(0.5, kp, 1.0) for kp in (0.6, 0.55, 0.51, 0.501)]
    part_b = all(x > y for x, y in zip(dists, dists[1:])) and dists[-1] < 0.01

    vac_err = 0.0
    for k in np.arange(0.1, 0.95, 0.1):
        out = apply_gaussian(attenuator(float(k)), vacuum())
        vac_err = max(vac_err, float(np.abs(out.mean).max()), float(np.abs(out.cov - np.eye(2)).max()))
    part_c = vac_err <= 1e-12

    # transmissivities 0.5 + 1/n only become valid channel parameters at n = 2
    seq = attenuator_sequence(lambda n: 0.5 + 1.0 / n, 0.5)
    rep = param_convergence_check(seq, range(2, 101), eps=1e-6)
    params = [max(s, h, a) for s, h, a in zip(rep.scale_dev, rep.shift_dev, rep.noise_dev)]
    ratios = [c / p for c, p in zip(rep.char_dev, params)]
    part_d = (
        params[-1] < 0.02
        and rep.char_dev[-1] < 0.02
        and 0.1 < min(ratios)
        and max(ratios) < 10.0
    )
    ok = part_a and part_b and part_c and part_d
    _record(
        capsys, ok, 6,
        f"(a) |distance - 2| = {abs(anchor - 2.0):.2e} (<= 1e-6); "
        f"(b) monotone to {dists[-1]:.2e}: {part_b}; "
        f"(c) vacuum fixed within {vac_err:.2e} (<= 1e-12); "
        f"(d) sweep n=2..100 co-vanishes, char/param ratio in [{min(ratios):.3f}, {max(ratios):.3f}]",
    )


def test_criterion_7_partial_trace_form_bullets(capsys):
    rng = np.random.default_rng(SEED + 4)
    # (a) norm-converging rotations of a dim-4 embedding into 2 x 3
    v0 = StinespringIsometry(np.eye(6, 4), 2, 3)
    form = sequences.rotation_partial_trace_form(v0, (5, 0), lambda n: 1.0 / n)
    seq = form
    choi_final = sequences.choi_defect(seq, 1000)
    part_a = choi_final < 1e-3

    # (b) the swap family embedded as channels with a 4 x 4 output/environment split
    d = 16
    terms, _ = sequences.swap_counterexample(d)
    v0s = StinespringIsometry(np.eye(d, d - 1), 4, 4)
    sform = sequences.PartialTraceForm(v0s, lambda ns: np.stack([terms[n - 1].w for n in ns]))
    sseq = sform
    states = ensembles._projectors(np.eye(d - 1, dtype=complex))
    strong_ok = True
    for j in range(d - 1):
        for n in range(j + 2, d):
            if sequences.strong_defect(sseq, n, [states[j]]) != 0.0:
                strong_ok = False
    obs = ensembles.matrix_unit_observables(4)
    vecs = ensembles.default_test_vectors(d - 1, rng)
    star_floor = min(sequences.strongstar_defect(sseq, n, obs, vecs) for n in range(1, d))
    part_b = strong_ok and star_floor >= 0.5
    ok = part_a and part_b
    _record(
        capsys, ok, 7,
        f"(a) rotation family choi defect at n=1000: {choi_final:.3e} (< 1e-3); "
        f"(b) per-vector strong defects exactly 0 for n > j: {strong_ok}, "
        f"persistent strongstar floor {star_floor:.3f} (>= 0.5)",
    )


def test_criterion_8_gaussian_validity_propagation(capsys):
    rng = np.random.default_rng(SEED + 5)
    worst_chain = 0.0
    all_valid = True
    for _ in range(200):
        s_in = int(rng.integers(1, 4))
        s_out = int(rng.integers(1, 4))
        k = rng.standard_normal((2 * s_in, 2 * s_out)) / np.sqrt(2 * s_in)
        noise_seed = rng.standard_normal((2 * s_out, 2 * s_out))
        bracket = symplectic_form(s_out) - k.T @ symplectic_form(s_in) @ k
        pad = float(np.linalg.norm(bracket, 2))
        ch = GaussianChannel(
            scale=k,
            shift=rng.standard_normal(2 * s_out),
            noise=noise_seed @ noise_seed.T + pad * np.eye(2 * s_out),
        )
        cov_seed = rng.standard_normal((2 * s_in, 2 * s_in))
        st = GaussianState(
            mean=rng.standard_normal(2 * s_in),
            cov=cov_seed @ cov_seed.T + np.eye(2 * s_in),
        )
        if not (validate_channel(ch).ok and validate_state(st).ok):
            all_valid = False
            continue
        out = apply_gaussian(ch, st)
        if not validate_state(out).ok:
            all_valid = False
        for z in z_grid(s_out, max_points=25):
            point, factor = dual_weyl_symbol(ch, z)
            worst_chain = max(worst_chain, abs(char_fn(out, z) - char_fn(st, point) * factor))
    ok = all_valid and worst_chain <= 1e-12
    _record(
        capsys, ok, 8,
        f"200 valid pairs at up to 3 modes, outputs valid: {all_valid}, "
        f"max chain-identity gap {worst_chain:.3e} (<= 1e-12) on 25-point grids",
    )

import numpy as np
import pytest

from channel_lab import ensembles
from channel_lab.core import ValidationError, dagger, opnorm


def test_random_unitary_is_unitary_and_seeded(rng):
    u = ensembles.random_unitary(5, rng)
    assert opnorm(dagger(u) @ u - np.eye(5)) < 1e-12
    again = ensembles.random_unitary(5, np.random.default_rng(20240817))
    assert np.array_equal(u, again)


def test_random_isometry_shape_and_error(rng):
    v = ensembles.random_isometry(2, 6, rng)
    assert v.shape == (6, 2)
    assert opnorm(dagger(v) @ v - np.eye(2)) < 1e-12
    with pytest.raises(ValidationError, match="no isometry"):
        ensembles.random_isometry(4, 3, rng)


def test_random_partial_isometry_has_requested_rank(rng):
    w = ensembles.random_partial_isometry(6, 3, rng)
    svals = np.linalg.svd(w.w, compute_uv=False)
    assert int(np.sum(svals > 0.5)) == 3
    with pytest.raises(ValidationError, match="rank must lie"):
        ensembles.random_partial_isometry(4, 0, rng)


def test_random_density_rank_control(rng):
    full = ensembles.random_density(4, rng)
    assert np.trace(full.matrix).real == pytest.approx(1.0)
    low = ensembles.random_density(4, rng, rank=2)
    vals = np.linalg.eigvalsh(low.matrix)
    assert int(np.sum(vals > 1e-10)) == 2


def test_random_kraus_channel_has_exact_operator_count(rng):
    ch = ensembles.random_kraus_channel(3, 2, 4, rng)
    assert len(ch.kraus_ops) == 4
    assert (ch.d_in, ch.d_out) == (3, 2)
    with pytest.raises(ValidationError, match="cannot dilate"):
        ensembles.random_kraus_channel(5, 2, 2, rng)


def test_default_families_sizes(rng):
    assert len(ensembles.default_test_states(3, rng)) == 3 + 4
    assert len(ensembles.default_test_vectors(3, rng)) == 3 + 2
    assert len(ensembles.matrix_unit_observables(3)) == 9
    assert np.linalg.norm(ensembles.haar_vector(7, rng)) == pytest.approx(1.0)

"""Tests for log-normal shadowing (eq. 9) and its oracle stand-in."""

import numpy as np
import pytest

from repro.radio.shadowing import HashedShadowing, NoShadowing


class TestHashedShadowing:
    def test_link_matrix_symmetric(self):
        model = HashedShadowing(10.0, key=1)
        m = model.link_matrix(20)
        assert np.array_equal(m, m.T)

    def test_zero_diagonal(self):
        model = HashedShadowing(10.0, key=1)
        assert np.all(np.diag(model.link_matrix(15)) == 0.0)

    def test_configured_deviation(self):
        """σ = 10 dB, less the 3σ clip's 1.4 %."""
        model = HashedShadowing(10.0, key=2)
        m = model.link_matrix(200)
        iu, ju = np.triu_indices(200, k=1)
        std = m[iu, ju].std()
        assert abs(std - 10.0) < 0.5

    def test_zero_mean(self):
        model = HashedShadowing(10.0, key=3)
        m = model.link_matrix(200)
        iu, ju = np.triu_indices(200, k=1)
        assert abs(m[iu, ju].mean()) < 0.5

    def test_sample_shape(self):
        """Per-link draws broadcast like their endpoint arrays."""
        model = HashedShadowing(5.0, key=4)
        assert model.link_db(np.arange(10), np.arange(10) + 1).shape == (10,)
        assert model.link_db(np.arange(3)[:, None], np.arange(4)).shape == (3, 4)

    def test_zero_sigma_all_zero(self):
        model = HashedShadowing(0.0, key=5)
        assert np.all(model.link_matrix(10) == 0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            HashedShadowing(-1.0, key=0)

    def test_negative_n_rejected(self):
        model = HashedShadowing(10.0, key=0)
        with pytest.raises(ValueError):
            model.link_matrix(-1)

    def test_empty_matrix(self):
        model = HashedShadowing(10.0, key=0)
        assert model.link_matrix(0).shape == (0, 0)


class TestNoShadowing:
    def test_all_zero(self):
        model = NoShadowing()
        assert np.all(model.link_matrix(12) == 0.0)
        assert np.all(model.link_db(np.arange(2)[:, None], np.arange(3)) == 0.0)
        assert model.sigma_db == 0.0

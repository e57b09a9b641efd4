"""Tests for fast fading models."""

import numpy as np

from repro.radio.fading import FADE_CAP_DB, HashedRayleighFading, NoFading

#: draws of one directed pair over this many radio events
EVENTS = np.arange(200_000)


class TestRayleighFading:
    def test_shapes(self):
        fad = HashedRayleighFading(1)
        assert fad.link_db(0, np.arange(7), 9).shape == (7,)
        assert fad.link_db(3, np.arange(4)[:, None], np.arange(5)).shape == (4, 5)

    def test_unit_mean_linear_power(self):
        """Exp(1) power gain → linear-domain mean 1 (energy conserved),
        less what the up-fade cap clips: E[min(g, c)] = 1 − e^−c."""
        db = HashedRayleighFading(2).link_db(EVENTS, 0, 1)
        linear = np.power(10.0, db / 10.0)
        cap = 10.0 ** (FADE_CAP_DB / 10.0)
        assert abs(linear.mean() - (1.0 - np.exp(-cap))) < 0.01

    def test_mean_db_matches_euler_gamma(self):
        """E[10·log10(Exp(1))] = −10·γ/ln10 ≈ −2.507 dB."""
        db = HashedRayleighFading(3).link_db(EVENTS, 0, 1)
        assert abs(db.mean() - (-2.507)) < 0.05

    def test_deep_fades_more_common_than_upfades(self):
        """A fade of the cap's depth is far likelier than an up-fade to it."""
        db = HashedRayleighFading(4).link_db(EVENTS[:100_000], 0, 1)
        assert (db < -FADE_CAP_DB).mean() > 5 * (db >= FADE_CAP_DB).mean()
        assert db.max() <= FADE_CAP_DB

    def test_no_infinities(self):
        db = HashedRayleighFading(5).link_db(EVENTS[:100_000], 0, 1)
        assert np.all(np.isfinite(db))

    def test_deterministic_for_seed(self):
        a = HashedRayleighFading(6).link_db(EVENTS[:10], 0, 1)
        b = HashedRayleighFading(6).link_db(EVENTS[:10], 0, 1)
        assert np.array_equal(a, b)


class TestNoFading:
    def test_all_zero(self):
        assert np.all(NoFading().sample_db(5) == 0.0)
        assert np.all(NoFading().sample_db((2, 2)) == 0.0)

"""Tests for path-loss models."""

import numpy as np
import pytest

from repro.radio.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PaperPathLoss,
    PathLossModel,
    max_range_m,
    range_bracket_m,
)


class TestPaperPathLoss:
    def test_near_segment_formula(self):
        model = PaperPathLoss()
        assert model.loss_db(2.0) == pytest.approx(4.35 + 25 * np.log10(2.0))

    def test_far_segment_formula(self):
        model = PaperPathLoss()
        assert model.loss_db(50.0) == pytest.approx(40.0 + 40 * np.log10(50.0))

    def test_breakpoint_at_six_metres(self):
        model = PaperPathLoss()
        just_below = model.loss_db(5.999999)
        just_above = model.loss_db(6.0)
        # the Table I fit is discontinuous at d = 6 m (by design)
        assert just_above > just_below

    def test_monotone_within_segments(self):
        model = PaperPathLoss()
        d = np.linspace(0.2, 5.9, 50)
        losses = model.loss_db(d)
        assert np.all(np.diff(losses) > 0)
        d = np.linspace(6.0, 200.0, 50)
        losses = model.loss_db(d)
        assert np.all(np.diff(losses) > 0)

    def test_vectorized_matches_scalar(self):
        model = PaperPathLoss()
        d = np.array([1.0, 3.0, 10.0, 80.0])
        vec = model.loss_db(d)
        for i, di in enumerate(d):
            assert vec[i] == pytest.approx(model.loss_db(float(di)))

    def test_distance_floor_clamps_zero(self):
        model = PaperPathLoss()
        assert np.isfinite(model.loss_db(0.0))
        assert model.loss_db(0.0) == model.loss_db(0.05)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            PaperPathLoss().loss_db(-1.0)

    def test_satisfies_protocol(self):
        assert isinstance(PaperPathLoss(), PathLossModel)


class TestLogDistancePathLoss:
    def test_reference_point(self):
        model = LogDistancePathLoss(4.0, reference_loss_db=40.0)
        assert model.loss_db(1.0) == pytest.approx(40.0)

    def test_slope_per_decade(self):
        model = LogDistancePathLoss(exponent=4.0, reference_loss_db=40.0)
        assert model.loss_db(10.0) - model.loss_db(1.0) == pytest.approx(40.0)
        model2 = LogDistancePathLoss(exponent=2.0, reference_loss_db=40.0)
        assert model2.loss_db(10.0) - model2.loss_db(1.0) == pytest.approx(20.0)

    def test_custom_reference_distance(self):
        model = LogDistancePathLoss(2.0, 30.0, reference_distance_m=10.0)
        assert model.loss_db(10.0) == pytest.approx(30.0)
        assert model.loss_db(100.0) == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(reference_distance_m=0.0)


class TestFreeSpace:
    def test_inverse_square_slope(self):
        model = FreeSpacePathLoss(freq_ghz=2.0)
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(20.0)

    def test_higher_frequency_more_loss(self):
        assert FreeSpacePathLoss(5.0).loss_db(10.0) > FreeSpacePathLoss(1.0).loss_db(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss(freq_ghz=0.0)


class TestMaxRange:
    def test_paper_budget_range(self):
        """23 dBm − (−95 dBm) = 118 dB budget → ~89 m under Table I."""
        r = max_range_m(PaperPathLoss(), 23.0, -95.0)
        assert 85.0 < r < 95.0
        # at the returned range the budget is exactly met
        assert PaperPathLoss().loss_db(r) == pytest.approx(118.0, abs=1e-3)

    def test_zero_budget_zero_range(self):
        assert max_range_m(PaperPathLoss(), -100.0, -95.0) == 0.0

    def test_range_monotone_in_power(self):
        lo = max_range_m(PaperPathLoss(), 10.0, -95.0)
        hi = max_range_m(PaperPathLoss(), 23.0, -95.0)
        assert hi > lo

    def test_bracket_encloses_the_range(self):
        model = PaperPathLoss()
        lo, hi = range_bracket_m(model, 23.0, -95.0)
        assert model.loss_db(lo) <= 118.0 < model.loss_db(hi)
        assert 0.0 < hi - lo <= 1e-6
        assert max_range_m(model, 23.0, -95.0) == lo

    def test_unbounded_budget_hits_cap(self):
        r = max_range_m(LogDistancePathLoss(2.0, 0.0), 200.0, -100.0, hi=500.0)
        assert r == 500.0

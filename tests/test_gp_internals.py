"""Tests for gradient-projection internal helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.active_set import ActiveSet
from repro.core.gradient_projection import (
    _arc_point,
    _project_to_feasible,
    _restore_capacity,
    initial_feasible_point,
)


class TestProjectToFeasible:
    def test_already_feasible_point_kept(self):
        loads = np.array([10.0, 20.0])
        alpha = np.ones(2)
        x = np.array([0.1, 0.2])  # x·u = 5
        projected = _project_to_feasible(x, loads, alpha, 5.0)
        np.testing.assert_allclose(projected, x)

    def test_scaling_without_clipping_is_exact(self):
        loads = np.array([10.0, 20.0])
        alpha = np.ones(2)
        x = np.array([0.1, 0.2])
        projected = _project_to_feasible(x, loads, alpha, 2.5)
        np.testing.assert_allclose(projected, x / 2)

    def test_clipping_redistributes(self):
        loads = np.array([10.0, 10.0])
        alpha = np.array([0.2, 1.0])
        x = np.array([0.5, 0.1])
        projected = _project_to_feasible(x, loads, alpha, 5.0)
        assert projected @ loads == pytest.approx(5.0)
        assert projected[0] <= 0.2 + 1e-12

    def test_zero_point_falls_back_to_water_filling(self):
        loads = np.array([10.0, 10.0])
        alpha = np.ones(2)
        projected = _project_to_feasible(np.zeros(2), loads, alpha, 4.0)
        assert projected @ loads == pytest.approx(4.0)

    def test_sparse_warm_start_that_cannot_scale(self):
        # Mass only on a capped coordinate: scaling stalls, fallback used.
        loads = np.array([10.0, 10.0])
        alpha = np.array([0.1, 1.0])
        x = np.array([0.05, 0.0])
        projected = _project_to_feasible(x, loads, alpha, 5.0)
        assert projected @ loads == pytest.approx(5.0)

    @given(
        arrays(float, (5,), elements=st.floats(min_value=0.0, max_value=2.0)),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_always_feasible(self, x, fraction):
        loads = np.array([5.0, 10.0, 20.0, 40.0, 80.0])
        alpha = np.full(5, 0.7)
        target = fraction * float(alpha @ loads)
        projected = _project_to_feasible(x, loads, alpha, target)
        assert np.all(projected >= -1e-12)
        assert np.all(projected <= alpha + 1e-12)
        assert projected @ loads == pytest.approx(target, rel=1e-6)


class TestRestoreCapacity:
    def test_repairs_drift_along_free_coordinates(self):
        loads = np.array([10.0, 20.0, 40.0])
        alpha = np.ones(3)
        active = ActiveSet(loads, alpha)
        x = np.array([0.1, 0.1, 0.1])  # x·u = 7
        _restore_capacity(x, active, loads, 7.5)
        assert x @ loads == pytest.approx(7.5)

    def test_respects_active_coordinates(self):
        loads = np.array([10.0, 20.0])
        alpha = np.ones(2)
        active = ActiveSet(loads, alpha)
        active.activate_lower(0)
        x = np.array([0.0, 0.1])
        _restore_capacity(x, active, loads, 3.0)
        assert x[0] == 0.0
        assert x @ loads == pytest.approx(3.0)

    def test_noop_when_exact(self):
        loads = np.array([10.0])
        active = ActiveSet(loads, np.ones(1))
        x = np.array([0.5])
        _restore_capacity(x, active, loads, 5.0)
        assert x[0] == 0.5

    def test_all_active_leaves_point_alone(self):
        loads = np.array([10.0])
        active = ActiveSet(loads, np.ones(1))
        active.activate_upper(0)
        x = np.array([1.0])
        _restore_capacity(x, active, loads, 5.0)
        assert x[0] == 1.0


class TestInitialFeasiblePointProperties:
    @given(
        arrays(float, (6,), elements=st.floats(min_value=1.0, max_value=1000.0)),
        arrays(float, (6,), elements=st.floats(min_value=0.01, max_value=1.0)),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_always_feasible_within_capacity(self, loads, alpha, fraction):
        target = fraction * float(alpha @ loads)
        x = initial_feasible_point(loads, alpha, target)
        assert np.all(x >= -1e-12)
        assert np.all(x <= alpha + 1e-12)
        assert x @ loads == pytest.approx(target, rel=1e-9)


def _arc_point_by_bisection(a, b, loads, alpha, target):
    """Reference for ``_arc_point``: bisect ν on ``u·clip(a − ν b, 0, α)``."""
    lo = float(((a - alpha) / b).min())
    hi = float((a / b).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if loads @ np.clip(a - mid * b, 0.0, alpha) > target:
            lo = mid
        else:
            hi = mid
    return np.clip(a - 0.5 * (lo + hi) * b, 0.0, alpha)


class TestArcPoint:
    @given(
        arrays(float, (7,), elements=st.floats(min_value=-2.0, max_value=2.0)),
        arrays(float, (7,), elements=st.floats(min_value=0.01, max_value=5.0)),
        arrays(float, (7,), elements=st.floats(min_value=1.0, max_value=1000.0)),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bisection_on_the_capacity_plane(
        self, a, b, loads, fraction
    ):
        alpha = np.linspace(0.2, 1.0, 7)
        target = fraction * float(alpha @ loads)
        x = _arc_point(a, b, loads, alpha, target)
        assert np.all(x >= 0.0) and np.all(x <= alpha)
        assert x @ loads == pytest.approx(target, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(
            x, _arc_point_by_bisection(a, b, loads, alpha, target),
            atol=1e-9,
        )

    def test_full_capacity_saturates_every_link(self):
        loads = np.array([3.0, 5.0, 7.0])
        alpha = np.array([0.5, 0.25, 1.0])
        x = _arc_point(
            np.array([0.1, 2.0, -1.0]), np.ones(3), loads, alpha,
            float(alpha @ loads),
        )
        np.testing.assert_array_equal(x, alpha)

"""Tests for active-set bookkeeping, projection and multipliers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.active_set import AT_LOWER, AT_UPPER, FREE, ActiveSet


def make_set(loads=(1.0, 2.0, 4.0), alpha=(1.0, 1.0, 0.5)):
    return ActiveSet(np.array(loads, dtype=float), np.array(alpha, dtype=float))


class TestConstruction:
    def test_starts_all_free(self):
        active = make_set()
        assert active.num_free() == 3

    def test_rejects_nonpositive_loads_or_alpha(self):
        with pytest.raises(ValueError):
            ActiveSet(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ActiveSet(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_sync_with_point_classifies_bounds(self):
        active = make_set()
        active.sync_with_point(np.array([0.0, 0.3, 0.5]))
        assert active.status[0] == AT_LOWER
        assert active.status[1] == FREE
        assert active.status[2] == AT_UPPER


class TestProjection:
    def test_projected_direction_preserves_capacity(self):
        active = make_set()
        g = np.array([3.0, -1.0, 2.0])
        s = active.project(g)
        assert s @ active.loads == pytest.approx(0.0, abs=1e-12)

    def test_projection_zeroes_active_coordinates(self):
        active = make_set()
        active.activate_lower(0)
        active.activate_upper(2)
        s = active.project(np.array([3.0, -1.0, 2.0]))
        assert s[0] == 0.0
        assert s[2] == 0.0

    def test_projection_is_idempotent(self):
        active = make_set()
        active.activate_lower(1)
        g = np.array([1.0, 5.0, -2.0])
        once = active.project(g)
        twice = active.project(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_projection_never_increases_norm(self):
        active = make_set()
        g = np.array([1.0, 5.0, -2.0])
        assert np.linalg.norm(active.project(g)) <= np.linalg.norm(g) + 1e-12

    def test_all_active_projects_to_zero(self):
        active = make_set()
        for i in range(3):
            active.activate_lower(i)
        np.testing.assert_allclose(active.project(np.array([1.0, 2.0, 3.0])), 0.0)

    @given(
        arrays(float, (4,), elements=st.floats(min_value=-10, max_value=10)),
        arrays(float, (4,), elements=st.floats(min_value=0.1, max_value=100)),
    )
    @settings(max_examples=100)
    def test_projection_orthogonal_to_constraint_normals(self, g, loads):
        active = ActiveSet(loads, np.ones(4))
        active.activate_lower(2)
        s = active.project(g)
        assert s[2] == 0.0
        # Orthogonal to the load vector restricted to free coords.
        assert s @ loads == pytest.approx(0.0, abs=1e-8 * max(1, np.abs(g).max()))


class TestMultipliers:
    def test_free_coordinates_define_lambda(self):
        # Gradient exactly proportional to loads: lambda recovered.
        active = make_set(loads=(1.0, 2.0, 4.0))
        g = 0.7 * active.loads
        mult = active.multipliers(g)
        assert mult.lam == pytest.approx(0.7)

    def test_lower_bound_multiplier_sign(self):
        active = make_set(loads=(1.0, 1.0, 1.0))
        active.activate_lower(0)
        # Gradient on the deactivated link is *smaller* than lambda*u:
        # the constraint is correctly active, nu >= 0.
        g = np.array([0.1, 1.0, 1.0])
        mult = active.multipliers(g)
        assert mult.nu[0] > 0
        assert mult.negative_lower(1e-9).size == 0

    def test_wrongly_deactivated_link_flagged(self):
        active = make_set(loads=(1.0, 1.0, 1.0))
        active.activate_lower(0)
        # Gradient on the deactivated link exceeds the shadow price:
        # sampling it would pay off, nu < 0 → release candidate.
        g = np.array([5.0, 1.0, 1.0])
        mult = active.multipliers(g)
        assert mult.negative_lower(1e-9).tolist() == [0]

    def test_upper_bound_multiplier_sign(self):
        active = make_set(loads=(1.0, 1.0, 1.0))
        active.activate_upper(2)
        g = np.array([1.0, 1.0, 5.0])  # saturated link still attractive
        mult = active.multipliers(g)
        assert mult.mu[2] > 0
        g_bad = np.array([1.0, 1.0, 0.1])  # saturation now harmful
        assert active.multipliers(g_bad).negative_upper(1e-9).tolist() == [2]

    def test_all_active_feasible_lambda_interval(self):
        # One at lower (needs lam >= g0), one at upper (needs lam <= g1).
        active = ActiveSet(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        active.activate_lower(0)
        active.activate_upper(1)
        mult = active.multipliers(np.array([0.5, 2.0]))
        assert mult.nu[0] >= 0
        assert mult.mu[1] >= 0

    def test_release(self):
        active = make_set()
        active.activate_lower(0)
        active.release(np.array([0]))
        assert active.status[0] == FREE


class TestMaxStep:
    def test_step_to_lower_bound(self):
        active = make_set(alpha=(1.0, 1.0, 1.0))
        x = np.array([0.5, 0.5, 0.5])
        s = np.array([-1.0, 0.0, 0.0])
        t, blocking = active.max_step(x, s)
        assert t == pytest.approx(0.5)
        assert blocking.tolist() == [0]

    def test_step_to_upper_bound(self):
        active = make_set(alpha=(1.0, 1.0, 0.6))
        x = np.array([0.0, 0.0, 0.5])
        s = np.array([0.0, 0.0, 1.0])
        t, blocking = active.max_step(x, s)
        assert t == pytest.approx(0.1)
        assert blocking.tolist() == [2]

    def test_unbounded_direction(self):
        active = make_set()
        x = np.array([0.5, 0.5, 0.2])
        t, blocking = active.max_step(x, np.zeros(3))
        assert t == np.inf
        assert blocking.size == 0

    def test_active_coordinates_ignored(self):
        active = make_set()
        active.activate_lower(0)
        x = np.array([0.0, 0.5, 0.2])
        s = np.array([-1.0, -0.1, 0.0])  # s[0] ignored (already active)
        t, blocking = active.max_step(x, s)
        assert t == pytest.approx(5.0)
        assert blocking.tolist() == [1]

    def test_simultaneous_blocking(self):
        active = make_set(alpha=(1.0, 1.0, 1.0))
        x = np.array([0.5, 0.5, 0.9])
        s = np.array([-1.0, -1.0, 0.0])
        t, blocking = active.max_step(x, s)
        assert t == pytest.approx(0.5)
        assert sorted(blocking.tolist()) == [0, 1]

    @pytest.mark.parametrize(
        "x, s, active_lower",
        [
            # tied steps, one of them only within the relative tolerance
            ([0.5, 0.5, 0.5, 0.2], [-1.0, -1.0, -1.0 + 1e-12, 0.0], ()),
            # a coordinate already at its bound: zero step blocks
            ([0.0, 0.5, 0.3, 0.2], [-1.0, -0.5, 1.0, 0.0], ()),
            # a slightly infeasible point: negative steps clamp t_max to 0
            ([-1e-16, 0.5, 1.0 + 4e-16, 0.2], [-1.0, 1.0, 1.0, 0.0], ()),
            # inf entries from zero directions and active coordinates
            ([0.5, 0.5, 0.3, 0.2], [0.0, 2.0, -3.0, 0.0], (2,)),
            # steps near atol around a zero t_max
            ([1e-18, 0.0, 2e-15, 0.2], [-1.0, -1.0, -1.0, 0.0], ()),
        ],
    )
    def test_blocking_set_matches_isclose(self, x, s, active_lower):
        active = ActiveSet(np.ones(4), np.array([1.0, 1.0, 1.0, 0.9]))
        for index in active_lower:
            active.activate_lower(index)
        x, s = np.array(x), np.array(s)
        t, blocking = active.max_step(x, s)
        expected, steps = _isclose_blocking(active, x, s, t)
        assert np.isinf(steps).any()
        assert blocking.size > 0
        assert blocking.tolist() == expected.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                # coarse directions make exact and near ties common
                st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_blocking_set_matches_isclose_property(self, coords):
        active = ActiveSet(np.ones(len(coords)), np.ones(len(coords)))
        for index, (_, _, pinned) in enumerate(coords):
            if pinned:
                active.activate_lower(index)
        x = np.array([c[0] for c in coords])
        s = np.array([c[1] for c in coords])
        t, blocking = active.max_step(x, s)
        if np.isinf(t):
            assert blocking.size == 0
        else:
            expected, _ = _isclose_blocking(active, x, s, t)
            assert blocking.tolist() == expected.tolist()


def _isclose_blocking(active, x, s, t):
    """The reference blocking set, selected with ``np.isclose``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = np.minimum(
            np.where(s < 0, -x / s, np.inf),
            np.where(s > 0, (active.alpha - x) / s, np.inf),
        )
    steps[~active.free_mask] = np.inf
    return np.flatnonzero(np.isclose(steps, t, rtol=1e-9, atol=1e-15)), steps

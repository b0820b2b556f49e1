"""Tests for crash-safe sweep checkpoints.

The contract under test: a resumed sweep is *bitwise identical* to the
uninterrupted one (warm starts and all), a checkpoint from a different
sweep is rejected loudly, and the one failure the format tolerates — a
line truncated mid-append by a crash — is dropped silently.  The
randomized kill-point classes extend the same contract to arbitrary
byte offsets (a real crash does not stop at a line boundary).
"""

import json

import numpy as np
import pytest

from repro import CheckpointMismatchError, SamplingProblem, SweepCheckpoint
from repro.core import solve_theta_sweep
from repro.obs import collecting_metrics

THETAS = [500.0, 1000.0, 2000.0, 4000.0, 8000.0]


@pytest.fixture()
def small_problem(chain_task) -> SamplingProblem:
    return SamplingProblem.from_task(chain_task, theta_packets=2000.0)


def _truncate_to_entries(path, keep: int) -> None:
    """Keep the header plus the first ``keep`` entry lines."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: keep + 1]) + "\n")


class TestResume:
    def test_checkpointed_sweep_matches_plain_sweep(
        self, small_problem, tmp_path
    ):
        plain = solve_theta_sweep(small_problem, THETAS)
        checked = solve_theta_sweep(
            small_problem, THETAS, checkpoint=tmp_path / "sweep.jsonl"
        )
        for a, b in zip(plain, checked):
            np.testing.assert_array_equal(a.rates, b.rates)

    def test_resume_is_bitwise_identical(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        full = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        _truncate_to_entries(path, keep=2)  # "crash" after member 2
        with collecting_metrics() as reg:
            resumed = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
            counters = reg.snapshot()["counters"]
        for a, b in zip(full, resumed):
            np.testing.assert_array_equal(a.rates, b.rates)
        assert counters["resilience.checkpoint.restored"] == 2
        assert counters["resilience.checkpoint.skipped"] == 2
        assert counters["resilience.checkpoint.entries"] == 3

    def test_completed_checkpoint_skips_every_solve(
        self, small_problem, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        first = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        with collecting_metrics() as reg:
            second = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
            counters = reg.snapshot()["counters"]
        assert counters["resilience.checkpoint.skipped"] == len(THETAS)
        assert "batch.warm_start.hit" not in counters  # nothing re-solved
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.rates, b.rates)

    def test_restored_members_recertify_kkt(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        restored = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        for solution in restored:
            assert solution.diagnostics.converged
            assert solution.diagnostics.kkt is not None
            assert solution.diagnostics.kkt.satisfied


class TestCorruption:
    def test_truncated_final_line_is_dropped(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        solve_theta_sweep(small_problem, THETAS[:3], checkpoint=path)
        with path.open("a") as handle:
            handle.write('{"record": "entry", "index": 2, "rat')  # mid-crash
        resumed = solve_theta_sweep(small_problem, THETAS[:3], checkpoint=path)
        assert all(s.diagnostics.converged for s in resumed)

    def test_corrupt_interior_line_is_rejected(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        solve_theta_sweep(small_problem, THETAS[:3], checkpoint=path)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt JSON"):
            solve_theta_sweep(small_problem, THETAS[:3], checkpoint=path)


class TestRandomizedKillPoints:
    """Crashes land at arbitrary *byte* offsets, not line boundaries.

    Any truncation past the header must resume to a sweep bitwise
    identical to the uninterrupted one: complete entry lines restore,
    the (at most one) partial trailing line is dropped, and the missing
    members re-solve.
    """

    @staticmethod
    def _kill_at(path, offset: int) -> None:
        data = path.read_bytes()
        path.write_bytes(data[:offset])

    @pytest.mark.parametrize("fraction", [0.1, 0.35, 0.6, 0.85, 0.99])
    def test_resume_after_byte_truncation(
        self, small_problem, tmp_path, fraction
    ):
        path = tmp_path / "sweep.jsonl"
        full = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        data = path.read_bytes()
        header_len = data.index(b"\n") + 1  # keep the header intact
        offset = header_len + int(fraction * (len(data) - header_len))
        self._kill_at(path, offset)
        resumed = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        for a, b in zip(full, resumed):
            np.testing.assert_array_equal(a.rates, b.rates)

    def test_resume_after_random_kill_points(self, small_problem, tmp_path):
        from repro.rng import default_rng

        reference = solve_theta_sweep(small_problem, THETAS)
        rng = default_rng(1234)
        for trial in range(6):
            path = tmp_path / f"sweep-{trial}.jsonl"
            solve_theta_sweep(small_problem, THETAS, checkpoint=path)
            data = path.read_bytes()
            header_len = data.index(b"\n") + 1
            offset = int(rng.integers(header_len, len(data) + 1))
            self._kill_at(path, offset)
            resumed = solve_theta_sweep(
                small_problem, THETAS, checkpoint=path
            )
            for a, b in zip(reference, resumed):
                np.testing.assert_array_equal(a.rates, b.rates)

    def test_double_crash_still_resumes(self, small_problem, tmp_path):
        """Crash, partial resume, crash again — still bitwise identical."""
        path = tmp_path / "sweep.jsonl"
        full = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        data = path.read_bytes()
        header_len = data.index(b"\n") + 1
        self._kill_at(path, header_len + (len(data) - header_len) // 2)
        solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        data = path.read_bytes()
        self._kill_at(path, header_len + 3 * (len(data) - header_len) // 4)
        resumed = solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        for a, b in zip(full, resumed):
            np.testing.assert_array_equal(a.rates, b.rates)


class TestMismatch:
    def test_rejects_different_theta_grid(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="theta grid"):
            solve_theta_sweep(small_problem, THETAS[:3], checkpoint=path)

    def test_rejects_different_method(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        solve_theta_sweep(small_problem, THETAS, checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="slsqp"):
            solve_theta_sweep(
                small_problem, THETAS, method="slsqp", checkpoint=path
            )

    def test_rejects_out_of_range_entry(self, small_problem, tmp_path):
        path = tmp_path / "sweep.jsonl"
        store = SweepCheckpoint(path, thetas=THETAS, num_links=6)
        store.write_header()
        with path.open("a") as handle:
            handle.write(
                json.dumps(
                    {"record": "entry", "index": 99, "rates": []}
                )
                + "\n"
            )
        with pytest.raises(CheckpointMismatchError, match="99"):
            store.load()

"""Small-scale checks of the motivation experiments (Figs. 1-3, 15)."""

import pytest

from repro.analysis import walks
from repro.experiments import (
    fig01_vpu_phases,
    fig02_bpu_phases,
    fig03_mlc_phases,
    fig15_vector_prevalence,
)


def _gobmk_series(max_instructions):
    """Fig. 1's walk itself, bypassing the analysis cache."""
    return walks.vector_intensity_series(
        benchmark="gobmk",
        shard_instructions=10_000,
        max_instructions=max_instructions,
        seed=None,
    )


class TestFig01:
    def test_series_has_both_regimes(self):
        series = fig01_vpu_phases.vector_intensity_series(
            max_instructions=1_200_000
        )
        assert any(v < 0.01 for v in series)  # quiet stretches
        assert any(v > 0.05 for v in series)  # vector-busy stretches

    def test_series_values_are_fractions(self):
        series = _gobmk_series(200_000)
        assert series and all(0.0 <= v <= 1.0 for v in series)

    def test_deterministic(self):
        assert _gobmk_series(150_000) == _gobmk_series(150_000)


class TestFig02And03Series:
    def test_fig02_series_lengths_match(self):
        small, large = fig02_bpu_phases.ipc_series(
            max_instructions=600_000, sample_instructions=50_000
        )
        assert abs(len(small) - len(large)) <= 1
        assert all(v > 0 for v in small + large)

    def test_fig03_full_mlc_wins_overall(self):
        small, large = fig03_mlc_phases.ipc_series(
            max_instructions=800_000, sample_instructions=50_000
        )
        n = min(len(small), len(large))
        mean_small = sum(small[:n]) / n
        mean_large = sum(large[:n]) / n
        assert mean_large > mean_small


class TestFig15:
    def test_histogram_fractions_sum_to_one(self):
        hist = walks.shard_histogram(
            benchmark="namd", shard_instructions=1000, max_instructions=300_000
        )
        assert hist["zero"] + hist["low"] + hist["high"] == pytest.approx(1.0)

    def test_sparse_app_has_low_shards(self):
        hist = fig15_vector_prevalence.shard_histogram(
            "namd", max_instructions=500_000
        )
        assert hist["low"] > 0.05  # the timeout-defeating pattern

    def test_dense_app_has_high_shards(self):
        hist = fig15_vector_prevalence.shard_histogram(
            "milc", max_instructions=500_000
        )
        assert hist["high"] > 0.5

    def test_scalar_app_is_mostly_zero(self):
        hist = fig15_vector_prevalence.shard_histogram(
            "mcf", max_instructions=300_000
        )
        assert hist["zero"] > 0.9

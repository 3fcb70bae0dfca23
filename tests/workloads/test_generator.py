"""Tests for the synthetic workload generators."""

import random

import pytest

from repro.errors import InvalidParameterError
from repro.workloads.generator import (
    make_css_rows,
    user_configuration_rows,
)


class TestCssRows:
    def test_shape(self):
        rows = make_css_rows(5, conditions_per_row=3, css_bytes=8)
        assert len(rows) == 5
        assert all(len(row) == 3 for row in rows)
        assert all(len(css) == 8 for row in rows for css in row)

    def test_distinct(self):
        rows = make_css_rows(20)
        assert len({row[0] for row in rows}) == 20

    def test_deterministic_with_rng(self):
        assert make_css_rows(3, rng=random.Random(1)) == make_css_rows(
            3, rng=random.Random(1)
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_css_rows(-1)
        with pytest.raises(InvalidParameterError):
            make_css_rows(1, conditions_per_row=0)


class TestUserConfiguration:
    def test_counts(self):
        rows, n = user_configuration_rows(100, 0.25)
        assert n == 100
        assert len(rows) == 25

    def test_full_configuration(self):
        rows, n = user_configuration_rows(40, 1.0)
        assert len(rows) == 40

    def test_average_conditions(self):
        rows, _ = user_configuration_rows(200, 1.0, avg_conditions=2)
        avg = sum(len(r) for r in rows) / len(rows)
        assert 1.5 <= avg <= 2.5

    def test_single_condition_mode(self):
        rows, _ = user_configuration_rows(50, 1.0, avg_conditions=1)
        assert all(len(r) == 1 for r in rows)

    def test_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            user_configuration_rows(10, 1.5)

"""Sampler and self-check report behavior."""

from math import gcd

import pytest

from denumerant import make_instance, run_selfcheck, sample_instances
from denumerant import selfcheck as selfcheck_module


class TestSampler:
    def test_deterministic(self):
        kwargs = dict(max_r=4, max_entry=12, seed=42, box_budget=5000)
        assert sample_instances(20, **kwargs) == sample_instances(20, **kwargs)

    def test_budget_respected(self):
        for a in sample_instances(30, max_r=4, max_entry=12, seed=1, box_budget=500):
            assert make_instance(a).box_size <= 500

    def test_budget_covers_other_d_choices(self):
        pool = sample_instances(
            15, max_r=3, max_entry=8, seed=2, box_budget=2000,
            d_choices=("lcm", "product", "2lcm"),
        )
        for a in pool:
            assert make_instance(a, "product").box_size <= 2000

    def test_gcd_filter(self):
        pool = sample_instances(
            15, min_r=2, max_r=3, max_entry=9, seed=3, box_budget=5000, require_gcd1=True
        )
        assert all(gcd(*a) == 1 for a in pool)

    def test_r_bounds(self):
        pool = sample_instances(15, min_r=2, max_r=2, max_entry=6, seed=4, box_budget=5000)
        assert all(len(a) == 2 for a in pool)

    def test_unsatisfiable_budget_fails_loudly(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            sample_instances(1, max_r=2, max_entry=5, seed=0, box_budget=0)


class TestReport:
    def test_passes_on_defaults_scaled_down(self):
        report = run_selfcheck(instances=8, max_n=60, seed=77)
        assert report.ok
        assert report.failure is None
        names = [name for name, _ in report.checks]
        assert names == [
            "route-agreement",
            "popoviciu",
            "floorsum",
            "deletion",
            "d-invariance",
            "polypart-agreement",
            "residue-mean",
            "series-high-r",
            "fiber-cardinality",
            "zero-characterization",
            "frobenius",
        ]

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("param", ["instances", "max_r", "max_entry", "box_budget"])
    def test_rejects_vacuous_parameters(self, param, value):
        # no suite may pass by checking nothing
        with pytest.raises(ValueError, match=f"^{param} must be at least 1, got {value}$"):
            run_selfcheck(**{param: value})

    @pytest.mark.parametrize("value", [-1, -7])
    def test_rejects_negative_max_n(self, value):
        with pytest.raises(ValueError, match=f"^max_n must be at least 0, got {value}$"):
            run_selfcheck(max_n=value)

    def test_max_n_zero_checks_n_zero(self):
        report = run_selfcheck(instances=3, max_n=0, seed=5)
        assert report.ok and dict(report.checks)["route-agreement"] == 3 * 3

    def test_all_ones_edge(self):
        report = run_selfcheck(instances=5, max_n=30, max_entry=1, seed=0)
        assert report.ok

    def test_deterministic_report(self):
        a = run_selfcheck(instances=5, max_n=40, seed=11).to_json()
        b = run_selfcheck(instances=5, max_n=40, seed=11).to_json()
        # everything but the per-check wall times is reproducible
        for blob in (a, b):
            assert all(chk.pop("ms") >= 0 for chk in blob["checks"])
        assert a == b

    def test_reports_minimal_counterexample(self, monkeypatch):
        # sabotage one route: the report must name it and the first bad n
        real = selfcheck_module.p_stirling

        def crooked(a, n, *args, **kwargs):
            value = real(a, n, *args, **kwargs)
            return value + 1 if n >= 3 else value

        monkeypatch.setattr(selfcheck_module, "p_stirling", crooked)
        report = run_selfcheck(instances=4, max_n=30, seed=77)
        assert not report.ok
        assert report.failure.check == "route-agreement"
        assert report.failure.n == 3
        assert "stirling" in report.failure.routes
        blob = report.to_json()
        assert blob["ok"] is False
        assert blob["failure"]["n"] == "3"

    def test_reports_series_mismatch_at_high_r(self, monkeypatch):
        # sabotage Bernoulli-Barnes only where the box routes cannot reach
        real = selfcheck_module.residues_bernoulli_barnes

        def crooked(a):
            res = real(a)
            if len(a) < 20:
                return res
            return type(res)(values=res.values[:-1] + (res.values[-1] * 2,))

        monkeypatch.setattr(selfcheck_module, "residues_bernoulli_barnes", crooked)
        report = run_selfcheck(instances=4, max_n=20, seed=77)
        assert report.failure.check == "series-high-r"
        assert report.failure.routes == f"bernoulli vs barnes R_{len(report.failure.a)}"
        assert 20 <= len(report.failure.a) <= 40

    def test_reports_series_mismatch_at_middle_r(self, monkeypatch):
        # sabotage Bernoulli-Barnes only at r = 5..12, past the pool's max_r
        real = selfcheck_module.residues_bernoulli_barnes

        def crooked(a):
            res = real(a)
            if not 5 <= len(a) <= 12:
                return res
            return type(res)(values=(res.values[0] + 1,) + res.values[1:])

        monkeypatch.setattr(selfcheck_module, "residues_bernoulli_barnes", crooked)
        report = run_selfcheck(instances=4, max_n=20, seed=77)
        assert report.failure.check == "series-high-r"
        assert report.failure.routes == "bernoulli vs barnes R_1"
        assert 5 <= len(report.failure.a) <= 12

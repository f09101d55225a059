"""Polynomial part and Dirichlet residues: four routes, one polynomial."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from denumerant import (
    format_polynomial,
    make_instance,
    numbers,
    p_oracle_upto,
    polypart,
    polypart_bernoulli,
    polypart_box_average,
    polypart_from_residues,
    quasipoly,
    residues_bernoulli_barnes,
    residues_powersum,
    sample_instances,
)
from denumerant.numbers import alpha, bernoulli_barnes
from denumerant.polypart import RationalPolynomial

F = Fraction


def poly_of(*coeffs):
    return RationalPolynomial(coeffs=tuple(F(c) for c in coeffs))


class TestBoxAverage:
    @pytest.mark.parametrize(
        "a,expected",
        [
            ((1, 2), (F(3, 4), F(1, 2))),
            ((1,), (F(1),)),
            ((1, 1), (F(1), F(1))),
        ],
    )
    def test_examples(self, a, expected):
        assert polypart_box_average(a).coeffs == expected


class TestBernoulliRoute:
    @pytest.mark.parametrize(
        "a,expected",
        [
            ((1, 2), (F(3, 4), F(1, 2))),
            ((1, 1), (F(1), F(1))),
            ((1,), (F(1),)),
        ],
    )
    def test_examples(self, a, expected):
        assert polypart_bernoulli(a).coeffs == expected


class TestResidues:
    def test_powersum_examples(self):
        res = residues_powersum((1, 2))
        assert (res.residue_at(1), res.residue_at(2)) == (F(3, 4), F(1, 2))
        assert residues_powersum((1,)).residue_at(1) == 1
        assert residues_powersum((2, 3)).residue_at(2) == F(1, 6)

    def test_barnes_examples(self):
        res = residues_bernoulli_barnes((1, 2))
        assert (res.residue_at(1), res.residue_at(2)) == (F(3, 4), F(1, 2))

    def test_top_residue_law(self):
        for a in [(1,), (2, 3), (3, 4, 5), (2, 2, 2), (4, 6, 9, 10)]:
            want = F(1, factorial(len(a) - 1) * prod(a))
            assert residues_bernoulli_barnes(a).residue_at(len(a)) == want
            assert residues_powersum(a).residue_at(len(a)) == want

    def test_known_cubic_case(self):
        # p(n) for a=(1,1,1) is (n^2+3n+2)/2, so the residues are direct
        res = residues_bernoulli_barnes((1, 1, 1))
        assert res.values == (F(1), F(3, 2), F(1, 2))
        assert residues_powersum((1, 1, 1)).values == res.values

    def test_powersum_d_invariant(self):
        for a in [(2, 3), (4, 6), (2, 3, 4)]:
            lcm_route = residues_powersum(a, "lcm")
            assert residues_powersum(a, "product").values == lcm_route.values
            assert residues_powersum(a, 2 * make_instance(a).D).values == lcm_route.values

    def test_assembly(self):
        assert polypart_from_residues(residues_powersum((1, 2))).coeffs == (F(3, 4), F(1, 2))
        assert polypart_from_residues(residues_bernoulli_barnes((2, 3))).coeffs == (
            F(5, 12),
            F(1, 6),
        )

    def test_residue_at_bounds(self):
        res = residues_powersum((2, 3))
        with pytest.raises(ValueError):
            res.residue_at(0)
        with pytest.raises(ValueError):
            res.residue_at(3)


class TestCrossRouteAgreement:
    def test_four_routes(self):
        pool = sample_instances(30, max_r=4, max_entry=12, seed=11, box_budget=8000)
        for a in pool + [(2, 3, 5, 7)]:  # the last box holds 9.26e6 tuples
            box = polypart_box_average(a).coeffs
            assert polypart_bernoulli(a).coeffs == box
            assert polypart_from_residues(residues_powersum(a)).coeffs == box
            assert polypart_from_residues(residues_bernoulli_barnes(a)).coeffs == box

    def test_box_average_d_invariant(self):
        for a in [(2, 3), (4, 6), (1, 2, 3)]:
            want = polypart_box_average(a, "lcm").coeffs
            assert polypart_box_average(a, "product").coeffs == want
            assert polypart_box_average(a, 2 * make_instance(a).D).coeffs == want

    def test_residues_are_column_means(self):
        for a in [(2, 3), (4, 6), (2, 3, 4), (3, 3, 5)]:
            qp = quasipoly(a)
            d = qp.instance.D
            res = residues_powersum(a)
            barnes = residues_bernoulli_barnes(a)  # the only one without the Stirling kernel
            for m in range(1, len(a) + 1):
                mean = sum(qp.coeffs[m - 1], F(0)) / d
                assert mean == res.residue_at(m) == barnes.residue_at(m)

    def test_leading_coefficient_law(self):
        for a in [(2,), (2, 3), (4, 6), (2, 3, 4), (6, 10, 15)]:
            lead = polypart_box_average(a).coeffs[-1]
            assert lead == F(1, factorial(len(a) - 1) * prod(a))


class TestHighR:
    """r = 10..12, where the sums over compositions took seconds to minutes;
    too large a box for the box average, so the three series routes are
    checked against each other and the leading-coefficient law."""

    @pytest.mark.parametrize(
        "a",
        [
            tuple(range(2, 14)),
            tuple(sorted(random.Random(10).sample(range(2, 40), 10))),
            tuple(sorted(random.Random(11).sample(range(2, 40), 11))),
        ],
    )
    def test_series_routes_agree(self, a):
        r = len(a)
        coeffs = polypart_bernoulli(a).coeffs
        assert len(coeffs) == r
        assert coeffs[-1] == F(1, factorial(r - 1) * prod(a))
        assert residues_bernoulli_barnes(a).values == coeffs
        powersum = residues_powersum(a, "lcm").values
        assert powersum == coeffs
        assert residues_powersum(a, 2 * make_instance(a).D).values == powersum


class TestIntegerSeries:
    """The Bernoulli route multiplies integer EGFs of Bernoulli numbers with
    `_egf_product`; the Bernoulli-Barnes route exponentiates a series in the
    power sums of the weights (`_barnes_log_table`, `_egf_exp`) and calls
    neither `_egf_product` nor `bernoulli`; only the power-sum route keeps
    `_truncated_product`.  All but the last work in integers."""

    TUPLES = [(3, 4, 9, 10), tuple(range(2, 14))]

    @pytest.mark.parametrize("a", TUPLES)
    def test_no_fraction_arithmetic(self, a, monkeypatch):
        # the unpatched run also fills the cached table of Bernoulli numbers
        want = (polypart_bernoulli(a), residues_bernoulli_barnes(a), bernoulli_barnes(len(a), a))

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in a Bernoulli series")

        numbers._barnes_log_table.cache_clear()  # rebuilt under the patch below
        for name in ("add", "sub", "mul", "truediv"):
            monkeypatch.setattr(Fraction, f"__{name}__", refuse)
            monkeypatch.setattr(Fraction, f"__r{name}__", refuse)
        got = (polypart_bernoulli(a), residues_bernoulli_barnes(a), bernoulli_barnes(len(a), a))
        assert got == want

    @pytest.mark.parametrize("a", TUPLES)
    def test_product_ledger(self, a, monkeypatch):
        d = make_instance(a).D
        bernoulli_route = polypart_bernoulli(a)
        barnes_routes = (residues_bernoulli_barnes(a), bernoulli_barnes(3, a))
        powersum_routes = (residues_powersum(a), alpha(3, a, d))

        def refuse(*args):
            raise AssertionError("helper used by the wrong route")

        def refuse_all(patch, *names):
            for mod in (numbers, polypart):
                for name in names:
                    patch.setattr(mod, name, refuse, raising=False)

        with monkeypatch.context() as patch:
            refuse_all(patch, "_truncated_product", "_barnes_log_table", "_egf_exp")
            assert polypart_bernoulli(a) == bernoulli_route
        numbers._barnes_log_table.cache_clear()  # the Barnes route must rebuild it unaided
        with monkeypatch.context() as patch:
            refuse_all(patch, "_truncated_product", "_egf_product", "bernoulli")
            assert (residues_bernoulli_barnes(a), bernoulli_barnes(3, a)) == barnes_routes
        with monkeypatch.context() as patch:
            refuse_all(patch, "_egf_product", "_barnes_log_table", "_egf_exp")
            assert (residues_powersum(a), alpha(3, a, d)) == powersum_routes

    @pytest.mark.parametrize("a", [tuple(range(2, 32)), tuple(range(2, 42))])
    def test_routes_agree_at_large_r(self, a):
        assert polypart_bernoulli(a).coeffs == residues_bernoulli_barnes(a).values


class TestPolynomialBehavior:
    def test_exact_when_p_is_polynomial(self):
        for a in [(1,), (1, 1), (1, 1, 1)]:
            poly = polypart_bernoulli(a)
            horizon = 5 * make_instance(a).D
            table = p_oracle_upto(a, horizon)
            for n in range(horizon + 1):
                assert poly.evaluate(n) == table[n]

    def test_bounded_deviation_for_gcd_one(self):
        for a in [(2, 3), (3, 5), (3, 4, 5)]:
            inst = make_instance(a)
            poly = polypart_bernoulli(a)
            table = p_oracle_upto(a, 5 * inst.D)
            deviation = max(abs(F(table[n]) - poly.evaluate(n)) for n in range(5 * inst.D + 1))
            # the periodic fluctuation never grows with n
            tail = max(
                abs(F(table[n]) - poly.evaluate(n))
                for n in range(4 * inst.D, 5 * inst.D + 1)
            )
            assert tail <= deviation


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((F(3, 4), F(1, 2)), "1/2·n + 3/4"),
            ((F(1), F(1)), "n + 1"),
            ((F(1),), "1"),
            ((F(0), F(-1, 3), F(2)), "2·n^2 - 1/3·n"),
            ((F(0),), "0"),
        ],
    )
    def test_pretty(self, coeffs, expected):
        assert format_polynomial(RationalPolynomial(coeffs=coeffs)) == expected

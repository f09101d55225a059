"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a PASS/FAIL line with its elapsed time (run pytest with
-s to see them).  Randomized instances are drawn with fixed seeds and a box
budget so runs are deterministic and fit their time windows; criterion 6 adds
hand-picked instances with boxes up to 10^6 tuples.
"""

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm, prod

from denumerant import (
    box_sum_histogram,
    build_fiber_index,
    frobenius_general,
    frobenius_pair,
    is_zero,
    make_instance,
    p_oracle,
    p_oracle_upto,
    p_popoviciu,
    p_product,
    p_quasipoly,
    p_stirling,
    p_unrestricted,
    polypart_bernoulli,
    polypart_box_average,
    polypart_from_residues,
    quasipoly,
    representability_scan,
    residues_bernoulli_barnes,
    residues_powersum,
    sample_instances,
)


@contextmanager
def criterion(num, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num}: {description} [{elapsed:.1f}s]", flush=True)


def classical_partitions_upto(n_max):
    """Unrestricted partition numbers by Euler's pentagonal recurrence
    (independent of every code path under test)."""
    table = [0] * (n_max + 1)
    table[0] = 1
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * table[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * table[n - g2]
            k += 1
        table[n] = total
    return table


def test_criterion_01_oracle_equivalence():
    with criterion(1, "product/stirling/quasipoly match the DP oracle on 200 instances, n <= 200"):
        pool = sample_instances(200, max_r=4, max_entry=12, seed=101, box_budget=20_000)
        for a in pool:
            index = build_fiber_index(make_instance(a))
            qp = quasipoly(a, index=index)
            oracle = p_oracle_upto(a, 200)
            for n in range(201):
                want = oracle[n]
                assert p_product(a, n, index=index) == want, (a, n)
                assert p_stirling(a, n, index=index) == want, (a, n)
                assert p_quasipoly(qp, n) == want, (a, n)


def test_criterion_02_popoviciu():
    with criterion(2, "Popoviciu equals the oracle for all coprime pairs <= 30, n <= 500"):
        for a1 in range(1, 31):
            for a2 in range(a1 + 1, 31):
                if gcd(a1, a2) != 1:
                    continue
                oracle = p_oracle_upto((a1, a2), 500)
                for n in range(501):
                    assert p_popoviciu(a1, a2, n) == oracle[n], (a1, a2, n)


def test_criterion_03_d_invariance():
    with criterion(3, "p and the box-average polynomial agree under D = lcm, product, 2*lcm (50 instances)"):
        pool = sample_instances(
            50, max_r=4, max_entry=12, seed=103, box_budget=20_000,
            d_choices=("lcm", "product", "2lcm"),
        )
        for a in pool:
            d_variants = ("lcm", "product", 2 * lcm(*a))
            values = [[p_product(a, n, dv) for n in range(41)] for dv in d_variants]
            assert values[0] == values[1] == values[2], a
            polys = [polypart_box_average(a, dv).coeffs for dv in d_variants]
            assert polys[0] == polys[1] == polys[2], a


def test_criterion_04_polypart_triple_agreement():
    with criterion(4, "box average = Bernoulli form = residue assembly, coefficientwise (100 instances)"):
        pool = sample_instances(100, max_r=4, max_entry=12, seed=104, box_budget=20_000)
        for a in pool:
            box = polypart_box_average(a).coeffs
            assert polypart_bernoulli(a).coeffs == box, a
            assert polypart_from_residues(residues_powersum(a)).coeffs == box, a
            assert polypart_from_residues(residues_bernoulli_barnes(a)).coeffs == box, a


def test_criterion_05_residue_cross_check():
    with criterion(5, "power-sum residues equal Bernoulli-Barnes residues and the coefficient-column means"):
        pool = sample_instances(100, max_r=4, max_entry=12, seed=104, box_budget=20_000)
        for a in pool:
            powersum = residues_powersum(a)
            barnes = residues_bernoulli_barnes(a)
            assert powersum.values == barnes.values, a
            qp = quasipoly(a)
            d = qp.instance.D
            for m in range(1, len(a) + 1):
                mean = sum(qp.coeffs[m - 1], Fraction(0)) / d
                assert mean == powersum.residue_at(m), (a, m)


def test_criterion_06_fiber_cardinality():
    with criterion(6, "every fiber has g*D^(r-1)/prod(a) tuples when g | v, else 0; histogram = enumeration (boxes up to 10^6)"):
        pool = sample_instances(60, max_r=4, max_entry=12, seed=106, box_budget=20_000)
        curated = [(3, 4, 9, 10), (2, 3, 4, 5), (6, 10, 15), (8, 9, 12), (2, 2, 2, 2)]
        for a in pool + curated:
            inst = make_instance(a)
            assert inst.box_size <= 10**6, a
            index = build_fiber_index(inst)
            expect = inst.g * inst.D ** (inst.r - 1) // prod(inst.a)
            for v in range(inst.D):
                want = expect if v % inst.g == 0 else 0
                assert len(index.fiber(v)) == want, (a, v)
            assert index.total_tuples == inst.box_size, a
        for a in curated:  # the histogram against a walk of the whole box
            inst = make_instance(a)
            walked = Counter(
                sum(ai * ji for ai, ji in zip(inst.a, j))
                for j in itertools.product(*[range(n) for n in inst.axis_lengths])
            )
            h = box_sum_histogram(inst)
            assert Counter({inst.g * k: c for k, c in enumerate(h) if c}) == walked, a


def test_criterion_07_frobenius():
    with criterion(7, "closed form = fiber minima = scan for pairs <= 25; 30 gcd-1 triples; F(3,4,5) = 2"):
        for a1 in range(1, 26):
            for a2 in range(a1 + 1, 26):
                if gcd(a1, a2) != 1:
                    continue
                closed = frobenius_pair(a1, a2).value
                assert closed == a1 * a2 - a1 - a2
                assert frobenius_general((a1, a2)).value == closed, (a1, a2)
                gaps = representability_scan((a1, a2), a1 * a2)
                assert (max(gaps) if gaps else -1) == closed, (a1, a2)

        triples = sample_instances(
            30, min_r=3, max_r=3, max_entry=12, seed=107,
            box_budget=100_000, require_gcd1=True,
        )
        for a in triples:
            general = frobenius_general(a)
            horizon = max(general.value, 0) + make_instance(a).D
            gaps = representability_scan(a, horizon)
            assert (max(gaps) if gaps else -1) == general.value, a

        assert frobenius_general((3, 4, 5)).value == 2


def test_criterion_08_unrestricted_partitions():
    with criterion(8, "p(n) via the box route for n <= 5 and via the oracle for n <= 50 (p(50) = 204226)"):
        classical = classical_partitions_upto(50)
        # box enumeration route; infeasible past n ~ 6 (box is D^n/n!), so the
        # larger-n check below rides on the DP oracle instead
        for n in range(1, 6):
            assert p_unrestricted(n) == classical[n], n
        for n in range(1, 51):
            assert p_oracle(tuple(range(1, n + 1)), n) == classical[n], n
        assert classical[5] == 7
        assert classical[50] == 204226


def test_criterion_09_zero_characterization():
    with criterion(9, "is_zero(a, n) iff oracle reports 0, for n <= 3D on 100 instances"):
        pool = sample_instances(100, max_r=4, max_entry=12, seed=109, box_budget=20_000)
        for a in pool:
            inst = make_instance(a)
            index = build_fiber_index(inst)
            horizon = 3 * inst.D
            oracle = p_oracle_upto(a, horizon)
            for n in range(horizon + 1):
                assert is_zero(a, n, index=index) == (oracle[n] == 0), (a, n)


def test_criterion_10_bench_popoviciu_speedup():
    with criterion(10, "Popoviciu at n = 10^6 is >= 100x faster than the DP oracle, same value"):
        a1, a2, n = 3, 5, 10**6

        t0 = time.perf_counter()
        fast = p_popoviciu(a1, a2, n)
        reps = 1
        while time.perf_counter() - t0 < 0.01:  # tighten the timing on a feeble clock
            fast = p_popoviciu(a1, a2, n)
            reps += 1
        fast_time = (time.perf_counter() - t0) / reps

        t0 = time.perf_counter()
        slow = p_oracle((a1, a2), n)
        slow_time = time.perf_counter() - t0

        assert fast == slow
        assert slow_time >= 100 * fast_time, f"oracle {slow_time:.4f}s vs popoviciu {fast_time:.6f}s"

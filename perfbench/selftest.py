"""Tests of the benchmark itself: inputs, verification and tracing.

    python3 perfbench/selftest.py

The negative controls perturb one route inside the test only (with
unittest.mock) and check that the pass counts the failure.
"""

from __future__ import annotations

import dataclasses
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hurwitz_tau as ht  # noqa: E402

import inputs as inp  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_tables():
    """The tables workload at D = 3, Nmax = 3, so a pass takes milliseconds."""
    return mock.patch.multiple(inp, TABLE_ORDER=3, TABLE_NMAX=3, TABLE_CHECK_NMAX=2,
                               TABLE_CHECK_D=2)


def small_queries(seed=3) -> inp.QueriesInput:
    data = inp.queries_input(seed)
    picked, per_kind = [], {}
    for q in data.queries:
        if q.kind == "chartable" and q.meta[0] > 10:
            continue
        if per_kind.get(q.kind, 0) < 4:
            per_kind[q.kind] = per_kind.get(q.kind, 0) + 1
            picked.append(q)
    return dataclasses.replace(data, queries=tuple(picked))


def small_determinants(seed=3) -> inp.DeterminantsInput:
    data = inp.determinants_input(seed)
    fam, beta, _ = data.det_cases[0]
    return dataclasses.replace(data, det_cases=((fam, beta, (1, 2)),),
                               checks=data.checks[:2])


def run(runner, data) -> workloads.Pass:
    p = workloads.Pass()
    runner(data, p)
    return p


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for gen in inp.GENERATORS.values():
            self.assertEqual(gen(7), gen(7))
            self.assertNotEqual(gen(7), gen(8))

    def test_query_mix_is_fixed(self):
        counts = {}
        for q in inp.queries_input(5).queries:
            counts[q.kind] = counts.get(q.kind, 0) + 1
        self.assertEqual(counts, {"weighted": 600, "hurwitz": 200, "phi": 198,
                                  "chartable": 8})

    def test_oracle_leads_have_equal_class_sizes(self):
        for N, leads, _ in inp.ORACLE_SHAPES:
            self.assertEqual(len({workloads.z_mu(mu) for mu in leads}), 1, leads)

    def test_rho_windows_are_regular(self):
        """Every series a workload asks for is regular through its order."""
        for seed in range(4):
            det = inp.determinants_input(seed)
            for fam, beta, M in det.checks:
                G = workloads.weight_gen(fam)
                for k in inp.CHECK_K:
                    order, reason = ht.analytic.max_regular_order(G, beta, k,
                                                                  inp.CHECK_ORDER, M)
                    self.assertEqual(order, inp.CHECK_ORDER, reason)
            for fam, beta, ns in det.det_cases:
                G = workloads.weight_gen(fam)
                for n in ns:
                    order, reason = ht.analytic.max_regular_order(G, beta, n, inp.DET_J)
                    self.assertEqual(order, inp.DET_J, reason)
            q = inp.queries_input(seed)
            for fam, beta in zip(q.families, q.phi_beta):
                G = workloads.weight_gen(fam)
                for k in inp.PHI_K:
                    order, reason = ht.analytic.max_regular_order(G, beta, k,
                                                                  inp.PHI_ORDER)
                    self.assertEqual(order, inp.PHI_ORDER, reason)


class Verification(unittest.TestCase):
    def test_clean_passes_count_no_failure(self):
        with small_tables():
            p = run(workloads.run_tables, inp.tables_input(3))
        self.assertGreater(p.attempted, 0)
        self.assertEqual((p.failed, p.capped), (0, 0), p.notes)
        data = small_queries()
        p = run(workloads.run_queries, data)
        self.assertEqual((p.attempted, p.failed), (len(data.queries), 0), p.notes)
        self.assertEqual(len(p.latencies), len(data.queries))
        p = run(workloads.run_determinants, small_determinants())
        self.assertEqual((p.failed, p.capped), (0, 0), p.notes)

    def test_perturbed_direct_count_is_a_failure(self):
        real = ht.weighted_hurwitz
        with small_tables(), mock.patch.object(
                ht, "weighted_hurwitz", lambda *a: real(*a) + Fraction(1, 7)):
            p = run(workloads.run_tables, inp.tables_input(3))
        self.assertGreater(p.failed, 0)
        self.assertIn("direct count != series", p.notes[0])

    def test_perturbed_cli_oracle_is_a_failure(self):
        real = ht.cli.hurwitz_oracle
        with mock.patch.object(ht.cli, "hurwitz_oracle", lambda pt: real(pt) + 1):
            p = run(workloads.run_queries, small_queries())
        self.assertEqual(p.failed, 4)

    def test_crash_at_the_cli_boundary_is_a_failure(self):
        def boom(*args):
            raise ValueError("int too large to convert")

        data = small_queries()
        with mock.patch.object(ht.cli, "format_rational", boom):
            p = run(workloads.run_queries, data)
        chartables = sum(1 for q in data.queries if q.kind == "chartable")
        self.assertEqual(p.failed, p.attempted - chartables)
        self.assertIn("ValueError", p.notes[0])

    def test_perturbed_wronskian_is_a_failure(self):
        real = ht.analytic.tau_wronskian

        def off(*args):
            v = real(*args)
            return dataclasses.replace(v, value=v.value * 2)

        with mock.patch.object(ht.analytic, "tau_wronskian", off):
            p = run(workloads.run_determinants, small_determinants())
        self.assertEqual(p.failed, 2)

    def test_singular_case_is_capped_not_failed(self):
        def pole(*args):
            raise ht.SingularParameterError("pole", code="singular-rho")

        with mock.patch.object(ht.analytic, "check_spectral", pole):
            p = run(workloads.run_determinants, small_determinants())
        self.assertEqual(p.failed, 0)
        self.assertEqual(p.capped, 2 * len(inp.CHECK_K))


class Tracing(unittest.TestCase):
    def test_self_times_add_up_and_install_is_undone(self):
        before = (ht.tau_double_table, ht.hurwitz._character, ht.BetaSeries.__mul__)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(ht.hurwitz._character, before[1])
            # the recursion inside characters keeps calling the cache directly
            self.assertTrue(hasattr(ht.characters._character, "cache_info"))
            p = workloads.Pass()
            with tracer.span("bench", "pass") as root, small_tables():
                workloads.run_tables(inp.tables_input(3), p)
                workloads.run_queries(small_queries(), p)
        finally:
            tracer.uninstall()
        self.assertEqual(before, (ht.tau_double_table, ht.hurwitz._character,
                                  ht.BetaSeries.__mul__))
        layers, accounting = tracer.metrics(root)
        self.assertAlmostEqual(sum(accounting["self_s"].values()), accounting["wall_s"])
        self.assertEqual(layers["cli.calls"], len(small_queries().queries))
        self.assertGreater(layers["tau_series.entries"], 0)
        self.assertGreater(layers["weights.configs"], 0)
        self.assertTrue(set(tracing.PER_LAYER_UNITS) - {"trace.overhead_frac"}
                        <= set(layers))


class Dominance(unittest.TestCase):
    @staticmethod
    def traced(**self_s):
        return {"accounting": {"wall_s": 1.0, "self_s": self_s}}

    def verdict(self, workload, passes):
        return bench.dominance(workload, passes)[-1].rsplit(": ", 1)[-1]

    def test_chosen_layer_leading_holds(self):
        passes = [self.traced(tau_series=0.6, algebra=0.3, bench=0.1),
                  self.traced(tau_series=0.5, algebra=0.4, bench=0.1)]
        self.assertEqual(self.verdict("tables", passes), "holds")

    def test_other_layer_leading_does_not_hold(self):
        passes = [self.traced(analytic=0.3, algebra=0.6, bench=0.1)]
        self.assertEqual(self.verdict("determinants", passes), "DOES NOT HOLD")

    def test_queries_group_leads_together(self):
        passes = [self.traced(weights=0.2, hurwitz=0.15, cli=0.1, characters=0.3,
                              bench=0.25)]
        self.assertEqual(self.verdict("queries", passes), "holds")
        passes = [self.traced(weights=0.1, hurwitz=0.1, cli=0.1, characters=0.6,
                              bench=0.1)]
        self.assertEqual(self.verdict("queries", passes), "DOES NOT HOLD")


if __name__ == "__main__":
    unittest.main()

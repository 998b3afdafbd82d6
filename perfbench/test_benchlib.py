"""Self-tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchlib
from benchlib import TooFewSamples, min_samples, percentile


class PercentileTest(unittest.TestCase):
    def test_median_needs_ten_samples_beyond_it(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(19)), 0.5)
        self.assertEqual(percentile(list(range(20)), 0.5), 9)

    def test_tail_percentiles_need_ten_beyond(self):
        with self.assertRaises(TooFewSamples):
            percentile(list(range(99)), 0.9)
        self.assertEqual(percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(TooFewSamples):
            percentile(list(range(999)), 0.99)
        self.assertEqual(percentile(list(range(1000)), 0.99), 989)

    def test_nearest_rank_ignores_input_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
        self.assertEqual(percentile(samples, 0.5), 3.0)

    def test_min_samples_matches_the_rule(self):
        self.assertEqual(min_samples(0.5), 20)
        self.assertEqual(min_samples(0.9), 100)
        self.assertEqual(min_samples(0.99), 1000)

    def test_rejects_percentiles_outside_the_open_interval(self):
        for p in (0.0, 1.0, 1.5):
            with self.assertRaises(ValueError):
                percentile(list(range(100)), p)


class DeterminismTest(unittest.TestCase):
    def test_same_seed_gives_identical_plans(self):
        for workload in ("rmat-gpu", "sparse-cpu", "serve-zipf"):
            a = benchlib.plan_bytes(benchlib.plan_for(workload, 7, "w"))
            b = benchlib.plan_bytes(benchlib.plan_for(workload, 7, "w"))
            self.assertEqual(a, b, workload)

    def test_other_seed_gives_other_inputs(self):
        a = benchlib.plan_for("serve-zipf", 1, "w")
        b = benchlib.plan_for("serve-zipf", 2, "w")
        self.assertNotEqual(benchlib.plan_bytes(a), benchlib.plan_bytes(b))

    def test_connections_never_share_a_graph_name(self):
        plan = benchlib.plan_for("serve-zipf", 3, "w")
        names = []
        for conn in plan["conns"]:
            ops = conn["setup"] + conn["ops"]
            names.append({op.get("name") or op.get("graph") for op in ops})
        self.assertFalse(names[0] & names[1])

    def test_queries_name_live_graphs_and_churn_on_schedule(self):
        plan = benchlib.plan_for("serve-zipf", 4, "w")
        for conn in plan["conns"]:
            live = {op["name"] for op in conn["setup"]}
            queries = 0
            for op in conn["ops"]:
                if op["op"] == "query":
                    self.assertIn(op["graph"], live)
                    queries += 1
                elif op["op"] == "evict":
                    self.assertEqual(queries % benchlib.CHURN_EVERY, 0)
                    live.remove(op["name"])
                else:
                    live.add(op["name"])
                self.assertLessEqual(len(live), benchlib.LIVE_GRAPHS)
            self.assertEqual(queries, benchlib.MAX_QUERIES)

    def test_splitmix_stream_is_fixed(self):
        rng = benchlib.SplitMix64(0)
        self.assertEqual(rng.next(), 0xE220A8397B1DCDAF)


if __name__ == "__main__":
    unittest.main()

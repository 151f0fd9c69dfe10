"""Self-tests of the benchmark's own logic (report.py).

    python3 perfbench/run.py --self-test
"""

import json
import os
import unittest

import report

HERE = os.path.dirname(os.path.abspath(__file__))


class TailPercentileTest(unittest.TestCase):

    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(0))
        self.assertIsNone(report.tail_percentile(39))
        self.assertEqual(report.tail_percentile(40), 75)
        self.assertEqual(report.tail_percentile(99), 75)
        self.assertEqual(report.tail_percentile(100), 90)
        self.assertEqual(report.tail_percentile(199), 90)
        self.assertEqual(report.tail_percentile(200), 95)
        self.assertEqual(report.tail_percentile(1000), 99)

    def test_chosen_percentile_leaves_ten_samples_beyond(self):
        for count in range(1, 3000, 7):
            p = report.tail_percentile(count)
            if p is None:
                continue
            samples = list(range(count))
            value = report.percentile(samples, p)
            self.assertGreaterEqual(sum(1 for s in samples if s > value), 10)

    def test_nearest_rank(self):
        samples = [5, 1, 4, 2, 3]
        self.assertEqual(report.percentile(samples, 50), 3)
        self.assertEqual(report.percentile(samples, 100), 5)
        self.assertEqual(report.percentile(list(range(1, 101)), 90), 90)

    def test_detail_reports_count_and_only_allowed_tails(self):
        raw = {"series": {"few_ms": [1.0] * 12, "many_ms": list(range(150)),
                          "bytes": [1.0] * 50}}
        detail = report.latency_detail(raw)
        self.assertEqual(detail["few_ms"], {"median": 1.0, "n": 12})
        self.assertEqual(detail["many_ms"]["n"], 150)
        self.assertIn("p90", detail["many_ms"])
        self.assertNotIn("bytes", detail)


class NameTest(unittest.TestCase):

    def test_metric_name_charset(self):
        for good in ("op_ms", "phase.ct_build_ms", "ct_cache.hit_ratio",
                     "9lives", "a-b", "x" * 64):
            self.assertTrue(report.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                    "p90%", "naïve"):
            self.assertFalse(report.valid_name(bad), bad)

    def test_unit_charset(self):
        for good in ("ms", "s", "1/s", "count", "%", "MiB", "ratio"):
            self.assertTrue(report.valid_unit(good), good)
        for bad in ("", "m s", "x" * 17, "ms;"):
            self.assertFalse(report.valid_unit(bad), bad)

    def test_every_declared_metric_is_valid_and_unique(self):
        names = [n for n, _ in report.END_TO_END + report.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in report.END_TO_END + report.PER_LAYER:
            self.assertTrue(report.valid_name(name), name)
            self.assertTrue(report.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_report(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         report.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         report.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(report.WORKLOADS))


class TallyTest(unittest.TestCase):

    def test_refused_and_errored_requests_fail(self):
        ops = [["mine_cold", "ok", "", ""],
               ["mine_cold", "refused", "k1", ""],
               ["ping", "error", "", ""]]
        self.assertEqual(report.tally(ops, {}), (3, 2, 0))

    def test_digest_mismatch_fails_and_counts_as_wrong(self):
        refs = {"k1": "aaaa", "k2": "bbbb"}
        ops = [["mine_cold", "ok", "k1", "aaaa"],
               ["mine_memo", "ok", "k1", "aaaa"],
               ["mine_cold", "ok", "k2", "bbbc"]]
        self.assertEqual(report.tally(ops, refs), (3, 1, 1))

    def test_missing_reference_is_a_mismatch(self):
        ops = [["mine_cold", "ok", "k9", "aaaa"]]
        self.assertEqual(report.tally(ops, {}), (1, 1, 1))

    def test_result_is_incorrect_on_a_wrong_answer(self):
        raw = {"ops": [["query", "ok", "answers", "x"]],
               "refs": {"answers": "y"}, "setup_s": [1.0],
               "series": {"query_ms": [2.0], "query_mt_ms": [1.0]},
               "values": {"peak_rss_mb": 10.0},
               "rate": {"ops": 0, "seconds": 0.0}}
        result = report.result("deep_ibm", raw, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        raw["refs"]["answers"] = "x"
        result = report.result("deep_ibm", raw, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["ops_per_s"]["value"], 1000.0)
        self.assertEqual(result["metrics"]["op_ms"],
                         {"value": 2.0, "unit": "ms"})


if __name__ == "__main__":
    unittest.main()

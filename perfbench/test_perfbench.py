#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; the generator test builds the
benchmark tools the way run.py does.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class MathTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(run.geomean([2.0, 8.0, 4.0]), 4.0)
        self.assertAlmostEqual(run.geomean([7.5]), 7.5)

    def test_ratio_states_its_base(self):
        # ok_ratio: commands that ended well over commands attempted.
        self.assertAlmostEqual(run.ratio(3, 4), 0.75)
        # An empty base (nothing attempted) reads 0, not a division error.
        self.assertEqual(run.ratio(0, 0), 0.0)

    def test_self_time_subtracts_direct_children(self):
        spans = [
            {"name": "core", "start_us": 0.0, "end_us": 100.0, "parent": -1},
            {"name": "sched", "start_us": 10.0, "end_us": 30.0, "parent": 0},
            {"name": "core.store_read", "start_us": 40.0, "end_us": 50.0,
             "parent": 0},
            {"name": "sim.region", "start_us": 100.0, "end_us": 160.0,
             "parent": -1},
        ]
        self.assertEqual(run.self_times(spans), {0: 70.0, 1: 20.0, 2: 10.0,
                                                 3: 60.0})

    def test_end_to_end_combines_per_command_medians(self):
        def rec(wall, cpu, rss, ok=True):
            r = run.Run(wall, cpu, rss, 0, "", "", False)
            r.ok = ok
            return r
        passes = [[rec(1.0, 1.0, 1024), rec(4.0, 2.0, 2048)],
                  [rec(2.0, 1.0, 1024), rec(8.0, 2.0, 4096)],
                  [rec(1.0, 1.0, 1024), rec(4.0, 2.0, 2048, ok=False)]]
        m = run.end_to_end(passes, [0.5, 0.25, 0.75])
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["cmd_geomean_ms"], 2000.0)
        self.assertAlmostEqual(m["cmd_max_s"], 4.0)
        self.assertAlmostEqual(m["cpu_s"], 3.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["ok_ratio"], 5 / 6)
        self.assertAlmostEqual(m["setup_s"], 0.5)


class JsonTest(unittest.TestCase):
    def test_duplicate_keys_are_rejected(self):
        with self.assertRaises(ValueError):
            run.strict_json_loads('{"a": 1, "a": 2}')
        self.assertEqual(run.strict_json_loads('{"a": {"b": 1}}'),
                         {"a": {"b": 1}})

    def test_result_line_has_exactly_the_four_keys(self):
        metrics = {name: {"value": 1.5, "unit": unit}
                   for name, unit in run.END_TO_END}
        parsed = run.strict_json_loads(run.result_line(True, 3, 0, metrics))
        self.assertEqual(sorted(parsed), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertEqual(parsed["metrics"], metrics)

    def test_benchmark_json_matches_the_metrics_run_emits(self):
        with open(os.path.join(run.REPO_ROOT, "BENCHMARK.json")) as f:
            bench = run.strict_json_loads(f.read())
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(e2e, dict(run.END_TO_END))
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(layer, run.PER_LAYER)
        all_names = names + list(e2e) + list(layer)
        self.assertEqual(len(all_names), len(set(all_names)))

    def test_expected_file_has_no_duplicate_keys(self):
        with open(run.EXPECTED_PATH) as f:
            run.strict_json_loads(f.read())


class ExpectedCheckTest(unittest.TestCase):
    def setUp(self):
        with open(run.EXPECTED_PATH) as f:
            self.expected = json.load(f)

    def test_equal_summaries_match(self):
        entry = self.expected["flow_ladder/diffeq/leftedge"]
        self.assertEqual(run.mismatch(entry, dict(entry)), "")

    def test_planted_table_cell_mismatch_is_caught(self):
        entry = self.expected["flow_ladder/diffeq/leftedge"]
        planted = dict(entry)
        planted["stdout"] = entry["stdout"].replace("105.0", "106.0", 1)
        self.assertNotEqual(planted["stdout"], entry["stdout"])
        self.assertIn("stdout differs", run.mismatch(entry, planted))

    def test_planted_verdict_mismatch_is_caught(self):
        entry = self.expected["lint_ladder/L48"]
        planted = json.loads(json.dumps(entry))
        planted["verdicts"]["symbolic MDL001 UNKNOWN"] = 1
        self.assertIn("verdicts differs", run.mismatch(entry, planted))
        self.assertIn("exit differs", run.mismatch(entry, dict(entry, exit=1)))

    def test_missing_entry_is_a_mismatch(self):
        self.assertEqual(run.mismatch(None, {"exit": 0}), "no expected entry")

    def test_paper_designs_lint_clean(self):
        for stem, _, _ in run.PAPER:
            for encoding in ("binary", "onehot"):
                entry = self.expected["lint_ladder/%s/%s" % (stem, encoding)]
                self.assertEqual(entry["exit"], 0)
                bad = [k for k in entry["verdicts"]
                       if k.startswith(("error", "warning")) or
                       k.endswith(("CEX", "UNKNOWN"))]
                self.assertEqual(bad, [], stem)


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tools = run.build()
        os.makedirs(".bench_work", exist_ok=True)
        cls.tmp = tempfile.mkdtemp(dir=".bench_work")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def generate(self, name, seed):
        d = os.path.join(self.tmp, name)
        os.makedirs(d)
        cmds = run.flow_commands() + run.lint_commands() + \
            run.region_programs()
        run.generate(self.tools, run.requests_for(cmds, seed), d)
        return d

    def read_all(self, d):
        out = {}
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                out[name] = f.read()
        return out

    def test_same_seed_gives_byte_identical_inputs(self):
        a = self.read_all(self.generate("a", 5))
        b = self.read_all(self.generate("b", 5))
        self.assertEqual(a, b)
        self.assertGreater(len(a), 10)

    def test_other_seed_renames_but_keeps_the_structure(self):
        a = self.read_all(self.generate("c", 5))
        b = self.read_all(self.generate("d", 6))
        self.assertEqual(sorted(a), sorted(b))
        for name in a:
            self.assertNotEqual(a[name], b[name], name)
            self.assertEqual(a[name].count(b"\n"), b[name].count(b"\n"), name)

    def test_edit_is_deterministic_and_changes_one_line(self):
        d = self.generate("e", 5)
        f = os.path.join(d, "fir_iir_loop.dfg")
        with open(f, "rb") as fh:
            before = fh.read()
        copies = []
        for kind in ("operand", "opclass"):
            for _ in range(2):
                with open(f, "wb") as fh:
                    fh.write(before)
                run.generate(self.tools, [["edit", kind, "9", "fir_iir_loop.dfg"]], d)
                with open(f, "rb") as fh:
                    copies.append(fh.read())
        self.assertEqual(copies[0], copies[1])
        self.assertEqual(copies[2], copies[3])
        for edited in (copies[0], copies[2]):
            changed = [x for x, y in zip(before.splitlines(),
                                         edited.splitlines()) if x != y]
            self.assertEqual(len(changed), 1)


if __name__ == "__main__":
    unittest.main()

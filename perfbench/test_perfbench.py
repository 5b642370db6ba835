"""Self-tests of the benchmark's generator, output checks and statistics.

    python3 perfbench/test_perfbench.py

They need no build: the checks run on hand-made client records.
"""

import copy
import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mix  # noqa: E402
import run  # noqa: E402


def solve_op(op=0, **over):
    rec = dict(op=op, iterations=12, converged=False, fixup_cells=0,
               absorption=2.7203070699453518, leakage=5.279692531116069,
               absorption_hex="0x1.5c3305a63f166p+1",
               leakage_hex="0x1.51e67b80850ep+2", sim_s=1.30686657101632,
               cell_solves=72000000, chunks=387840, report_fnv1a="1")
    rec.update(over)
    return rec


def ladder_op(op=0, **over):
    sims = {k: sim for k, (sim, _) in run.EXPECT_LADDER.items()}
    sims.update(over)
    return dict(op=op, stages=[
        dict(stage=k, sim_s=v, chunks=run.EXPECT_LADDER[k][1],
             cell_solves=run.LADDER_CELL_SOLVES) for k, v in sims.items()])


def serve_pass(jobs):
    """A pass in which every job got exactly its expected outcome."""
    recs = []
    for j in jobs:
        r = dict(idx=j["idx"], outcome=j["expect"], due=1.0, submit_start=1.0)
        if j["expect"] == "ok":
            r["result"] = dict(absorption_hex="0x1p+0", leakage_hex="0x1p+1")
        recs.append(r)
    ok = sum(j["expect"] == "ok" for j in jobs)
    return dict(rate_jobs=[r for r, j in zip(recs, jobs) if j["phase"] == "rate"],
                burst_jobs=[r for r, j in zip(recs, jobs) if j["phase"] == "burst"],
                stats=dict(submitted=ok, completed=ok, failed=0, cancelled=0,
                           rejected=len(jobs) - ok))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        a = mix.encode(mix.serve_mix(7, 44, 15))
        b = mix.encode(mix.serve_mix(7, 44, 15))
        self.assertEqual(a, b)
        self.assertNotEqual(a, mix.encode(mix.serve_mix(8, 44, 15)))

    def test_composition_is_fixed_and_seed_moves_order(self):
        a, b = mix.serve_mix(1, 44, 15), mix.serve_mix(2, 44, 15)
        self.assertEqual(mix.describe(a)["categories"],
                         mix.describe(b)["categories"])
        self.assertNotEqual([j["category"] for j in a],
                            [j["category"] for j in b])

    def test_mix_supports_reported_percentiles(self):
        jobs = mix.serve_mix(3, 44, 1)
        valid_rate = [j for j in jobs if j["phase"] == "rate"
                      and j["expect"] == "ok"]
        self.assertGreaterEqual(len(valid_rate), 200)
        for cat in ("stencil", "pool-sweep", "unique-sweep"):
            self.assertGreaterEqual(
                sum(j["category"] == cat for j in jobs), 20, cat)
        # A few functional sweeps, enough that pooled inputs repeat.
        fn = [j["text"] for j in jobs if j["category"] == "fn-sweep"]
        self.assertGreater(len(fn), len(set(fn)))

    def test_functional_jobs_stay_within_their_service_share(self):
        split = mix.describe(mix.serve_mix(6, 28, 20))["service_split"]
        self.assertLessEqual(sum(split[c] for c in mix.FUNCTIONAL),
                             mix.FUNCTIONAL_TARGET)

    def test_due_times_hold_the_rate(self):
        rate = [j["due_s"] for j in mix.serve_mix(4, 44, 15)
                if j["phase"] == "rate"]
        self.assertAlmostEqual(len(rate) / rate[-1], 44, places=6)
        self.assertEqual({j["due_s"] for j in mix.serve_mix(4, 44, 15)
                          if j["phase"] == "burst"}, {0.0})

    def test_encoding_round_trips_through_the_header(self):
        jobs = mix.serve_mix(5, 44, 1)
        data = mix.encode(jobs)
        pos, seen = 0, 0
        while pos < len(data):
            nl = data.index(b"\n", pos)
            head = data[pos:nl].decode().split()
            self.assertEqual(head[0], "job")
            n = int(head[-1])
            text = data[nl + 1:nl + 1 + n].decode()
            self.assertEqual(text, jobs[seen]["text"])
            pos, seen = nl + 1 + n, seen + 1
        self.assertEqual(seen, len(jobs))


class SolveCheckTest(unittest.TestCase):
    def test_reference_values_pass(self):
        self.assertEqual(run.check_solve("paper50", [solve_op(0), solve_op(1)]),
                         [])

    def test_wrong_physics_value_fails(self):
        for over in (dict(absorption=2.72041), dict(iterations=11),
                     dict(fixup_cells=3), dict(leakage=5.2797)):
            bad = run.check_solve("paper50", [solve_op(**over)])
            self.assertEqual(len(bad), 1, over)

    def test_wrong_simulated_time_or_count_fails(self):
        # Every op of the run agrees, so only the expected values catch it.
        for over in (dict(sim_s=1.30687), dict(sim_s=1.39394487500064),
                     dict(cell_solves=72000001), dict(chunks=387839)):
            bad = run.check_solve("paper50", [solve_op(0, **over),
                                              solve_op(1, **over)])
            self.assertEqual([op for op, _ in bad], [0, 1], over)

    def test_last_bits_of_simulated_time_may_move(self):
        ops = [solve_op(0, sim_s=1.30686657101632 * (1 + 1e-14))]
        self.assertEqual(run.check_solve("paper50", ops), [])

    def test_nondeterministic_ops_fail(self):
        bad = run.check_solve("paper50", [solve_op(0), solve_op(
            1, absorption_hex="0x1.5c3305a63f167p+1")])
        self.assertEqual([op for op, _ in bad], [1])


class LadderCheckTest(unittest.TestCase):
    def test_reference_ladder_passes(self):
        self.assertEqual(run.check_ladder([ladder_op()]), [])

    def test_stage_outside_band_fails(self):
        self.assertEqual(len(run.check_ladder([ladder_op(**{"spe-simd": 1.8})])),
                         1)

    def test_stage_inside_band_but_not_exact_fails(self):
        bad = run.check_ladder([ladder_op(**{"spe-simd": 1.48})])
        self.assertEqual(len(bad), 1)
        self.assertIn("spe-simd sim_s", bad[0][1])

    def test_wrong_stage_chunk_count_fails(self):
        op = ladder_op()
        op["stages"][3]["chunks"] += 1
        self.assertEqual(len(run.check_ladder([op])), 1)

    def test_fig5_steps_must_decrease(self):
        bad = run.check_ladder([ladder_op(**{"spe-dmalists": 1.48,
                                             "spe-simd": 1.48})])
        self.assertIn("strictly decrease", bad[0][1])


class ServeCheckTest(unittest.TestCase):
    def setUp(self):
        self.jobs = mix.serve_mix(9, 44, 1)
        self.run = serve_pass(self.jobs)

    def test_expected_outcomes_pass(self):
        self.assertEqual(run.check_serve(self.jobs, self.run), [])

    def test_missing_job_fails(self):
        self.run["rate_jobs"].pop(3)
        bad = run.check_serve(self.jobs, self.run)
        self.assertEqual(len(bad), 1)
        self.assertIn("missing", bad[0][1])

    def test_wrong_rejection_reason_fails(self):
        rec = next(r for r in self.run["rate_jobs"]
                   if r["outcome"] == "reject:parse")
        rec["outcome"] = "reject:lint"
        self.assertEqual([i for i, _ in run.check_serve(self.jobs, self.run)],
                         [rec["idx"]])

    def test_wrongly_rejected_valid_job_fails(self):
        rec = next(r for r in self.run["rate_jobs"] if r["outcome"] == "ok")
        rec["outcome"] = "reject:queue-full"
        self.assertEqual(len(run.check_serve(self.jobs, self.run)), 1)

    def test_repeated_functional_inputs_must_agree_bitwise(self):
        fn = [j for j in self.jobs if j["mode"] == "functional"
              and j["kind"] == "sweep"]
        text = fn[0]["text"]
        later = [j for j in fn[1:] if j["text"] == text][0]
        rec = next(r for r in run.serve_records(self.run)
                   if r["idx"] == later["idx"])
        rec["result"] = dict(rec["result"], absorption_hex="0x1.0000000000001p+0")
        self.assertEqual([i for i, _ in run.check_serve(self.jobs, self.run)],
                         [later["idx"]])

    def test_conservation_law(self):
        self.run["stats"]["completed"] -= 1
        self.assertEqual([i for i, _ in run.check_serve(self.jobs, self.run)],
                         [-1])


class StatisticsTest(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1, 201)), 0.95), 190)
        with self.assertRaises(run.InvalidRun):
            run.percentile(list(range(1, 200)), 0.95)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 0.5), 2.0)

    def test_failed_jobs_count_as_infinite_latency(self):
        jobs = [dict(idx=i, expect="ok") for i in range(3)]
        passes = dict(rate_jobs=[
            dict(idx=0, outcome="ok", due=0.0, report=0.1),
            dict(idx=1, outcome="failed", due=0.0, report=0.1),
            dict(idx=2, outcome="reject:lint", due=0.0)])
        self.assertEqual(run.serve_latencies(jobs, passes),
                         [0.1, math.inf, math.inf])

    def test_result_line_is_strict_json_when_jobs_fail(self):
        jobs = [dict(idx=i, expect="ok") for i in range(3)]
        failed = dict(rate_jobs=[
            dict(idx=0, outcome="failed", due=0.0),
            dict(idx=1, outcome="failed", due=0.0),
            dict(idx=2, outcome="ok", due=0.0, report=0.1)])
        solve = run.median(run.serve_latencies(jobs, failed))
        metrics = {"solve_s": solve, "overhead_s": solve - solve,
                   "setup_s": 0.01}
        units = {"solve_s": "s", "overhead_s": "s", "setup_s": "s"}
        line = run.result_line([(0, "failed")], 3, 2, metrics, units)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        res = json.loads(line, parse_constant=reject)
        self.assertIsNone(res["metrics"]["solve_s"]["value"])
        self.assertIsNone(res["metrics"]["overhead_s"]["value"])
        self.assertEqual(res["metrics"]["setup_s"]["value"], 0.01)
        self.assertFalse(res["correct"])

    def test_late_generator_invalidates_the_run(self):
        late = dict(rate_jobs=[dict(due=1.0, submit_start=1.0),
                               dict(due=2.0, submit_start=2.0 + 2 * run.LATE_BOUND_S)])
        with self.assertRaises(run.InvalidRun):
            run.check_open_loop({"pass": late})
        on_time = copy.deepcopy(late)
        on_time["rate_jobs"][1]["submit_start"] = 2.0 + run.LATE_BOUND_S / 2
        run.check_open_loop({"pass": on_time})


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        bench = run.load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

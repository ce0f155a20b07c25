"""Self-tests for the benchmark's own logic (no banger binary needed).

    python3 perfbench/selftest.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import measure  # noqa: E402
import ref  # noqa: E402
import workloads  # noqa: E402


def render(store, values, tasks):
    """The program's rendering of a run result (12 significant digits)."""
    return "%s = [%s]\n(%d task executions)\n" % (
        store, ", ".join("%.12g" % v for v in values), tasks)


class TailRank(unittest.TestCase):
    def test_exactly_ten_samples_above(self):
        value, pct, above = measure.tail(range(1, 101))
        self.assertEqual((value, pct, above), (90, 90.0, 10))

    def test_order_does_not_matter(self):
        xs = list(range(1, 51))
        self.assertEqual(measure.tail(reversed(xs)), measure.tail(xs))
        self.assertEqual(measure.tail(xs)[0], 40)

    def test_smallest_sample_set_with_a_tail(self):
        self.assertEqual(measure.tail(range(21)), (10, 100.0 * 11 / 21, 10))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(measure.tail([3, 1, 2]), (3, 100.0, 0))
        self.assertEqual(measure.tail(range(20)), (19, 100.0, 0))


class RunSizing(unittest.TestCase):
    def test_whole_blocks_from_seconds_and_rate(self):
        self.assertEqual(workloads.blocks_for(20, 2.0, 15), 45)
        self.assertEqual(workloads.blocks_for(11, 18.0, 40), 200)

    def test_at_least_one_block(self):
        self.assertEqual(workloads.blocks_for(1, 2.0, 15), 15)


class ReferenceSolvers(unittest.TestCase):
    def test_heat_one_step_by_hand(self):
        # u_i + a * ((u_{i-1} - 2 u_i) + u_{i+1}), zero ghost cells.
        self.assertEqual(ref.heat([4, 8, 4], 1, 1, 3, [0.25]), [4, 6, 4])

    def test_heat_two_steps_by_hand(self):
        self.assertEqual(ref.heat([4, 8, 4], 1, 2, 3, [0.25]), [3.5, 5, 3.5])

    def test_heat_per_segment_coefficients(self):
        self.assertEqual(ref.heat([4, 8, 4, 0], 2, 1, 2, [0.25, 0.5]),
                         [4, 6, 4, 2])

    def test_lu_system(self):
        x = ref.solve([4, 3, 2, 8, 8, 5, 4, 7, 9], [16, 39, 45])
        self.assertTrue(ref.close(x, [1, 2, 3]))

    def test_lu_needs_pivoting(self):
        self.assertTrue(ref.close(ref.solve([0, 1, 1, 0], [2, 3]), [3, 2]))

    def test_heat_work_bounds(self):
        self.assertEqual(ref.heat_work(2, 3, 4), (2 * (1 + 3) + 1, 1 + 3 + 1))


class Generators(unittest.TestCase):
    def test_edits_are_byte_identical_per_seed(self):
        for i in range(6):
            self.assertEqual(gen.edit(7, i), gen.edit(7, i))
        self.assertNotEqual(gen.edit(7, 0)["design"], gen.edit(8, 0)["design"])

    def test_edit_sizes_come_in_thirds_and_defects_in_fifths(self):
        edits = [gen.edit(3, i) for i in range(15)]
        sizes = [e["size"] for e in edits]
        for size in gen.EDIT_SIZES:
            self.assertEqual(sizes.count(size), 5)
        defective = [e["size"] for e in edits if e["defect"] is not None]
        self.assertEqual(sorted(defective), list(gen.EDIT_SIZES))

    def test_heat_design_shape(self):
        text = gen.heat_design(3, 2, 4, [0.1, 0.2, 0.3])
        tasks = sum(line.startswith("  task ") for line in text.splitlines())
        self.assertEqual(tasks, gen.heat_tasks(3, 2))

    def test_defects_change_one_routine(self):
        for defect in gen.DEFECTS:
            clean = gen.heat_design(2, 2, 4, [0.1, 0.2])
            broken = gen.heat_design(2, 2, 4, [0.1, 0.2], defect, (1, 0))
            self.assertNotEqual(clean, broken)

    def test_serve_requests_are_byte_identical_per_seed(self):
        a, b = gen.ServeMix(5), gen.ServeMix(5)
        self.assertEqual(a.upload_lines(), b.upload_lines())
        for i in range(0, 80, 7):
            self.assertEqual(a.fresh(i)["line"], b.fresh(i)["line"])
        other = gen.ServeMix(6)
        self.assertNotEqual([other.fresh(i)["line"] for i in range(40)],
                            [a.fresh(i)["line"] for i in range(40)])

    def test_serve_blocks_hold_every_kind_in_its_share(self):
        mix = gen.ServeMix(9)
        kinds = [mix.fresh(i) for i in range(gen.ServeMix.BLOCK)]
        repeats = [k for k in kinds if "repeat_of" in k]
        self.assertEqual(len(repeats), 16)
        inline = [k for k in repeats if '"design":' in k["line"]]
        self.assertEqual(len(inline), 8)
        self.assertEqual(sum(k["kind"] == "check" and "repeat_of" not in k
                             for k in kinds), 4)


class FailureCounting(unittest.TestCase):
    def test_a_wrong_value_is_a_failure(self):
        want = ref.heat([4, 8, 4], 1, 1, 3, [0.25])
        tally = measure.Tally()
        tally.record(ref.check_run(render("result", want, 3), "result", want, 3),
                     "trial")
        wrong = [want[0], want[1] + 1e-6, want[2]]
        tally.record(ref.check_run(render("result", wrong, 3), "result", want, 3),
                     "trial")
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertEqual(tally.ratio, 0.5)

    def test_a_corrupted_batch_block_is_counted(self):
        wants = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        text = "".join("=== batch %d of 3 ===\n" % (i + 1) + render("x", w, 9)
                       for i, w in enumerate(wants))
        self.assertEqual(ref.check_batch(text, "batch", "x", wants, 9), 0)
        bad = text.replace("[3, 4]", "[3, 4.5]")
        self.assertEqual(ref.check_batch(bad, "batch", "x", wants, 9), 1)
        self.assertEqual(ref.check_batch(text, "trial", "x", wants, 9), 3)

    def test_wrong_task_count_is_a_failure(self):
        self.assertFalse(ref.check_run(render("x", [1.0], 8), "x", [1.0], 9))

    def test_check_verdicts(self):
        clean = "clean: no issues found\n"
        found = "d.pitl:3:1: error[BAN104]: task `t`: division by zero\n"
        self.assertTrue(ref.check_verdict(0, clean, None))
        self.assertTrue(ref.check_verdict(1, found, "BAN104"))
        self.assertFalse(ref.check_verdict(1, found, "BAN106"))
        self.assertFalse(ref.check_verdict(0, found, None))
        self.assertFalse(ref.check_verdict(0, clean, "BAN104"))


if __name__ == "__main__":
    unittest.main()

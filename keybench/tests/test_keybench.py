"""Tests of the keybench benchmark itself.

Fixed-step runs (--steps) make every model output a function of the seed:
the same seed twice must give identical model outputs (simulated key
rate, simulated grant latencies, every count), another seed must change
them, and tracing must not move them. The output must name every metric
BENCHMARK.json lists, with its unit.

    python3 -m unittest discover -s keybench/tests -v

The first run builds the benchmark (see keybench/run.py).
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as keybench_run  # noqa: E402  (keybench/run.py)

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Enough steps to exercise every layer the workload touches, kept short.
STEPS = {"distill": 3, "kms-fleet": 200, "e2e": 4}


def run(binary, workload, seed, trace=0):
    """Returns (model outputs, result object) of one fixed-step run."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--steps", str(STEPS[workload]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True).stdout
    lines = out.splitlines()
    model_line = next(l for l in lines if l.startswith("# model "))
    return json.loads(model_line[len("# model "):]), json.loads(lines[-1])


class KeybenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(keybench_run.build())

    def test_same_seed_gives_identical_model_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first_model, first = run(self.binary, workload, 7)
                second_model, second = run(self.binary, workload, 7)
                self.assertTrue(first["correct"])
                self.assertEqual(first_model, second_model)
                self.assertEqual(first["attempted"], second["attempted"])
                self.assertEqual(first["failed"], second["failed"])

    def test_other_seed_changes_model_outputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(run(self.binary, workload, 7)[0],
                                    run(self.binary, workload, 8)[0])

    def test_tracing_leaves_model_outputs_alone(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(run(self.binary, workload, 7, trace=0)[0],
                                 run(self.binary, workload, 7, trace=1)[0])

    def test_output_names_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result = run(self.binary, workload, 7, trace=trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    got = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(self.binary, workload, 7)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)


if __name__ == "__main__":
    unittest.main()

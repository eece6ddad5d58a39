"""The campaign benchmark's own tests, at tiny scale.

    python3 -m unittest discover -s perfbench/tests -v

The spec and digest tests are pure Python; the others build
perfbench/ (like run.py does) and run tiny workloads.
"""

import glob
import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

ENVELOPE = json.dumps({
    "kind": "fig10", "seed": 5,
    "sim": {"scalar_vectors": 10, "gate_evals": 99},
    "results": [{"task": "iris", "sim": {"gate_evals": 7},
                 "points": [{"defects": 9, "accuracy": 0.8125}]}],
})


def benchmark_names(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[section]}


class SpecTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for w in run.WORKLOADS:
            a = [run.spec_bytes(s) for s in run.workload_specs(w, 7)]
            b = [run.spec_bytes(s) for s in run.workload_specs(w, 7)]
            c = [run.spec_bytes(s) for s in run.workload_specs(w, 8)]
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(set(run.WORKLOADS), benchmark_names("workloads"))

    def test_daemon_mix_shares_contexts_with_a_seeded_minority_missing(self):
        jobs = run.workload_specs("daemon-mixed", 3)
        net = [j for j in jobs if j["kind"] != "fig5"]
        seeds = [j["seed"] for j in net]
        shared = max(set(seeds), key=seeds.count)
        self.assertEqual(sum(s != shared for s in seeds), 2 * run.CLIENTS)
        for c in range(run.CLIENTS):
            self.assertEqual(
                sorted(j["kind"] for j in jobs[c::run.CLIENTS]),
                sorted(["fig10", "fig11", "mitigation", "fig5"] * 2))


class DigestTest(unittest.TestCase):
    def test_digest_ignores_sim_telemetry(self):
        doc = json.loads(ENVELOPE)
        doc["sim"]["gate_evals"] = 12345
        doc["results"][0]["sim"]["gate_evals"] = 1
        self.assertEqual(run.envelope_digest(ENVELOPE),
                         run.envelope_digest(json.dumps(doc)))

    def test_digest_check_rejects_perturbed_envelope(self):
        good = run.envelope_digest(ENVELOPE)
        doc = json.loads(ENVELOPE)
        doc["results"][0]["points"][0]["accuracy"] = 0.8126
        bad = run.envelope_digest(json.dumps(doc))
        self.assertNotEqual(good, bad)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "digests.json")
            with open(path, "w") as f:
                json.dump({"fig10-retrain": {"5": good}}, f)
            saved, run.DIGESTS = run.DIGESTS, path
            try:
                self.assertEqual(run.check_digest("fig10-retrain", 5, good),
                                 [])
                self.assertEqual(
                    len(run.check_digest("fig10-retrain", 5, bad)), 1)
                self.assertEqual(run.check_digest("fig10-retrain", 6, bad),
                                 [])
            finally:
                run.DIGESTS = saved

    def test_envelope_sanity_flags_bad_accuracy(self):
        spec = {"kind": "fig10", "seed": 5}
        self.assertEqual(run.envelope_problems(ENVELOPE, spec, 3), [])
        doc = json.loads(ENVELOPE)
        doc["results"][0]["points"][0]["accuracy"] = 1.5
        self.assertTrue(run.envelope_problems(json.dumps(doc), spec, 3))


class BuiltTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(run.OUT_ROOT, exist_ok=True)

    def test_every_metric_is_emitted_for_every_workload(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    result, _ = run.run_workload(w, 11, 0, trace, tiny=True)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(set(result["metrics"]),
                                     benchmark_names(section))
                    for name, v in result["metrics"].items():
                        self.assertTrue(math.isfinite(v), name)
                        if trace == 0:
                            self.assertGreater(v, 0, name)

    def daemon(self, out, jobs, dtannd):
        path = os.path.join(out, "jobs.jsonl")
        with open(path, "w") as f:
            f.write("".join(json.dumps(j) + "\n" for j in jobs))
        return run.subprocess.run(
            [os.path.join(run.build_dir(), "perfbench_driver"), "daemon",
             "--dtannd", dtannd, "--jobs", path, "--threads", "1",
             "--clients", "1", "--seconds", "0", "--out", out],
            stdout=run.subprocess.PIPE, stderr=run.subprocess.PIPE,
            text=True)

    def assertTornDown(self, out):
        self.assertEqual(glob.glob(os.path.join(out, "state-*")), [])
        self.assertEqual(glob.glob(os.path.join(out, "port-*")), [])
        for cmdline in glob.glob("/proc/[0-9]*/cmdline"):
            try:
                with open(cmdline, "rb") as f:
                    args = f.read().decode(errors="replace")
            except OSError:
                continue
            self.assertNotIn(out + "/state-", args)

    def test_daemon_tears_down_after_refused_job(self):
        ok = run.workload_specs("daemon-mixed", 2, tiny=True)
        fig5 = next(j for j in ok if j["kind"] == "fig5")
        with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as out:
            p = self.daemon(out, [fig5, {"kind": "nonsense"}],
                            os.path.join(run.build_dir(), "dtannd"))
            self.assertEqual(p.returncode, 3, p.stderr)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertEqual(res["attempted"], 2)
            self.assertEqual(res["failed"], 1)
            self.assertTornDown(out)

    def test_daemon_tears_down_when_daemon_cannot_start(self):
        with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as out:
            p = self.daemon(out, [{"kind": "fig5"}],
                            os.path.join(out, "no-such-dtannd"))
            self.assertEqual(p.returncode, 1)
            self.assertTornDown(out)


if __name__ == "__main__":
    unittest.main()

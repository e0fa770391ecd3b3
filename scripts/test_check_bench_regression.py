#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (stdlib unittest, run as a
ctest). Each case writes synthetic BENCH_*.json fixtures into a temp dir and
drives the script through subprocess, asserting on the exit-code contract:
0 = ok, 1 = regression, 2 = unusable input (CI skip)."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def host_file(sps=100.0, allocs=0.0, concurrency=4, name="analytical",
              mcyc=8.0):
    return {
        "host_concurrency": concurrency,
        "backends": [{
            "name": name,
            "samples_per_sec": sps,
            "steady_allocs_per_layer": allocs,
            "modeled_mcycles_per_sample": mcyc,
        }],
    }


def serve_file(offline=100.0, sat=95.0, full_wave_ms=80.0, concurrency=4,
               light_p95=20.0, light_p99=30.0, heavy_p99=150.0):
    return {
        "bench": "serve_profile",
        "host_concurrency": concurrency,
        "offline_samples_per_sec": offline,
        "full_wave_ms": full_wave_ms,
        "saturation_samples_per_sec": sat,
        "rows": [
            {"mode": "open", "offered_load": 0.10, "p95_ms": light_p95,
             "p99_ms": light_p99},
            {"mode": "open", "offered_load": 0.90, "p95_ms": 120.0,
             "p99_ms": heavy_p99},
            {"mode": "closed", "offered_load": 0.0, "p95_ms": 140.0,
             "p99_ms": heavy_p99 + 10.0},
        ],
    }


def fault_row(lost, sps, replans=None, failures=None, lost_requests=0,
              spikes_match=True):
    replans = lost if replans is None else replans
    failures = lost if failures is None else failures
    return {
        "clusters_lost": lost, "active_clusters": 8 - lost,
        "modeled_sps": sps, "p99_ms": 5.0,
        "admitted": 24, "completed": 24 - lost_requests, "timed_out": 0,
        "errored": 0, "lost_requests": lost_requests,
        "cluster_failures": failures, "degrade_replans": replans,
        "spikes_match_healthy": spikes_match,
    }


def fault_file(healthy=10000.0, curve=None, midrun=None):
    if curve is None:
        curve = [fault_row(0, healthy), fault_row(1, healthy * 0.82),
                 fault_row(2, healthy * 0.69)]
    if midrun is None:
        midrun = dict(fault_row(1, healthy * 0.9), kill_at_wave=3)
    return {
        "bench": "fault_profile",
        "clusters": 8,
        "healthy_modeled_sps": healthy,
        "degradation_curve": curve,
        "midrun_kill": midrun,
    }


def integrity_row(mode, injected=6, detected=None, escapes=0, admitted=28,
                  errored=0, corrupted=0):
    detected = injected if detected is None else detected
    rate = detected / injected if injected else 1.0
    return {
        "mode": mode, "injected_events": injected,
        "data_faults_injected": injected, "detected": detected,
        "detection_rate": rate, "silent_escapes": escapes,
        "integrity_checks": 100, "integrity_mismatches": detected,
        "integrity_faults": detected, "redundant_waves": 0,
        "admitted": admitted, "completed": admitted - errored - corrupted,
        "errored": errored, "corrupted": corrupted,
        "crc_sealed_bytes": 1000, "crc_cycles": 15.6,
    }


def integrity_file(sealed=None, unsealed=None, chk_ov=0.04, ecc_ov=0.07,
                   red_ov=1.1):
    if sealed is None:
        sealed = [
            integrity_row("unprotected", detected=0, escapes=1),
            integrity_row("checksum"),
            integrity_row("redundant"),
        ]
    if unsealed is None:
        unsealed = [
            integrity_row("checksum", injected=4, detected=0, escapes=4),
            integrity_row("redundant", injected=4),
        ]
    return {
        "bench": "integrity_profile",
        "clusters": 4,
        "sealed_paths": sealed,
        "unsealed_paths": unsealed,
        "svgg11_overhead": {
            "network": "svgg11", "lanes": 2, "waves": 8,
            "weight_check_period": 8, "base_modeled_cycles": 33000000,
            "checksum_overhead": chk_ov, "checksum_ecc_overhead": ecc_ov,
            "redundant_overhead": red_ov,
        },
    }


class Base(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, data):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def run_script(self, *args):
        proc = subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class HostCompare(Base):
    def test_identical_files_pass(self):
        p = self.write("prev.json", host_file())
        c = self.write("cur.json", host_file())
        rc, out = self.run_script(p, c)
        self.assertEqual(rc, 0, out)

    def test_throughput_regression_fails(self):
        p = self.write("prev.json", host_file(sps=100.0))
        c = self.write("cur.json", host_file(sps=50.0))
        rc, out = self.run_script(p, c, "--threshold", "0.15")
        self.assertEqual(rc, 1, out)
        self.assertIn("THROUGHPUT REGRESSION", out)

    def test_host_concurrency_mismatch_skips_throughput(self):
        p = self.write("prev.json", host_file(sps=100.0, concurrency=8))
        c = self.write("cur.json", host_file(sps=50.0, concurrency=2))
        rc, out = self.run_script(p, c, "--threshold", "0.15")
        self.assertEqual(rc, 0, out)
        self.assertIn("skipping samples/sec compare", out)

    def test_modeled_cycles_checked_despite_host_mismatch(self):
        p = self.write("prev.json", host_file(concurrency=8, mcyc=8.0))
        c = self.write("cur.json", host_file(concurrency=2, mcyc=12.0))
        rc, out = self.run_script(p, c)
        self.assertEqual(rc, 1, out)
        self.assertIn("MODELED-CYCLE REGRESSION", out)

    def test_missing_previous_is_skip_not_failure(self):
        c = self.write("cur.json", host_file())
        rc, out = self.run_script(os.path.join(self.dir.name, "nope.json"), c)
        self.assertEqual(rc, 2, out)

    def test_corrupt_current_is_skip(self):
        p = self.write("prev.json", host_file())
        c = os.path.join(self.dir.name, "cur.json")
        with open(c, "w") as f:
            f.write("{not json")
        rc, out = self.run_script(p, c)
        self.assertEqual(rc, 2, out)

    def test_required_backend_missing_fails(self):
        p = self.write("prev.json", host_file())
        c = self.write("cur.json", host_file())
        rc, out = self.run_script(p, c, "--require", "sharded-4")
        self.assertEqual(rc, 1, out)
        self.assertIn("required backend missing", out)

    def test_row_dropped_from_current_is_reported_not_failed(self):
        # A row the previous artifact has and the current one no longer
        # writes (a deleted bench row) is listed, but only --require fails.
        prev = host_file()
        prev["backends"].append(dict(prev["backends"][0],
                                     name="analytical+memo"))
        p = self.write("prev.json", prev)
        c = self.write("cur.json", host_file())
        rc, out = self.run_script(p, c, "--require", "analytical")
        self.assertEqual(rc, 0, out)
        self.assertRegex(out, r"analytical\+memo\s+only in previous")


class ServeGuards(Base):
    def both_hosts(self):
        p = self.write("prev.json", host_file())
        c = self.write("cur.json", host_file())
        return p, c

    def test_saturation_floor_passes(self):
        p, c = self.both_hosts()
        s = self.write("serve.json", serve_file(offline=100.0, sat=95.0))
        rc, out = self.run_script(p, c, "--serve", s,
                                  "--serve-saturation-floor", "0.85")
        self.assertEqual(rc, 0, out)

    def test_saturation_floor_fails(self):
        p, c = self.both_hosts()
        s = self.write("serve.json", serve_file(offline=100.0, sat=60.0))
        rc, out = self.run_script(p, c, "--serve", s,
                                  "--serve-saturation-floor", "0.85")
        self.assertEqual(rc, 1, out)
        self.assertIn("serve saturation floor", out)

    def test_light_p95_guard(self):
        p, c = self.both_hosts()
        ok = self.write("ok.json", serve_file(light_p95=20.0,
                                              full_wave_ms=80.0))
        rc, out = self.run_script(p, c, "--serve", ok,
                                  "--serve-light-p95-factor", "1.0")
        self.assertEqual(rc, 0, out)
        bad = self.write("bad.json", serve_file(light_p95=120.0,
                                                full_wave_ms=80.0))
        rc, out = self.run_script(p, c, "--serve", bad,
                                  "--serve-light-p95-factor", "1.0")
        self.assertEqual(rc, 1, out)
        self.assertIn("light-load p95", out)

    def test_p99_regression_fails(self):
        p, c = self.both_hosts()
        sp = self.write("serve_prev.json", serve_file(heavy_p99=100.0))
        sc = self.write("serve_cur.json", serve_file(heavy_p99=300.0))
        rc, out = self.run_script(p, c, "--serve", sc, "--serve-prev", sp,
                                  "--p99-threshold", "0.5")
        self.assertEqual(rc, 1, out)
        self.assertIn("serve p99 regression", out)

    def test_p99_within_threshold_passes(self):
        p, c = self.both_hosts()
        sp = self.write("serve_prev.json", serve_file(heavy_p99=100.0))
        sc = self.write("serve_cur.json", serve_file(heavy_p99=120.0))
        rc, out = self.run_script(p, c, "--serve", sc, "--serve-prev", sp,
                                  "--p99-threshold", "0.5")
        self.assertEqual(rc, 0, out)

    def test_p99_skipped_on_host_mismatch(self):
        p, c = self.both_hosts()
        sp = self.write("serve_prev.json",
                        serve_file(heavy_p99=100.0, concurrency=8))
        sc = self.write("serve_cur.json",
                        serve_file(heavy_p99=900.0, concurrency=2))
        rc, out = self.run_script(p, c, "--serve", sc, "--serve-prev", sp,
                                  "--p99-threshold", "0.5")
        self.assertEqual(rc, 0, out)
        self.assertIn("skipping p99 compare", out)

    def test_p99_skipped_on_missing_prev(self):
        p, c = self.both_hosts()
        sc = self.write("serve_cur.json", serve_file(heavy_p99=900.0))
        rc, out = self.run_script(
            p, c, "--serve", sc, "--serve-prev",
            os.path.join(self.dir.name, "nope.json"),
            "--p99-threshold", "0.5")
        self.assertEqual(rc, 0, out)
        self.assertIn("skipping p99 compare", out)

    def test_corrupt_serve_current_fails(self):
        p, c = self.both_hosts()
        s = os.path.join(self.dir.name, "serve.json")
        with open(s, "w") as f:
            f.write("[broken")
        rc, out = self.run_script(p, c, "--serve", s,
                                  "--serve-saturation-floor", "0.85")
        self.assertEqual(rc, 1, out)

    def test_serve_guards_fail_even_without_host_baseline(self):
        # Absolute serve floors must fail the run even when the host compare
        # would be a first-run skip (exit 2 path).
        c = self.write("cur.json", host_file())
        s = self.write("serve.json", serve_file(offline=100.0, sat=10.0))
        rc, out = self.run_script(os.path.join(self.dir.name, "nope.json"),
                                  c, "--serve", s,
                                  "--serve-saturation-floor", "0.85")
        self.assertEqual(rc, 1, out)


class FaultGuards(Base):
    def both_hosts(self):
        p = self.write("prev.json", host_file())
        c = self.write("cur.json", host_file())
        return p, c

    def test_healthy_curve_passes(self):
        p, c = self.both_hosts()
        f = self.write("fault.json", fault_file())
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 0, out)

    def test_lost_request_fails(self):
        p, c = self.both_hosts()
        curve = [fault_row(0, 10000.0),
                 fault_row(1, 8200.0, lost_requests=1)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("admitted requests lost", out)

    def test_spike_divergence_fails(self):
        p, c = self.both_hosts()
        curve = [fault_row(0, 10000.0),
                 fault_row(1, 8200.0, spikes_match=False)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("diverged from the healthy baseline", out)

    def test_replan_oscillation_fails(self):
        # Two re-plans for one fault means the degraded mask flapped.
        p, c = self.both_hosts()
        curve = [fault_row(0, 10000.0),
                 fault_row(1, 8200.0, replans=2, failures=1)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("re-plan must flip exactly once", out)

    def test_proportional_floor_fails(self):
        # 1 of 8 lost leaves 7/8 = 87.5% capacity; 0.8 * 87.5% = 70% floor.
        p, c = self.both_hosts()
        curve = [fault_row(0, 10000.0), fault_row(1, 6000.0)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("proportional floor", out)

    def test_proportional_floor_frac_is_tunable(self):
        p, c = self.both_hosts()
        curve = [fault_row(0, 10000.0), fault_row(1, 6000.0)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(p, c, "--fault", f,
                                  "--fault-floor-frac", "0.6")
        self.assertEqual(rc, 0, out)

    def test_midrun_kill_must_record_one_failure(self):
        p, c = self.both_hosts()
        mid = dict(fault_row(2, 9000.0), kill_at_wave=3)
        f = self.write("fault.json", fault_file(midrun=mid))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("expected exactly 1 cluster failure", out)

    def test_midrun_lost_request_fails(self):
        p, c = self.both_hosts()
        mid = dict(fault_row(1, 9000.0, lost_requests=2), kill_at_wave=3)
        f = self.write("fault.json", fault_file(midrun=mid))
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("fault:midrun", out)

    def test_corrupt_fault_file_fails(self):
        p, c = self.both_hosts()
        f = os.path.join(self.dir.name, "fault.json")
        with open(f, "w") as fh:
            fh.write("{half a json")
        rc, out = self.run_script(p, c, "--fault", f)
        self.assertEqual(rc, 1, out)

    def test_fault_guards_fail_even_without_host_baseline(self):
        # Absolute fault floors must fail the run even when the host compare
        # would be a first-run skip (exit 2 path).
        c = self.write("cur.json", host_file())
        curve = [fault_row(0, 10000.0),
                 fault_row(1, 8200.0, lost_requests=1)]
        f = self.write("fault.json", fault_file(curve=curve))
        rc, out = self.run_script(os.path.join(self.dir.name, "nope.json"),
                                  c, "--fault", f)
        self.assertEqual(rc, 1, out)


class IntegrityGuards(Base):
    def both_hosts(self):
        p = self.write("prev.json", host_file())
        c = self.write("cur.json", host_file())
        return p, c

    def test_healthy_profile_passes(self):
        p, c = self.both_hosts()
        f = self.write("integrity.json", integrity_file())
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 0, out)

    def test_missed_detection_on_sealed_path_fails(self):
        p, c = self.both_hosts()
        sealed = [integrity_row("unprotected", detected=0, escapes=1),
                  integrity_row("checksum", detected=5, escapes=1),
                  integrity_row("redundant")]
        f = self.write("integrity.json", integrity_file(sealed=sealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("detection_rate", out)

    def test_unprotected_row_must_demonstrate_the_threat(self):
        # An injection schedule that corrupts nothing proves nothing: the
        # unprotected row must show at least one silent escape.
        p, c = self.both_hosts()
        sealed = [integrity_row("unprotected", detected=0, escapes=0),
                  integrity_row("checksum"),
                  integrity_row("redundant")]
        f = self.write("integrity.json", integrity_file(sealed=sealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("demonstrate the threat", out)

    def test_unsealed_gap_must_stay_demonstrated(self):
        # If checksum-only stops escaping on the unsealed roster, either the
        # roster stopped targeting the gap or the bench went stale.
        p, c = self.both_hosts()
        unsealed = [integrity_row("checksum", injected=4, detected=0,
                                  escapes=0),
                    integrity_row("redundant", injected=4)]
        f = self.write("integrity.json", integrity_file(unsealed=unsealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)

    def test_redundant_must_close_the_unsealed_gap(self):
        p, c = self.both_hosts()
        unsealed = [integrity_row("checksum", injected=4, detected=0,
                                  escapes=4),
                    integrity_row("redundant", injected=4, detected=3,
                                  escapes=1)]
        f = self.write("integrity.json", integrity_file(unsealed=unsealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)

    def test_conservation_violation_fails(self):
        p, c = self.both_hosts()
        bad = integrity_row("checksum")
        bad["completed"] -= 1  # one admitted request unaccounted for
        sealed = [integrity_row("unprotected", detected=0, escapes=1), bad,
                  integrity_row("redundant")]
        f = self.write("integrity.json", integrity_file(sealed=sealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("requests lost", out)

    def test_overhead_ceiling_fails(self):
        p, c = self.both_hosts()
        f = self.write("integrity.json", integrity_file(ecc_ov=0.16))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("exceeds ceiling", out)

    def test_overhead_ceiling_is_tunable(self):
        p, c = self.both_hosts()
        f = self.write("integrity.json", integrity_file(ecc_ov=0.16))
        rc, out = self.run_script(p, c, "--integrity", f,
                                  "--integrity-overhead-ceiling", "0.2")
        self.assertEqual(rc, 0, out)

    def test_redundant_overhead_is_not_gated(self):
        p, c = self.both_hosts()
        f = self.write("integrity.json", integrity_file(red_ov=2.5))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 0, out)
        self.assertIn("not gated", out)

    def test_missing_mode_row_fails(self):
        p, c = self.both_hosts()
        sealed = [integrity_row("unprotected", detected=0, escapes=1),
                  integrity_row("checksum")]
        f = self.write("integrity.json", integrity_file(sealed=sealed))
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)
        self.assertIn("row missing: redundant", out)

    def test_corrupt_integrity_file_fails(self):
        p, c = self.both_hosts()
        f = os.path.join(self.dir.name, "integrity.json")
        with open(f, "w") as fh:
            fh.write("{broken")
        rc, out = self.run_script(p, c, "--integrity", f)
        self.assertEqual(rc, 1, out)

    def test_integrity_guards_fail_even_without_host_baseline(self):
        # Absolute integrity floors must fail the run even when the host
        # compare would be a first-run skip (exit 2 path).
        c = self.write("cur.json", host_file())
        f = self.write("integrity.json", integrity_file(ecc_ov=0.5))
        rc, out = self.run_script(os.path.join(self.dir.name, "nope.json"),
                                  c, "--integrity", f)
        self.assertEqual(rc, 1, out)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Seed self-test of the benchmark.

    python3 kembench/selftest.py

Runs every workload through kembench/run.py for a fixed number of
iterations (--iterations) and checks that:
  * every run is correct, with no failed operation;
  * the same seed gives the same digest of all outputs, and another seed a
    different one;
  * the traced run reproduces the untraced outputs (same digest);
  * the exact counts repeat: hw_cycles_per_kem, the mult.*.calls rates on the
    workloads whose call sequence is fixed, and the multipliers ledger;
  * the exact counts have their pinned values: the single_op call counts and
    the hs1-256 ledger (products and cycles per KEM);
  * on checked_batch, injected faults fire and are recovered by retries.
Exits nonzero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ITERATIONS = 16
# checked_batch's call counts depend on where each run's faults land.
EXACT_CALLS = ("single_op", "batch_server", "hw_sim")
CALL_METRICS = tuple(f"mult.{s}.calls" for s in
                     ("prepare_public", "prepare_secret", "pointwise", "finalize", "multiply"))
LEDGER = ("multipliers.products_per_kem", "multipliers.cycles_per_product")
# Per KEM operation, averaged over one keygen (9/3/9/3 prepare_public/
# prepare_secret/pointwise/finalize calls for Saber, l = 3), one encaps
# (12/3/12/4) and one decaps (15/6/15/5: decrypt plus re-encryption).
SINGLE_OP_CALLS = {"mult.prepare_public.calls": 12.0, "mult.prepare_secret.calls": 4.0,
                   "mult.pointwise.calls": 12.0, "mult.finalize.calls": 4.0,
                   "mult.multiply.calls": 0.0}
# One KEM (keygen + encaps + decaps) on hs1-256: 341 cycles per product, 36
# products for Saber (l = 3) and 60 for FireSaber (l = 4), which only
# checked_batch uses.
CYCLES_PER_PRODUCT = 341.0
PRODUCTS_PER_KEM = {"single_op": 36.0, "batch_server": 36.0, "hw_sim": 36.0,
                    "checked_batch": 60.0}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "60", "--trace", str(trace), "--iterations", str(ITERATIONS)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    prov, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return prov["details"], result, metrics


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    for w in ("single_op", "batch_server", "checked_batch", "hw_sim"):
        a, ra, ma = run(w, 1, 0)
        b, rb, mb = run(w, 1, 0)
        c, rc, mc = run(w, 2, 0)
        for name, r in (("seed 1", ra), ("seed 1 again", rb), ("seed 2", rc)):
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  f"{w}: {name} correct, {r['attempted']} checked, none failed")
        check(a["output_digest"] == b["output_digest"], f"{w}: same seed, same output digest")
        check(a["output_digest"] != c["output_digest"], f"{w}: other seed, other output digest")
        check(ma["hw_cycles_per_kem"] == mb["hw_cycles_per_kem"] == mc["hw_cycles_per_kem"],
              f"{w}: hw_cycles_per_kem repeats ({ma['hw_cycles_per_kem']:.0f})")
        cycles = PRODUCTS_PER_KEM[w] * CYCLES_PER_PRODUCT
        check(ma["hw_cycles_per_kem"] == cycles, f"{w}: hw_cycles_per_kem is {cycles:.0f}")

        t1, rt1, mt1 = run(w, 1, 1)
        t2, rt2, mt2 = run(w, 1, 1)
        check(rt1["correct"] and rt2["correct"], f"{w}: traced runs correct")
        check(t1["output_digest"] == a["output_digest"],
              f"{w}: traced run reproduces the untraced outputs")
        check(all(mt1[k] == mt2[k] for k in LEDGER), f"{w}: multipliers ledger repeats")
        check(mt1["multipliers.products_per_kem"] == PRODUCTS_PER_KEM[w]
              and mt1["multipliers.cycles_per_product"] == CYCLES_PER_PRODUCT,
              f"{w}: multipliers ledger is {PRODUCTS_PER_KEM[w]:.0f} x {CYCLES_PER_PRODUCT:.0f}")
        if w in EXACT_CALLS:
            check(all(mt1[k] == mt2[k] for k in CALL_METRICS), f"{w}: mult.*.calls repeat")
        if w == "single_op":
            check(all(mt1[k] == v for k, v in SINGLE_OP_CALLS.items()),
                  f"{w}: call counts match the spec shapes")
        if w == "checked_batch":
            for name, d in (("untraced", a), ("traced", t1)):
                check(d["faults_fired"] > 0 and d["recovered_items"] > 0,
                      f"{w}: {name} run fired {d['faults_fired']} faults, "
                      f"recovered {d['recovered_items']} items")
            check(mt1["robust.retries"] > 0 and mt1["robust.mismatches"] > 0,
                  f"{w}: point checks caught faults and retries recovered them")
    print("selftest passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The POWDER benchmark.

    python3 powderbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a POWDER checkout.  It builds
powderbench/worker.exe with dune, times the workload's set-up alone
in one worker process, then starts measured repeats, each in a fresh
worker process, until --seconds have passed.
Every output netlist goes through the
oracle (validation, simulation on seed-drawn patterns, an equivalence
proof), and every repeat must reproduce the first one's netlists and
reports exactly.  Each metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, each a median over the
repeats.  --trace 1 is the per-layer run: one untraced repeat, one
repeat under an Obs.Profile sink, and a replay of one optimizer round
through the public layer calls, each in its own span.  Without
--workload every workload runs in turn.  Results, profiles and cached
proof verdicts are kept under .powderbench/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ["cps-converge", "synth-round", "serve-drain"]
STATE = ".powderbench"
WORKER = os.path.join("_build", "default", "powderbench", "worker.exe")
# A run must end within 180 s; no repeat starts that would likely cross this.
HARD_CAP_S = 150.0

END_TO_END = [
    ("setup_s", "s"),
    ("optimize_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_p95_s", "s"),
    ("power_reduction_pct", "%"),
    ("area_reduction_pct", "%"),
    ("final_delay_pct", "%"),
    ("peak_rss_mb", "MB"),
]

PHASES = ["generate", "rank", "refine-pgc", "exact-check", "apply", "sta"]
OPTIMIZER_COUNTS = [
    "rounds", "candidates_generated", "checks_run", "rejected_by_cex",
    "rejected_by_atpg", "rejected_by_delay", "rejected_by_giveup", "sig_hits",
    "sig_filtered", "sig_resim_nodes", "window_proved", "window_escalated",
]
# Layer spans of the replay (worker.ml), reported as <span>_s.
REPLAY_SPANS = [
    "candidates.generate", "sim.randomize", "sim.sigstore_create",
    "sim.sigstore_update", "subst.gain_ab", "subst.gain_full", "subst.creates_cycle",
    "subst.apply", "check.cex_screen", "check.permissible", "check.windowed",
    "power.estimator_create", "power.update_after_edit",
    "power.glitch_estimate", "sta.analyze", "sta.update", "blif.roundtrip",
    "checkpoint.save", "checkpoint.load", "mapper.map",
]
REPLAY_COUNTS = [
    ("candidates.generated", "count"), ("candidates.sig_filtered", "count"),
    ("check.permissible_calls", "count"), ("check.proved_ratio", "ratio"),
    ("check.gave_up", "count"), ("check.window_proved_ratio", "ratio"),
    ("check.window_global_conflicts", "count"),
]

PER_LAYER = (
    [("optimizer.%s_s" % p.replace("-", "_"), "s") for p in PHASES]
    + [
        ("optimizer.unattributed_s", "s"),
        ("optimizer.generate_rank_share", "ratio"),
        ("optimizer.exact_check_share", "ratio"),
        ("optimizer.phases_share_of_wall", "ratio"),
        ("optimizer.accept_ratio", "ratio"),
    ]
    + [("optimizer." + c, "count") for c in OPTIMIZER_COUNTS]
    + [(s + "_s", "s") for s in REPLAY_SPANS]
    + REPLAY_COUNTS
    + [
        ("serve.retries", "count"),
        ("serve.preemptions", "count"),
        ("par.cpu_utilization", "ratio"),
        ("gc.minor_mwords", "Mwords"),
        ("gc.major_collections", "count"),
        ("gc.top_heap_mb", "MB"),
        ("equiv.check_s", "s"),
        ("verify.inconclusive", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_checkout():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("powderbench: no dune-project and lib/ here; run from the root "
            "of a POWDER checkout")
        sys.exit(2)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./powderbench/worker.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
    except OSError as e:
        log("powderbench: cannot run dune: %s" % e)
        sys.exit(2)
    if r.returncode != 0:
        log(r.stdout)
        log("powderbench: build failed")
        sys.exit(2)


class Deadline:
    def __init__(self):
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start


def run_worker(args, deadline):
    """Run one worker process to completion; return its JSON result with
    the kernel's accounting of that process (peak RSS, CPU) added."""
    p = subprocess.Popen([WORKER] + args, stdout=subprocess.PIPE, text=True)
    budget = max(1.0, 175.0 - deadline.elapsed())
    killer = threading.Timer(budget, p.kill)
    killer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if p.returncode is None:
            p.kill()
            p.wait()
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited with %s" % (" ".join(args), p.returncode))
    result = json.loads(lines[-1])
    result["maxrss_mb"] = ru.ru_maxrss / 1024.0
    result["process_cpu_s"] = ru.ru_utime + ru.ru_stime
    return result


def quantile(xs, q):
    """Nearest-rank quantile, the convention of Obs.Fleet."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def pct(before, after):
    return 100.0 * (before - after) / before


def verify(repeats, seed, rundir, deadline, fresh):
    """Check every distinct output netlist once; the verdict of each
    (label, digest) applies to every repeat that produced it.  With
    fresh, proofs are made again instead of read from the cache."""
    distinct = {}
    for r in repeats:
        for label, inp, out, prove in r["verify"]:
            key = (label, r["digests"][label + "/blif"])
            distinct.setdefault(key, (inp, out, prove))
    if not distinct:
        return {}
    pairs_file = os.path.join(rundir, "pairs.tsv")
    keys = list(distinct)
    with open(pairs_file, "w") as f:
        for key in keys:
            inp, out, prove = distinct[key]
            f.write("%s\t%s\t%s\t%s\n" % (key[0], inp, out, "true" if prove else "false"))
    res = run_worker(["verify", str(seed), pairs_file] + (["--fresh"] if fresh else []),
                     deadline)
    return dict(zip(keys, res["results"]))


def run_workload(workload, seed, seconds, trace):
    deadline = Deadline()
    rundir = os.path.join(STATE, "run", "%s-seed%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(rundir, exist_ok=True)
    try:
        return measure(workload, seed, seconds, trace, rundir, deadline)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(workload, seed, seconds, trace, rundir, deadline):
    def repeat(idx, traced=False):
        args = ["repeat", workload, str(seed), str(idx), os.path.join(rundir, "r%d" % idx)]
        log("[powderbench] %s seed %d: repeat %d%s" % (
            workload, seed, idx, " (traced)" if traced else ""))
        return run_worker(args + (["--trace"] if traced else []), deadline)

    repeats, replay, setup_trials = [], None, []
    if trace:
        repeats = [repeat(0), repeat(1, traced=True)]
        log("[powderbench] %s seed %d: layer replay" % (workload, seed))
        replay = run_worker(["replay", workload, str(seed), os.path.join(rundir, "replay")],
                            deadline)
    else:
        # Start repeats until --seconds have passed, so the count per
        # run stays the same when the machine is a little slower.  Each
        # is preceded by set-up trials in a process of their own, which
        # spreads the set-up samples over the run.
        while True:
            t0 = deadline.elapsed()
            setup_trials += run_worker(["setup", workload, os.path.join(rundir, "setup")],
                                       deadline)["setup_trials"]
            repeats.append(repeat(len(repeats)))
            took = deadline.elapsed() - t0
            if deadline.elapsed() >= seconds or deadline.elapsed() + took > HARD_CAP_S:
                break

    failures = []
    for r in repeats:
        failures += r["failures"]
    if replay:
        failures += replay["failures"]
    # Determinism: every repeat must reproduce the first one's outputs
    # and reports (timing fields stripped) exactly.
    ref = repeats[0]["digests"]
    for r in repeats[1:]:
        diff = sorted(k for k in set(ref) | set(r["digests"]) if ref.get(k) != r["digests"].get(k))
        if diff:
            failures.append("repeat %d differs from repeat 0 in %d outputs (first: %s)"
                            % (r["index"], len(diff), diff[0]))
    verdicts = verify(repeats, seed, rundir, deadline, fresh=trace)
    inconclusive = 0
    for r in repeats:
        for label, _, _, _ in r["verify"]:
            v = verdicts[(label, r["digests"][label + "/blif"])]
            if "failure" in v:
                failures.append("%s (repeat %d): %s" % (label, r["index"], v["failure"]))
            elif v["verdict"] == "unknown":
                inconclusive += 1
    check_s = sum(v["check_s"] for v in verdicts.values())
    attempted = sum(r["attempted"] for r in repeats)

    q = repeats[0]["quality"]
    info = {
        "repeats": len(repeats),
        "latency_samples": sum(len(r["latencies"]) for r in repeats),
        "failed_ops_ratio": len(failures) / attempted,
        "verify_inconclusive": inconclusive,
        "verify_proved": sum(1 for v in verdicts.values() if v.get("verdict") == "equivalent"),
        "wall_s": [r["timed_s"] for r in repeats],
        "process_cpu_s": [r["process_cpu_s"] for r in repeats],
        "timed_cpu_s": [r["cpu_s"] for r in repeats],
    }
    setup_trials += [s for r in repeats for s in r["setup_trials"]]
    info["setup_s"] = setup_trials
    if trace:
        metrics = per_layer(repeats, replay, check_s, inconclusive)
    else:
        med = lambda key: statistics.median(r[key] for r in repeats)
        metrics = {
            "setup_s": statistics.median(setup_trials),
            "optimize_s": med("optimize_s"),
            "jobs_per_s": med("jobs_per_s"),
            "job_latency_p50_s": statistics.median(quantile(r["latencies"], 0.5) for r in repeats),
            "job_latency_p95_s": statistics.median(quantile(r["latencies"], 0.95) for r in repeats),
            "power_reduction_pct": pct(q["initial_power"], q["final_power"]),
            "area_reduction_pct": pct(q["initial_area"], q["final_area"]),
            # Final over initial delay: it stays positive, and it never
            # reads 0, whether a workload's delay grows or shrinks.
            "final_delay_pct": 100.0 * q["final_delay"] / q["initial_delay"],
            "peak_rss_mb": med("maxrss_mb"),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k, _ in
                    (PER_LAYER if trace else END_TO_END)},
    }
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "manifest": repeats[0]["manifest"], "info": info, "failures": failures,
        "result": result, "repeats": [strip_bulky(r) for r in repeats],
        "verdicts": list(verdicts.values()), "replay": replay,
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    out = os.path.join(STATE, "results", "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    report(workload, record, out)
    return result


def per_layer(repeats, replay, check_s, inconclusive):
    u, t = repeats
    phases = u["phases"]
    phase_sum = sum(phases.values())
    counts = u["counts"]
    m = {"optimizer.%s_s" % p.replace("-", "_"): phases[p] for p in PHASES}
    # Slot time (worker slots x timed wall) that no optimizer phase
    # covers.  On the one-slot optimizer workloads this is optimize_s
    # minus the phases; on serve-drain, where optimize_s is the phase
    # sum, it is the time the slots spent in serve's own layers.
    m["optimizer.unattributed_s"] = u["manifest"]["jobs"] * u["timed_s"] - phase_sum
    m["optimizer.generate_rank_share"] = (phases["generate"] + phases["rank"]) / u["optimize_s"]
    m["optimizer.exact_check_share"] = phases["exact-check"] / u["optimize_s"]
    m["optimizer.phases_share_of_wall"] = phase_sum / u["timed_s"]
    m["optimizer.accept_ratio"] = counts["substitutions"] / max(1, counts["checks_run"])
    for c in OPTIMIZER_COUNTS:
        m["optimizer." + c] = counts[c]
    for s in REPLAY_SPANS:
        m[s + "_s"] = replay["layers_s"].get(s, 0.0)
    for c, _ in REPLAY_COUNTS:
        m[c] = replay["counts"][c]
    m["serve.retries"] = u["serve"]["retries"]
    m["serve.preemptions"] = u["serve"]["preemptions"]
    m["par.cpu_utilization"] = u["cpu_s"] / u["timed_s"]
    m["gc.minor_mwords"] = u["gc"]["minor_mwords"]
    m["gc.major_collections"] = u["gc"]["major_collections"]
    m["gc.top_heap_mb"] = u["gc"]["top_heap_mb"]
    m["equiv.check_s"] = check_s
    m["verify.inconclusive"] = inconclusive
    m["trace.overhead_s"] = t["optimize_s"] - u["optimize_s"]
    return m


def strip_bulky(r):
    return {k: v for k, v in r.items() if k not in ("digests", "verify")}


def report(workload, record, out):
    info, result = record["info"], record["result"]
    man = record["manifest"]
    print("== %s (seed %d, trace %d): %d repeats, %d/%d ops failed (failed_ops_ratio %.4g)"
          % (workload, record["seed"], record["trace"], info["repeats"], result["failed"],
             result["attempted"], info["failed_ops_ratio"]))
    print("manifest: cores %s, ocaml %s, seed %s, options_hash %s"
          % (man["cores"], man["ocaml_version"], man["seed"], man["options_hash"]))
    print("timed wall (s) %s; timed process cpu (s) %s; job latency samples %d; "
          "outputs proved %d, inconclusive %d"
          % ([round(x, 3) for x in info["wall_s"]], [round(x, 3) for x in info["timed_cpu_s"]],
             info["latency_samples"], info["verify_proved"], info["verify_inconclusive"]))
    for run in record["repeats"][0].get("runs", []):
        print("run %s: final power %.3f (-%.2f%%)"
              % (run["label"], run["final_power"], run["power_reduction_pct"]))
    for f in record["failures"]:
        print("FAILED: %s" % f)
    for name, m in result["metrics"].items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for r in record["repeats"] + ([record["replay"]] if record["replay"] else []):
        if "profile_top" in r:
            print("heaviest spans by self time (%s, %s):" % (r["mode"], r["profile_file"]))
            for path, s in r["profile_top"][:8]:
                print("  %10.4f s  %s" % (s, path))
    print("results: %s" % out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    check_checkout()
    build()
    # A wrong output is reported as "correct": false, not by the exit code.
    for w in [args.workload] if args.workload else WORKLOADS:
        print(json.dumps(run_workload(w, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()

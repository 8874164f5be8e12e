#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig2|compile|parloop|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the runner and `wolfc` with dune (quietly, output to
stderr), then runs one measurement.  The runner prints a "metric" line for
every metric it measured and, as its last line, the JSON verdict for the
metrics BENCHMARK.json declares.  Everything the run writes stays inside the
checkout: build products in _build/, scratch files (JIT objects, the disk
cache, the daemon socket) in a per-run directory under .bench_tmp/ that is
removed afterwards, records under .bench_results/.

--self-test runs every workload briefly, untraced and traced, and proves
that each metric is printed with its declared unit, that a run reports no
failed operation, and that an injected wrong output (--inject-fault) makes
the run fail.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

RUNNER = "_build/default/perfbench/perfbench.exe"
WOLFC = "_build/default/bin/wolfc.exe"
WORKLOADS = ["fig2", "compile", "parloop", "serve"]

# The issue-named end-to-end metrics each workload prints, besides the
# generic ones BENCHMARK.json gates on.
REPORTED = {
    "fig2": ["setup_s", "error_rate", "run_vs_hand_geomean"],
    "compile": ["setup_s", "error_rate", "compile_threaded_p50_ms",
                "compile_threaded_p90_ms", "compile_jit_p50_ms",
                "compile_jit_p90_ms", "compile_disk_hit_p50_ms", "peak_rss_mb"],
    "parloop": ["setup_s", "error_rate", "run_vs_hand_geomean"],
    "serve": ["setup_s", "error_rate", "serve_p50_ms", "serve_p99_ms",
              "serve_max_rps", "peak_rss_mb"],
}

# Which workload owns a per-layer metric, by name prefix; every other
# workload bypasses that layer and prints 0.
OWNER = [("wexpr.", "compile"), ("compiler.", "compile"),
         ("backends.", "compile"), ("disk_cache.", "compile"),
         ("fig2.", "fig2"), ("runtime.", "fig2"),
         ("parloop.", "parloop"), ("par_runtime.", "parloop"),
         ("serve.", "serve"), ("compile_cache.", "serve"),
         ("executor.", "serve"), ("tier.", "serve"), ("gen.", "serve")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def build(env):
    """Build the runner and wolfc; dune's output goes to stderr."""
    proc = subprocess.run(
        ["dune", "build", "--root", ".", RUNNER, WOLFC],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    return proc.returncode


def run_once(args, env, timeout=175):
    """One runner process in its own process group (the serve daemon
    joins it), so nothing it started outlives it.  Returns (code, stdout)."""
    os.makedirs(".bench_tmp", exist_ok=True)
    tmp = os.path.abspath(tempfile.mkdtemp(prefix="run-", dir=".bench_tmp"))
    env = dict(env, TMPDIR=tmp)
    proc = subprocess.Popen([RUNNER] + args, env=env,
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(tmp, ignore_errors=True)
        return 124, ""
    try:
        os.killpg(proc.pid, signal.SIGKILL)   # anything left behind
    except ProcessLookupError:
        pass
    shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out


def parse(out):
    lines = out.strip().splitlines()
    verdict = json.loads(lines[-1]) if lines else None
    reported = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            reported[parts[1]] = (float(parts[2]), parts[3])
    return verdict, reported


def self_test(env):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    gated = [w["name"] for w in bench["workloads"]]
    problems = []
    produced = set()
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run_once(["--workload", w, "--seed", "7",
                                  "--seconds", "4", "--trace", str(trace)], env)
            if code != 0:
                problems.append("%s trace=%d: exit %d" % (w, trace, code))
                continue
            verdict, reported = parse(out)
            declared = bench["per_layer" if trace else "end_to_end"]
            got = verdict["metrics"]
            for m in declared:
                v = got.get(m["name"])
                if v is None or v["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit"
                                    % (w, trace, m["name"]))
                if trace == 0 and m["name"] not in reported:
                    problems.append("%s: %s not measured" % (w, m["name"]))
                if trace == 1 and m["name"] in reported:
                    produced.add(m["name"])
                    owner = [o for p, o in OWNER if m["name"].startswith(p)]
                    if owner and owner[0] != w:
                        problems.append("%s: prints %s, a layer it bypasses"
                                        % (w, m["name"]))
            for name in REPORTED[w] + (["obs.trace_overhead"] if trace else []):
                if name not in reported:
                    problems.append("%s trace=%d: %s not reported"
                                    % (w, trace, name))
            if w in gated and not verdict["correct"]:
                problems.append("%s trace=%d: not correct (failed %d of %d)"
                                % (w, trace, verdict["failed"],
                                   verdict["attempted"]))
            print("self-test %s trace=%d: correct=%s failed=%d/%d"
                  % (w, trace, verdict["correct"], verdict["failed"],
                     verdict["attempted"]))
        code, out = run_once(["--workload", w, "--seed", "7", "--seconds",
                              "2", "--trace", "0", "--inject-fault"], env)
        verdict, reported = parse(out) if code == 0 else (None, {})
        rate = reported.get("error_rate", (0.0, ""))[0]
        if verdict is None or verdict["correct"] or rate <= 0.0:
            problems.append("%s: an injected wrong output went unnoticed" % w)
        else:
            print("self-test %s --inject-fault: error_rate=%g, correct=false"
                  % (w, rate))
    for m in bench["per_layer"]:
        if m["name"] not in produced:
            problems.append("per-layer %s: no workload measures it" % m["name"])
    for p in problems:
        print("self-test problem: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib/wolfram")
            and os.path.isdir("bin") and os.path.isfile("BENCHMARK.json")):
        return fail("run from the root of a full checkout of the repository")
    if shutil.which("dune") is None:
        return fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = build(env)
    if code != 0:
        return fail("build failed")
    if sys.argv[1:] == ["--self-test"]:
        return self_test(env)
    code, out = run_once(sys.argv[1:], env)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

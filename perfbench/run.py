#!/usr/bin/env python3
"""The tauhls compiler benchmark.

    python3 perfbench/run.py --workload flow_ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The first run builds the compiler
(the repository's src/ and tools/) and the benchmark's own tools
(perfbench/gen.cpp, perfbench/trace.cpp) in Release mode under
$CARGO_TARGET_DIR (default .bench_build).

Workloads (closed loop, one client: each command starts when the previous
one has ended; every command is a fresh tauhlsc process, because
logic::minimize keeps a process-global memo that a second design in the same
process would find warm, which no tauhlsc user ever gets):

  flow_ladder  `tauhlsc flow --table1` over the six paper designs with their
               paper allocations under both binding strategies, plus a
               4-wide layered ladder from 16 to 64 ops.
  lint_ladder  `tauhlsc lint --equiv --timing --model-check symbolic --xprop`
               over the six paper designs under both state encodings, plus
               the ladder from 16 to 48 ops.
  region_edit  hierarchical designs compiled once with --store (the set-up),
               then a seeded sequence of one-op edits, each written in place
               and recompiled in a new process over the same store.

--seed draws the identifier names of every design (an order-preserving
relabelling, so every cache key changes and no reported number does) and the
edit targets; the designs' structure is fixed, so the cost of a pass is the
same on every seed.  The program receives only the generated .dfg files.

--trace 0 repeats passes over the workload's commands for --seconds seconds
and reports the end-to-end metrics (medians over passes).  --trace 1 repeats
pairs of one untraced pass and one pass through perfbench_trace, the traced
twin of each command, and reports per-layer self times and counts.

Every command's output is checked: flat designs and the initial region
designs against expected.json, each region recompile against a storeless
cold compile of the same edited file.  A mismatch fails the run (exit 1).
The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

# Fixed worker-thread count of every command (--threads); lowered to nproc on
# smaller machines and recorded with the results either way.
THREADS = 2
# A command running longer than this is killed and counts as failed.
COMMAND_LIMIT_S = 60.0
# No new pass starts after this much of the run, and no command runs past
# RUN_DEADLINE_S: a run ends within 180 s even when commands hang.
RUN_BUDGET_S = 120.0
RUN_DEADLINE_S = 170.0
STARTED = time.perf_counter()
# The traced run's top-level layer spans must cover this share of the traced
# commands' wall time.
MIN_COVERAGE = 0.9
# Set-up is repeated this many times; setup_s is the median.
SETUP_REPEATS = 3

PAPER = [
    # (file stem, index in dfg::paperTable2Suite(), the paper's allocation)
    ("fir3", 0, "mult=2,add=1"),
    ("fir5", 1, "mult=2,add=1"),
    ("iir2", 2, "mult=2,add=1"),
    ("iir3", 3, "mult=3,add=2"),
    ("diffeq", 4, "mult=2,add=1,sub=1"),
    ("arlattice", 5, "mult=4,add=2"),
]

# The ladder: RandomDfgSpec layered mode, 4 ops per layer, half multiplies,
# spec seed 1, one allocation for every rung, so only the op count grows.
LADDER_ALLOC = "mult=2,add=1,sub=1"
LADDER_SPEC_SEED = 1
FLOW_RUNGS = [
    (4, "16 ops"),
    (6, "24 ops"),
    (8, "32 ops"),
    (10, "40 ops, 24 multiplies: the largest design under the exact-enumeration"
         " cap of 24 TAU ops, so sim.latency enumerates 2^24 masks"),
    (12, "48 ops, 28 multiplies: past the cap, Monte-Carlo latency"),
    (16, "64 ops: controllers of 20 logic variables, near the 22-variable wall"),
]
# 96 ops: stops at the 22-variable truth-table wall (src/synth/extract.cpp).
# A failing command is not a workload operation, so it runs once per run,
# untimed, as a check that the known defect still shows.
WALL_PROBE = (24, "96 ops: stops at the 22-variable truth-table wall")
LINT_FLAGS = ["--equiv", "--timing", "--model-check", "symbolic", "--xprop"]
LINT_RUNGS = [
    (4, "16 ops"),
    (6, "24 ops"),
    (8, "32 ops"),
    (10, "40 ops"),
    (12, "48 ops: the symbolic model check is most of this command"),
]

REGION_ALLOC = "mult=2,add=1"
REGION_PROGRAMS = [
    # (file stem, generator request without rename seed and path, why)
    ("fir_iir_loop", ["firiir"], "the repository's hierarchical benchmark:"
     " 5 leaves, loop and conditional"),
    ("rgn6", ["region", "6", "3", "4", "21"], "random region program: 8 leaves,"
     " 82 TAU ops on the activation trace"),
    ("rgn8", ["region", "8", "4", "4", "24"], "random region program: 10 leaves,"
     " 112 TAU ops on the activation trace"),
]
# Edit kinds per program, in order.  An operand edit re-runs one leaf; an
# op-class edit can change the shared allocation and re-run every leaf.
# Which op an edit hits is drawn with EDIT_SEED, not the run seed: the
# generator's renaming keeps the statement order, so every run seed edits the
# same ops and a pass costs the same (only the names, and so every cache key,
# change with the run seed).
REGION_EDITS = ["operand", "opclass", "operand", "opclass"]
EDIT_SEED = 1

WORKLOADS = {
    "flow_ladder": "sched, fsm, sim latency, synth/logic area and the"
                   " verify gate; no SAT",
    "lint_ladder": "aig/SAT via symbolic model checking, equivalence, X-prop"
                   " and timing; no latency or area",
    "region_edit": "core pipeline, fingerprints, store and codecs, plus"
                   " fsm/hierarchical and sim/region_sim; reads the cache"
                   " tiers as well as writing them",
}

END_TO_END = [
    ("wall_s", "s"),
    ("cmd_geomean_ms", "ms"),
    ("cmd_max_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
]

# Per-layer metric -> unit.  "_ms" metrics are span self times summed over a
# traced pass; the rest are counts from the stats the layer calls return.
PER_LAYER = {
    "dfg.parse_ms": "ms",
    "sched.ms": "ms",
    "fsm.build_ms": "ms",
    "fsm.controllers": "count",
    "fsm.states": "count",
    "fsm.hier_ms": "ms",
    "synth.ms": "ms",
    "synth.max_vars": "count",
    "synth.area_ms": "ms",
    "synth.wall_hits": "count",
    "rtl.emit_ms": "ms",
    "verify.flow_ms": "ms",
    "verify.symbolic_ms": "ms",
    "verify.symbolic_conflicts": "count",
    "verify.symbolic_unknown": "count",
    "verify.equiv_ms": "ms",
    "verify.equiv_conflicts": "count",
    "verify.xprop_ms": "ms",
    "verify.timing_ms": "ms",
    "verify.region_ms": "ms",
    "verify.undecided_ratio": "ratio",
    "sim.latency_ms": "ms",
    "sim.samples": "count",
    "sim.region_ms": "ms",
    "core.ms": "ms",
    "core.hit_ratio": "ratio",
    "core.hit_ratio_operand": "ratio",
    "core.hit_ratio_opclass": "ratio",
    "core.store_read_ms": "ms",
    "core.store_bytes": "B",
    "core.store_puts": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Span name -> per-layer time metric.
SPAN_METRIC = {
    "dfg.parse": "dfg.parse_ms",
    "sched": "sched.ms",
    "fsm.build": "fsm.build_ms",
    "fsm.hier": "fsm.hier_ms",
    "synth": "synth.ms",
    "synth.area": "synth.area_ms",
    "rtl.emit": "rtl.emit_ms",
    "verify.flow": "verify.flow_ms",
    "verify.symbolic": "verify.symbolic_ms",
    "verify.equiv": "verify.equiv_ms",
    "verify.xprop": "verify.xprop_ms",
    "verify.timing": "verify.timing_ms",
    "verify.region": "verify.region_ms",
    "sim.latency": "sim.latency_ms",
    "sim.region": "sim.region_ms",
    "core": "core.ms",
    "core.store_read": "core.store_read_ms",
}

# Trace counts reported as they are (summed over the pass), and those
# reported as a maximum over the pass.
SUMMED_COUNTS = ["fsm.controllers", "fsm.states", "synth.wall_hits",
                 "verify.symbolic_conflicts", "verify.symbolic_unknown",
                 "verify.equiv_conflicts", "sim.samples", "core.store_puts"]
MAX_COUNTS = ["synth.max_vars", "core.store_bytes"]


# ----------------------------------------------------------------- math ----

def geomean(values):
    """Geometric mean of positive values."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(part, base):
    """part / base; 0.0 when the base is empty (nothing was attempted)."""
    return part / base if base else 0.0


def self_times(spans):
    """Span index -> duration minus the part its direct children cover."""
    out = {}
    for i, s in enumerate(spans):
        out[i] = s["end_us"] - s["start_us"]
    for s in spans:
        if s["parent"] >= 0:
            out[s["parent"]] -= s["end_us"] - s["start_us"]
    return out


def strict_json_loads(text):
    """json.loads that rejects an object with a repeated key."""
    def pairs(items):
        keys = [k for k, _ in items]
        if len(keys) != len(set(keys)):
            raise ValueError("duplicate JSON key in %r" % keys)
        return dict(items)
    return json.loads(text, object_pairs_hook=pairs)


def result_line(correct, attempted, failed, metrics):
    """The final stdout line: one JSON object with the four result keys."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# --------------------------------------------------------------- build -----

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build tauhlsc plus the benchmark tools; exit on failure."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no compiler sources under %s (src/ is missing)"
                 % REPO_ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tauhlsc",
                  "perfbench_gen", "perfbench_trace"])
    with open(os.path.join(out, "build.log"), "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(os.path.join(out, "build.log")) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(step))
    return {"tauhlsc": os.path.join(out, "tools", "tauhlsc"),
            "gen": os.path.join(out, "perfbench_gen"),
            "trace": os.path.join(out, "perfbench_trace")}


def fingerprint(threads, seed):
    """Machine and build facts recorded with every result set."""
    cache = {}
    with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "threads": threads, "seed": seed, "machine": platform.machine(),
            "python": platform.python_version()}


# ------------------------------------------------------------- commands ----

class Command:
    """One tauhlsc invocation of a workload: the design file it reads, the
    generator request that writes it, and the tauhlsc arguments."""

    def __init__(self, key, stem, request, args, why):
        self.key = key
        self.file = stem + ".dfg"
        self.request = request
        self.args = args
        self.why = why


def flow_commands():
    cmds = []
    for stem, index, alloc in PAPER:
        for strategy in ("leftedge", "clique"):
            cmds.append(Command(
                "%s/%s" % (stem, strategy), stem, ["paper", str(index)],
                ["flow", stem + ".dfg", "--alloc", alloc, "--strategy",
                 strategy, "--table1"],
                "paper design, Table 1 and Table 2 cells"))
    for layers, why in FLOW_RUNGS:
        cmds.append(ladder_command("flow", layers, why))
    return cmds


def ladder_command(mode, layers, why):
    stem = "L%d" % (4 * layers)
    args = [mode, stem + ".dfg", "--alloc", LADDER_ALLOC]
    args += ["--table1"] if mode == "flow" else LINT_FLAGS + [
        "--lint-json", stem + ".lint.json"]
    return Command(stem, stem, ["layered", str(layers), "4", "500",
                                str(LADDER_SPEC_SEED)], args, why)


def lint_commands():
    cmds = []
    for stem, index, alloc in PAPER:
        for encoding in ("binary", "onehot"):
            key = "%s/%s" % (stem, encoding)
            cmds.append(Command(
                key, stem, ["paper", str(index)],
                ["lint", stem + ".dfg", "--alloc", alloc, "--encoding",
                 encoding] + LINT_FLAGS + ["--lint-json",
                                           "%s.%s.lint.json" % (stem, encoding)],
                "paper design must lint clean"))
    for layers, why in LINT_RUNGS:
        cmds.append(ladder_command("lint", layers, why))
    return cmds


def region_programs():
    return [Command(stem, stem, request,
                    ["flow", stem + ".dfg", "--alloc", REGION_ALLOC],
                    why) for stem, request, why in REGION_PROGRAMS]


# -------------------------------------------------------------- running ----

class Run:
    """One finished process: wall and CPU time, peak RSS, exit code, output."""

    def __init__(self, wall_s, cpu_s, rss_kb, code, stdout, stderr, timed_out):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.timed_out = timed_out


def spawn(argv, cwd):
    """Run one process to completion, or kill it at the command limit."""
    limit = max(0.0, min(COMMAND_LIMIT_S,
                         RUN_DEADLINE_S - (time.perf_counter() - STARTED)))
    out_path = os.path.join(cwd, ".cmd.out")
    err_path = os.path.join(cwd, ".cmd.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        done = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            done["t1"] = time.perf_counter()
            done["status"] = status
            done["usage"] = usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(limit)
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(done["status"])
        usage = done["usage"]
        out.seek(0)
        err.seek(0)
        return Run(done["t1"] - t0, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss, proc.returncode,
                   out.read().decode(errors="replace"),
                   err.read().decode(errors="replace"), timed_out)


def generate(tools, requests, cwd):
    """Write design files through perfbench_gen; returns its wall time."""
    text = "".join(" ".join(r) + "\n" for r in requests)
    t0 = time.perf_counter()
    proc = subprocess.run([tools["gen"]], input=text.encode(), cwd=cwd,
                          capture_output=True)
    if proc.returncode:
        raise SystemExit("perfbench: generator failed: " +
                         proc.stderr.decode(errors="replace"))
    return time.perf_counter() - t0


def rename_seed(seed, name):
    """Per-file seed derived from the run seed and the file name."""
    digest = hashlib.sha256(("%d/%s" % (seed, name)).encode()).digest()
    return str(int.from_bytes(digest[:8], "little"))


def requests_for(cmds, seed):
    seen = {}
    for c in cmds:
        seen.setdefault(c.file, c.request + [rename_seed(seed, c.file), c.file])
    return list(seen.values())


def tree_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".dfg"):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# --------------------------------------------------------------- checks ----

def without_cache_line(stdout):
    return "".join(l for l in stdout.splitlines(True) if not l.startswith("cache: "))


def lint_summary(run, json_path):
    """Verdict codes of one lint command, free of names and solver effort."""
    summary = {"exit": run.code}
    if os.path.isfile(json_path):
        with open(json_path) as f:
            lint = json.load(f)
        count = {}
        for d in lint["diagnostics"]:
            k = "%s %s" % (d["severity"], d["code"])
            count[k] = count.get(k, 0) + 1
        for section in ("symbolic", "xprop"):
            for p in lint[section]:
                k = "%s %s %s" % (section, p["rule"], p["verdict"])
                count[k] = count.get(k, 0) + 1
        summary["verdicts"] = dict(sorted(count.items()))
    return summary


def flow_summary(run):
    return {"exit": run.code, "stdout": without_cache_line(run.stdout),
            "stderr": run.stderr.split(" [")[0].strip()}


def mismatch(expected, actual):
    """'' when `actual` equals `expected`, else a one-line description."""
    if expected is None:
        return "no expected entry"
    for key in sorted(set(expected) | set(actual)):
        want, got = expected.get(key), actual.get(key)
        if want == got:
            continue
        if isinstance(want, str) and isinstance(got, str):
            want, got = want.splitlines(), got.splitlines()
            line = next((i for i, (w, g) in enumerate(zip(want, got))
                         if w != g), min(len(want), len(got)))
            return "%s differs at line %d: expected %r, got %r" % (
                key, line + 1, (want + ["<end>"])[line], (got + ["<end>"])[line])
        return "%s differs: expected %r, got %r" % (key, want, got)
    return ""


def summarize(mode, run, cwd, cmd):
    if mode == "lint":
        return lint_summary(run, os.path.join(cwd, cmd.args[-1]))
    return flow_summary(run)


# ------------------------------------------------------------ workloads ----

class Workload:
    """Set-up, one pass of untraced commands, one traced pass."""

    def __init__(self, name, tools, seed, work, expected, threads):
        self.name = name
        self.tools = tools
        self.seed = seed
        self.work = work
        self.expected = expected
        self.threads = threads
        self.failures = []

    def tauhlsc(self, args):
        return [self.tools["tauhlsc"]] + args + ["--threads", str(self.threads)]

    def run_traced(self, args, cwd):
        """One command through perfbench_trace; the Run carries its spans."""
        spans = os.path.join(cwd, ".spans.json")
        if os.path.exists(spans):
            os.remove(spans)
        run = spawn([self.tools["trace"], spans] + args +
                    ["--threads", str(self.threads)], cwd)
        run.trace = load_spans(spans) if os.path.isfile(spans) else None
        return run

    def fail(self, what):
        self.failures.append(what)
        sys.stdout.write("MISMATCH %s\n" % what)


class FlatWorkload(Workload):
    """flow_ladder and lint_ladder: one command per design, no state."""

    def __init__(self, *a, mode):
        super().__init__(*a)
        self.mode = mode
        self.cmds = flow_commands() if mode == "flow" else lint_commands()
        self.dir = os.path.join(self.work, "designs")

    def setup(self):
        times, digests = [], set()
        for i in range(SETUP_REPEATS):
            d = os.path.join(self.work, "gen%d" % i)
            os.makedirs(d)
            times.append(generate(self.tools, requests_for(self.cmds, self.seed), d))
            digests.add(tree_digest(d))
        if len(digests) != 1:
            self.fail("generator: the same seed gave different inputs")
        os.rename(os.path.join(self.work, "gen0"), self.dir)
        if self.mode == "flow":
            self.probe()
        return times

    def probe(self):
        """The known defect: the 96-op rung stops at the 22-variable wall."""
        cmd = ladder_command("flow", *WALL_PROBE)
        generate(self.tools, requests_for([cmd], self.seed), self.dir)
        run = spawn(self.tauhlsc(cmd.args), self.dir)
        problem = mismatch(self.expected.get("flow_ladder/" + cmd.key),
                           flow_summary(run))
        if problem:
            self.fail("%s: %s" % (cmd.key, problem))
        print("# known defect: %s (%s) exits %d: %s" % (
            cmd.key, cmd.why, run.code, run.stderr.split(" [")[0].strip()))

    def run_pass(self, traced=False):
        records = []
        for c in self.cmds:
            if self.failures:
                break
            if self.mode == "lint":
                # A stale report must not stand in for a command that wrote none.
                lint_json = os.path.join(self.dir, c.args[-1])
                if os.path.exists(lint_json):
                    os.remove(lint_json)
            if traced:
                run = self.run_traced(c.args, self.dir)
                expected = self.expected.get("%s/%s" % (self.name, c.key), {})
                if run.code != expected.get("exit") or run.trace is None:
                    self.fail("%s (traced): exit %d" % (c.key, run.code))
            else:
                run = spawn(self.tauhlsc(c.args), self.dir)
                problem = "timed out" if run.timed_out else mismatch(
                    self.expected.get("%s/%s" % (self.name, c.key)),
                    summarize(self.mode, run, self.dir, c))
                run.ok = not problem and run.code == 0
                if problem:
                    self.fail("%s: %s" % (c.key, problem))
            run.key = c.key
            run.why = c.why
            records.append(run)
        return records

    def traced_probe(self):
        """The wall probe through perfbench_trace (synth.wall_hits)."""
        if self.mode != "flow":
            return None
        cmd = ladder_command("flow", *WALL_PROBE)
        run = self.run_traced(cmd.args, self.dir)
        if run.trace is None:
            self.fail("%s (traced): exit %d" % (cmd.key, run.code))
        return run.trace

    def bless(self):
        entries = {}
        cmds = list(self.cmds)
        if self.mode == "flow":
            cmds.append(ladder_command("flow", *WALL_PROBE))
        os.makedirs(self.dir)
        generate(self.tools, requests_for(cmds, self.seed), self.dir)
        for c in cmds:
            run = spawn(self.tauhlsc(c.args), self.dir)
            entries["%s/%s" % (self.name, c.key)] = summarize(
                self.mode, run, self.dir, c)
        return entries


class RegionWorkload(Workload):
    """region_edit: cold compiles fill a store, then edits are recompiled."""

    def __init__(self, *a):
        super().__init__(*a)
        self.programs = region_programs()
        self.dir = os.path.join(self.work, "designs")
        self.originals = os.path.join(self.work, "originals")
        self.store = os.path.join(self.work, "store")
        self.filled = os.path.join(self.work, "store-filled")
        # (program, edit index, kind, state file, reference summary)
        self.edits = []

    def compile_args(self, program, store=None):
        return program.args + (["--store", store] if store else [])

    def setup(self):
        """Generate the designs and cold-compile each into a fresh store."""
        times = []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(self.dir, ignore_errors=True)
            shutil.rmtree(self.filled, ignore_errors=True)
            os.makedirs(self.dir)
            t0 = time.perf_counter()
            generate(self.tools, requests_for(self.programs, self.seed), self.dir)
            for p in self.programs:
                run = spawn(self.tauhlsc(self.compile_args(p, self.filled)),
                            self.dir)
                if i == 0:
                    problem = mismatch(
                        self.expected.get("region_edit/" + p.key),
                        flow_summary(run))
                    if problem:
                        self.fail("%s (cold): %s" % (p.key, problem))
            times.append(time.perf_counter() - t0)
        shutil.copytree(self.dir, self.originals)
        self.prepare_edits()
        return times

    def prepare_edits(self):
        """Write every edited state and its storeless cold-compile output."""
        states = os.path.join(self.work, "states")
        for p in self.programs:
            cur = os.path.join(states, p.key, "cur")
            os.makedirs(cur)
            shutil.copy(os.path.join(self.originals, p.file), cur)
            for i, kind in enumerate(REGION_EDITS):
                edit_seed = rename_seed(EDIT_SEED, "%s/edit%d" % (p.key, i))
                generate(self.tools, [["edit", kind, edit_seed, p.file]], cur)
                state = os.path.join(states, p.key, "%d.dfg" % i)
                shutil.copy(os.path.join(cur, p.file), state)
                ref = spawn(self.tauhlsc(self.compile_args(p)), cur)
                if ref.code != 0:
                    self.fail("%s edit %d (%s): cold compile exits %d: %s" % (
                        p.key, i, kind, ref.code, ref.stderr.strip()))
                self.edits.append((p, i, kind, state, flow_summary(ref)))

    def reset(self):
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.filled, self.store)
        for p in self.programs:
            shutil.copy(os.path.join(self.originals, p.file),
                        os.path.join(self.dir, p.file))

    def run_pass(self, traced=False):
        self.reset()
        records = []
        for p, i, kind, state, reference in self.edits:
            if self.failures:
                break
            shutil.copy(state, os.path.join(self.dir, p.file))
            args = self.compile_args(p, self.store)
            if traced:
                run = self.run_traced(args, self.dir)
                if run.code != 0 or run.trace is None:
                    self.fail("%s edit %d (traced): exit %d" % (p.key, i, run.code))
            else:
                run = spawn(self.tauhlsc(args), self.dir)
                problem = "timed out" if run.timed_out else mismatch(
                    reference, flow_summary(run))
                run.ok = not problem and run.code == 0
                if problem:
                    self.fail("%s edit %d (%s): %s" % (p.key, i, kind, problem))
                m = re.search(r"cache: (\d+) pass runs, (\d+) cache hits",
                              run.stdout)
                run.hits = (int(m.group(2)), int(m.group(1)) + int(m.group(2))) \
                    if m else (0, 0)
            run.key = "%s/edit%d" % (p.key, i)
            run.why = "%s edit of %s" % (kind, p.why)
            run.kind = kind
            records.append(run)
        return records

    def traced_probe(self):
        return None

    def bless(self):
        os.makedirs(self.dir, exist_ok=True)
        generate(self.tools, requests_for(self.programs, self.seed), self.dir)
        return {"region_edit/" + p.key: flow_summary(
            spawn(self.tauhlsc(self.compile_args(p)), self.dir))
            for p in self.programs}


def load_spans(path):
    with open(path) as f:
        return strict_json_loads(f.read())


def make_workload(name, tools, seed, work, expected, threads):
    if name == "region_edit":
        return RegionWorkload(name, tools, seed, work, expected, threads)
    return FlatWorkload(name, tools, seed, work, expected, threads,
                        mode="flow" if name == "flow_ladder" else "lint")


# -------------------------------------------------------------- metrics ----

def end_to_end(passes, setup_times):
    """Each command's median over the passes, then combined over commands."""
    wall = [statistics.median(p[i].wall_s for p in passes)
            for i in range(len(passes[0]))]
    cpu = [statistics.median(p[i].cpu_s for p in passes)
           for i in range(len(passes[0]))]
    rss = [statistics.median(p[i].rss_kb for p in passes)
           for i in range(len(passes[0]))]
    runs = [r for p in passes for r in p]
    return {
        "wall_s": sum(wall),
        "cmd_geomean_ms": geomean([w * 1000.0 for w in wall]),
        "cmd_max_s": max(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(rss) / 1024.0,
        # Base: every command attempted in the run.
        "ok_ratio": ratio(sum(1 for r in runs if r.ok), len(runs)),
        "setup_s": statistics.median(setup_times),
    }


def layer_metrics(traced, untraced, probe):
    """Per-layer numbers of one traced pass (plus the wall probe)."""
    m = {name: 0.0 for name in PER_LAYER}
    covered = wall = 0.0
    hits = {"all": [0, 0], "operand": [0, 0], "opclass": [0, 0]}
    undecided = properties = 0.0
    traces = [(r.trace, r.wall_s, getattr(r, "kind", None)) for r in traced]
    if probe is not None:
        traces.append((probe, None, None))
    for trace, run_wall, kind in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            metric = SPAN_METRIC.get(s["name"])
            if metric and run_wall is not None:
                m[metric] += selfs[i] / 1000.0
            if s["parent"] < 0 and run_wall is not None:
                covered += (s["end_us"] - s["start_us"]) / 1e6
        counts = trace["counts"]
        for name in SUMMED_COUNTS:
            if name != "synth.wall_hits" and run_wall is None:
                continue
            m[name] += counts.get(name, 0.0)
        if run_wall is None:
            continue
        for name in MAX_COUNTS:
            m[name] = max(m[name], counts.get(name, 0.0))
        wall += run_wall
        undecided += counts.get("verify.undecided", 0.0)
        properties += counts.get("verify.properties", 0.0)
        for group in ("all", kind):
            if group in hits:
                hits[group][0] += counts.get("core.hits", 0.0)
                hits[group][1] += counts.get("core.evaluations", 0.0)
    # Ratio bases: properties checked by the traced verify layer; pipeline
    # pass evaluations (cache-served + executed) per edit kind; traced wall.
    m["verify.undecided_ratio"] = ratio(undecided, properties)
    m["core.hit_ratio"] = ratio(*hits["all"])
    m["core.hit_ratio_operand"] = ratio(*hits["operand"])
    m["core.hit_ratio_opclass"] = ratio(*hits["opclass"])
    m["trace.coverage"] = ratio(covered, wall)
    m["trace.overhead_s"] = wall - sum(r.wall_s for r in untraced)
    return m


# ----------------------------------------------------------------- main ----

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bless", action="store_true",
                    help="rewrite this workload's entries of expected.json"
                         " from the current compiler instead of measuring")
    opts = ap.parse_args()

    tools = build()
    threads = max(1, min(THREADS, os.cpu_count() or 1))
    expected = {}
    if os.path.isfile(EXPECTED_PATH):
        with open(EXPECTED_PATH) as f:
            expected = strict_json_loads(f.read())

    work = os.path.abspath(os.path.join(
        ".bench_work", "%s-%d-%d" % (opts.workload, opts.seed, os.getpid())))
    os.makedirs(work)
    try:
        wl = make_workload(opts.workload, tools, opts.seed, work, expected,
                           threads)
        if opts.bless:
            expected = {k: v for k, v in expected.items()
                        if not k.startswith(opts.workload + "/")}
            expected.update(wl.bless())
            with open(EXPECTED_PATH, "w") as f:
                json.dump(dict(sorted(expected.items())), f, indent=1)
                f.write("\n")
            print("perfbench: wrote %s" % EXPECTED_PATH)
            return 0
        return measure(wl, opts, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, opts, threads):
    facts = fingerprint(threads, opts.seed)
    print("# workload %s: %s" % (wl.name, WORKLOADS[wl.name]))
    print("# fingerprint " + json.dumps(facts, sort_keys=True))
    setup_times = wl.setup()

    passes, pairs = [], []
    t0 = time.perf_counter()
    while not wl.failures:
        if opts.trace:
            untraced = wl.run_pass()
            traced = wl.run_pass(traced=True)
            pairs.append((traced, untraced))
            passes.append(untraced)
        else:
            passes.append(wl.run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed >= opts.seconds or time.perf_counter() - STARTED > RUN_BUDGET_S:
            break

    attempted = sum(len(p) for p in passes)
    if wl.failures:
        # Metrics of a run with wrong outputs mean nothing: report the
        # failures (each printed above as MISMATCH) and exit non-zero.
        print(result_line(False, max(attempted, len(wl.failures)),
                          len(wl.failures), {}))
        return 1
    if opts.trace:
        probe = wl.traced_probe()
        per_pair = [layer_metrics(t, u, probe) for t, u in pairs]
        metrics = {name: statistics.median(p[name] for p in per_pair)
                   for name in PER_LAYER}
        units = PER_LAYER
        if metrics["trace.coverage"] < MIN_COVERAGE:
            # A layer perfbench_trace does not span: the per-layer numbers
            # no longer add up to the command, so they are not reported.
            wl.fail("layer spans cover %.3f of the traced wall time (< %.2f)"
                    % (metrics["trace.coverage"], MIN_COVERAGE))
            print(result_line(False, attempted, 1, {}))
            return 1
    else:
        metrics = end_to_end(passes, setup_times)
        units = dict(END_TO_END)
    report(wl, passes, metrics, units, setup_times, len(pairs))
    save(wl, opts, facts, passes, metrics, setup_times)
    print(result_line(True, attempted, 0,
                      {k: {"value": metrics[k], "unit": units[k]}
                       for k in units}))
    return 0


def report(wl, passes, metrics, units, setup_times, traced_pairs):
    """Human-readable lines: per-command medians with sample counts."""
    walls, whys = {}, {}
    for p in passes:
        for r in p:
            walls.setdefault(r.key, []).append(r.wall_s)
            whys[r.key] = r.why
    for key, w in walls.items():
        print("# %-22s median %9.2f ms  n=%d  (%s)" % (
            key, statistics.median(w) * 1000.0, len(w), whys[key]))
    if wl.name == "region_edit":
        for kind in ("operand", "opclass"):
            h = [r.hits for p in passes for r in p if r.kind == kind]
            print("# cache hit ratio, %s edits: %d/%d pass evaluations" % (
                kind, sum(x[0] for x in h), sum(x[1] for x in h)))
    print("# passes %d%s, setup repeats %d" % (
        len(passes), ", traced pairs %d" % traced_pairs if traced_pairs else "",
        len(setup_times)))
    for k in units:
        print("# %-26s %14.6f %s" % (k, metrics[k], units[k]))


def save(wl, opts, facts, passes, metrics, setup_times):
    """Keep every sample with the fingerprint under .bench_results/."""
    os.makedirs(".bench_results", exist_ok=True)
    path = os.path.join(".bench_results", "%s-seed%d-trace%d.json" % (
        wl.name, opts.seed, opts.trace))
    with open(path, "w") as f:
        json.dump({"workload": wl.name, "fingerprint": facts,
                   "seconds": opts.seconds, "setup_s": setup_times,
                   "passes": [[{"key": r.key, "wall_s": r.wall_s,
                                "cpu_s": r.cpu_s, "rss_kb": r.rss_kb,
                                "exit": r.code} for r in p] for p in passes],
                   "metrics": metrics, "failures": wl.failures}, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())

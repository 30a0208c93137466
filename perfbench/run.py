#!/usr/bin/env python3
"""The monsem benchmark: three seeded workloads, measured from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. The first run builds monsem and
the in-process harness (perfbench/harness.cpp) into .bench_build/perfbench.
Each run works in a fresh directory under .bench_build/runs, which is its
TMPDIR and AOT cache, and removes it at the end.

Workloads (see perfbench/README.md for the rationale):
  monitored      evaluate(mode, expr) under the paper's monitors, in-process
  journaled      the same, plus a journal and periodic checkpoints
  serve_tenants  `monsem serve --listen-unix`, 4 tenant connections

--trace 0 prints the end-to-end metrics; --trace 1 runs the layer ladder
(harness.cpp `trace`) over the same seeded programs and prints the per-layer
metrics, the tracing overhead, and writes span JSONL under
.bench_build/traces. The last stdout line is the JSON result.
"""

import argparse
import itertools
import json
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen  # noqa: E402

WORKLOADS = ["monitored", "journaled", "serve_tenants"]

END_TO_END = [
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
    ("interactive_p99_ms", "ms"), ("runs_per_s", "1/s"),
    ("steps_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

PER_LAYER = [
    ("syntax.parse_ns_per_byte", "ns/B"), ("syntax.annotate_us", "us"),
    ("analysis.resolve_us", "us"), ("analysis.resolve_cache_hit_ratio", "ratio"),
    ("pe.specialize_us", "us"), ("compile.compile_us", "us"),
    ("compile.bytecode_instrs", "count"), ("compile.lower_us", "us"),
    ("compile.aot_emit_us", "us"), ("compile.aot_c_bytes", "B"),
    ("compile.aot_cc_ms", "ms"), ("compile.aot_dlopen_us", "us"),
    ("compile.aot_so_hit_ratio", "ratio"),
    ("compile.aot_native_block_ratio", "ratio"),
    ("interp.cek.ns_per_step", "ns"), ("interp.cek.ns_per_step.monitored", "ns"),
    ("interp.direct.ns_per_step", "ns"),
    ("interp.direct.ns_per_step.monitored", "ns"),
    ("compile.vm.ns_per_step", "ns"), ("compile.vm.ns_per_step.monitored", "ns"),
    ("compile.vm_reg.ns_per_step", "ns"),
    ("compile.vm_reg.ns_per_step.monitored", "ns"),
    ("compile.vm_aot.ns_per_step", "ns"),
    ("compile.vm_aot.ns_per_step.monitored", "ns"),
    ("interp.arena_bytes_per_step", "B"), ("monitor.probes_per_run", "count"),
    ("monitor.ns_per_probe.cek", "ns"), ("monitor.ns_per_probe.vm", "ns"),
    ("monitor.ns_per_probe.vm_reg", "ns"), ("monitor.ns_per_probe.vm_aot", "ns"),
    ("monitor.overhead_ratio.cek", "ratio"), ("monitor.overhead_ratio.vm", "ratio"),
    ("monitor.overhead_ratio.vm_reg", "ratio"),
    ("monitor.overhead_ratio.vm_aot", "ratio"),
    ("support.journal_bytes_per_event", "B"),
    ("support.journal_ns_per_event", "ns"), ("support.checkpoint_bytes", "B"),
    ("support.checkpoint_us", "us"), ("server.accept_us", "us"),
    ("server.queue_wait_ms", "ms"), ("server.slices_per_run", "count"),
    ("server.slice_ms", "ms"), ("server.light_tenant_step_share", "ratio"),
    ("server.out_bytes_per_run", "B"), ("server.probe_records_per_run", "count"),
    ("server.json_parse_us", "us"), ("server.json_write_ns_per_event", "ns"),
    ("server.evictions", "count"), ("server.resident_bytes_max", "B"),
    ("imp.ns_per_step", "ns"),
    ("layer.syntax.self_ms", "ms"), ("layer.analysis.self_ms", "ms"),
    ("layer.compile.self_ms", "ms"), ("layer.interp.self_ms", "ms"),
    ("layer.monitor.self_ms", "ms"), ("layer.support.self_ms", "ms"),
    ("layer.server.self_ms", "ms"), ("layer.pe.self_ms", "ms"),
    ("layer.imp.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
]

# The daemon configuration of serve_tenants (and of the traced Session).
# One worker: the daemon's poll loop, the worker and the generator leave
# a core free, so host load reaches the latency tail less.
SERVE_WORKERS = 1
SERVE_QUANTUM = 65536
SERVE_MAX_RESIDENT = 4096
SERVE_SETUPS = 3  # daemon set-ups per run; setup_s is their median

SCRUB_ENV = ("MONSEM_AOT_CACHE", "MONSEM_AOT_CC", "MONSEM_FAILPOINTS")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and environment
# --------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"monsem sources not found ({need} is missing "
                             f"from {ROOT}); run from a source checkout")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", bdir, "-j", jobs, "--target",
              "perfbench_harness", "monsem"]]
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed; see {logf}")
    harness = os.path.join(bdir, "perfbench_harness")
    monsem = os.path.join(bdir, "monsem", "tools", "monsem")
    for b in (harness, monsem):
        if not os.access(b, os.X_OK):
            raise BenchError(f"build did not produce {b}")
    return harness, monsem


def child_env(tmp):
    env = {k: v for k, v in os.environ.items() if k not in SCRUB_ENV}
    env["TMPDIR"] = tmp
    return env


def check_config(harness, env):
    """Aborts on a silently degraded configuration; returns the record."""
    out = subprocess.run([harness, "info"], capture_output=True, text=True,
                         env=env, stdin=subprocess.DEVNULL)
    if out.returncode != 0:
        raise BenchError("harness info failed: " + out.stderr.strip())
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not info["aot_available"]:
        raise BenchError("vm-aot is unavailable; runs would silently fall "
                         "back to vm-reg")
    if info["build_type"] in ("Debug", "") or info["sanitizer"] or not info["ndebug"]:
        raise BenchError(f"refusing to measure this build: {info}")
    return info


def run_harness(harness, args, env, timeout=170):
    out = subprocess.run([harness] + args, capture_output=True, text=True,
                         env=env, stdin=subprocess.DEVNULL, timeout=timeout)
    if out.returncode != 0:
        raise BenchError(f"harness {args[0]} failed ({out.returncode}): "
                         + out.stderr.strip()[-2000:])
    return out.stdout


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


# --------------------------------------------------------------------------
# Jobs: a program plus the flags one run uses
# --------------------------------------------------------------------------

def job(p, backend="cek", monitors=(), names=()):
    """Monitors annotate every function, or only those in names if given."""
    calls = p.get("calls")
    if calls is not None and names:
        calls = {k: v for k, v in calls.items() if k in names} or None
    return {
        "id": "|".join([p["id"], backend, ",".join(monitors)]), "group": p["id"],
        "kind": p["kind"], "src": p["src"], "input": p.get("input", []),
        "value": p["value"], "profile": gen.profile_text(calls) if calls else "",
        "backend": backend, "monitors": list(monitors), "names": list(names),
        "light": bool(p["light"]), "tenant": "",
    }


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def reference(harness, jobs, rdir, env):
    """Untimed standalone runs (steps, monitor finals, probe counts)."""
    m = write_json(os.path.join(rdir, "reference.json"), {"jobs": jobs})
    out = run_harness(harness, ["reference", m, rdir], env)
    return {r["id"]: r for r in map(json.loads, out.strip().splitlines())}


# --------------------------------------------------------------------------
# monitored / journaled
# --------------------------------------------------------------------------

MON_SETS = {"A": ["profile"], "B": ["cost"], "C": ["profile", "cost", "collect"],
            "D": ["profile", "demon"]}


# Two monitor sets per MON_SLOTS program (fib carries a {collect:} label,
# mergesort a {demon:} one).
MON_SLOT_SETS = [("C", "A"), ("A", "B"), ("B", "D"), ("D", "B"), ("A", "C"),
                 ("C", "B")]


def inproc_jobs(seed):
    programs = gen.program_set(seed, gen.MON_SLOTS, "m")
    rng = random.Random(seed * 31 + 7)
    jobs = []
    for p, sets in zip(programs, MON_SLOT_SETS):
        p["light"] = p["family"] in gen.MON_LIGHT
        for s in sets:
            for backend in ("cek", "vm-reg", "vm-aot"):
                jobs.append(job(p, backend, MON_SETS[s]))
    schedule = list(range(len(jobs)))
    rng.shuffle(schedule)
    return jobs, schedule


def run_inproc(ctx, journaled):
    jobs, schedule = inproc_jobs(ctx["seed"])
    m = write_json(os.path.join(ctx["rdir"], "manifest.json"),
                   {"jobs": jobs, "schedule": schedule})
    out = run_harness(ctx["harness"], ["inproc", m, str(ctx["seconds"]),
                                     ctx["rdir"], "1" if journaled else "0"],
                     ctx["env"])
    r = json.loads(out.strip().splitlines()[-1])
    runs = r["runs"]
    return {"latencies": [(ms, bool(light)) for ms, _, light, _ in runs],
            "attempted": r["attempted"], "failed": r["failed"],
            "errors": r["errors"], "wall": r["wall_s"],
            "steps": sum(s for _, s, _, ok in runs if ok),
            "rss_kb": r["peak_rss_kb"], "setups": r["setup_s"]}


# --------------------------------------------------------------------------
# serve_tenants
# --------------------------------------------------------------------------

# Light slots with the monitors their runs carry; heavy runs are unmonitored.
# Monitored light runs annotate only an outer function (the request's
# "names"), which keeps the probe stream to a few hundred events per run so
# the generator never becomes the bottleneck.
SERVE_LIGHT_SLOTS = [
    (("fib", True, (15, 15)), (), []), (("tak", True, (11, 11)), (), []),
    (("ack", True, (30, 33), 2), (), []),
    (("msort", True, (100, 110)), ("callgraph",), ["msort"]),
    (("primes", True, (250, 275)), ("profile",), ["primes"]),
    (("listsum", True, (1200, 1320)), (), []),
    (("qsort", True, (80, 88)), ("profile",), ["qsort"]),
    (("church", True, (30, 33)), ("cost",), []),
]
# Heavy runs: about 10^6 CEK steps each (~16 quanta), all on cek so their
# latencies form one mode and the p99 does not straddle two.
SERVE_HEAVY_SLOTS = [
    ("down", False, (44000, 46000)), ("fib", False, (22, 22)),
    ("primes", False, (2900, 3100)),
]
LIGHT_TENANTS = ["light0", "light1", "light2"]
HEAVY_TENANT = "heavy"
WINDOW = 2  # outstanding submits per connection


def serve_pool(seed):
    """The request pool: each light program has a fixed monitor set (so the
    warm-up compiles every vm-aot library once); heavy runs are unmonitored
    and sliced into many quanta."""
    light = gen.program_set(seed * 13 + 1, [s[0] for s in SERVE_LIGHT_SLOTS], "sl")
    heavy = gen.program_set(seed * 13 + 2, SERVE_HEAVY_SLOTS, "sh")
    pool = {"light": [], "heavy": []}
    for p, (_, mons, names) in zip(light, SERVE_LIGHT_SLOTS):
        pool["light"].append([job(p, b, mons, names=names)
                              for b in ("cek", "vm-reg", "vm-aot")])
    for p in heavy:
        pool["heavy"].append([job(p, "cek")])
    return pool


def submit_template(j, tenant):
    """The submit request for job j, as the bytes before and after its id."""
    req = {"op": "submit", "id": "@ID@", "program": j["src"],
           "backend": j["backend"], "monitors": j["monitors"], "tenant": tenant}
    if j["names"]:
        req["names"] = j["names"]
    head, tail = (json.dumps(req) + "\n").encode().split(b"@ID@")
    return head, tail


PROBES_PREFIX = b'{"event":"probes","id":"'
ACCEPTED_PREFIX = b'{"event":"accepted",'


def probe_record(raw):
    """(run id, event count) of a `probes` record without a full JSON parse
    (the generator must not become the bottleneck); None for other lines."""
    if not raw.startswith(PROBES_PREFIX):
        return None
    rid = raw[len(PROBES_PREFIX):raw.index(b'"', len(PROBES_PREFIX))]
    return rid.decode(), raw.count(b'{"step":')


class Daemon:
    """A `monsem serve --listen-unix` child process."""

    def __init__(self, monsem, env, d):
        # Its own TMPDIR: the daemon's AOT cache and eviction spool.
        env = dict(env, TMPDIR=os.path.join(d, "tmp"))
        os.makedirs(env["TMPDIR"])
        self.sock_path = os.path.join(d, "serve.sock")
        self.err_path = os.path.join(d, "serve.stderr")
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                [monsem, "serve", "--listen-unix=" + self.sock_path,
                 f"--workers={SERVE_WORKERS}", f"--quantum-steps={SERVE_QUANTUM}",
                 f"--max-resident-bytes={SERVE_MAX_RESIDENT}"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=env, cwd=d)
        line = self.proc.stdout.readline()
        if not line or json.loads(line).get("event") != "listening":
            self.stop()
            raise BenchError("monsem serve did not start: " + line.decode())

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock_path)
        return s

    def status(self):
        s = self.connect()
        s.sendall(b'{"op":"status"}\n')
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("daemon closed the status connection")
            buf += chunk
        s.close()
        return json.loads(buf)

    def peak_rss_kb(self):
        """The daemon's VmHWM; 0 once it has exited (nothing reaps it
        before stop(), so its /proc entry stays)."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self):
        """Shuts the daemon down (killing it after 20 s); returns its exit
        status."""
        try:
            s = self.connect()
            s.sendall(b'{"op":"shutdown"}\n')
            self.proc.wait(timeout=20)
            s.close()
        except (subprocess.TimeoutExpired, OSError):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        return self.proc.returncode


class Conn:
    def __init__(self, sock, kind, tenant):
        self.sock, self.kind, self.tenant = sock, kind, tenant
        self.buf = b""
        self.out = {}  # rid -> (job, t_submit, probe events)
        sock.setblocking(False)

    def send(self, data):
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def lines(self):
        """Complete lines received so far; None once the daemon hung up."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        except ConnectionError:
            chunk = b""
        if not chunk:
            return None
        self.buf += chunk
        *done, self.buf = self.buf.split(b"\n")
        return done


def drive(daemon, requests, window, seconds, stop_at=None):
    """Closed loop over four connections, one per tenant, each keeping
    `window` submits outstanding; requests[kind] yields the jobs.
    Returns the completed runs and the error/overloaded records."""
    sel = selectors.DefaultSelector()
    conns = []
    for t in LIGHT_TENANTS:
        conns.append(Conn(daemon.connect(), "light", t))
    conns.append(Conn(daemon.connect(), "heavy", HEAVY_TENANT))
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    done, bad, seq = [], [], 0
    t_end = time.perf_counter() + seconds

    templates = {}

    def submit(c):
        nonlocal seq
        j = next(requests[c.kind])
        key = (j["id"], c.tenant)
        if key not in templates:
            templates[key] = submit_template(j, c.tenant)
        head, tail = templates[key]
        rid = f"r{seq}"
        seq += 1
        c.out[rid] = [j, time.perf_counter(), 0]
        c.send(head + rid.encode() + tail)

    for c in conns:
        for _ in range(window):
            submit(c)
    while any(c.out for c in conns):
        ready = sel.select(timeout=30)
        if not ready:
            raise BenchError("the daemon sent nothing for 30 s")
        for key, _ in ready:
            c = key.data
            lines = c.lines()
            if lines is None:
                # A disconnect fails every run still outstanding on it.
                bad += [{"event": "disconnect", "tenant": c.tenant, "id": rid}
                        for rid in c.out]
                with open(daemon.err_path) as err:
                    log(f"daemon closed the {c.tenant} connection: "
                        f"{err.read()[-500:]}")
                c.out.clear()
                sel.unregister(c.sock)
                continue
            for raw in lines:
                probes = probe_record(raw)
                if probes:
                    c.out[probes[0]][2] += probes[1]
                    continue
                if raw.startswith(ACCEPTED_PREFIX):
                    continue
                ev = json.loads(raw)
                kind = ev.get("event")
                if kind == "outcome":
                    j, t0, probes = c.out.pop(ev["id"])
                    done.append((j, (time.perf_counter() - t0) * 1e3, ev, probes,
                                 c.kind))
                    if time.perf_counter() < t_end and (stop_at is None or
                                                        len(done) < stop_at):
                        submit(c)
                elif kind in ("error", "overloaded"):
                    bad.append(ev)
                    c.out.pop(ev.get("id"), None)
    for c in conns:
        if c.sock.fileno() in sel.get_map():
            sel.unregister(c.sock)
        c.sock.close()
    return done, bad


def cycle(seed, pool):
    """Every (program, backend) entry of the pool once per round, in a
    seeded order, so any window of requests has the same mix."""
    entries = [j for prog in pool for j in prog]
    random.Random(seed).shuffle(entries)
    while True:
        yield from entries


def serve_setup(ctx, pool, k):
    """Daemon spawn -> `listening`, then a warm-up run of every pool entry
    (each vm-aot library is compiled here, once)."""
    d = os.path.join(ctx["rdir"], f"serve{k}")
    os.makedirs(d)
    t0 = time.perf_counter()
    daemon = Daemon(ctx["monsem"], ctx["env"], d)
    # Every entry once, then filler the stop_at cut-off never waits for.
    warm = {kind: itertools.chain((j for prog in progs for j in prog),
                                  itertools.repeat(progs[0][0]))
            for kind, progs in pool.items()}
    n = sum(len(prog) for progs in pool.values() for prog in progs)
    done, bad = drive(daemon, warm, 1, 1e9, stop_at=n)
    dt = time.perf_counter() - t0
    if bad or any(ev["outcome"] != "ok" for _, _, ev, _, _ in done):
        daemon.stop()
        raise BenchError(f"serve warm-up failed: {bad[:2]}")
    return daemon, dt


def run_serve(ctx):
    pool = serve_pool(ctx["seed"])
    setups, daemon = [], None
    for k in range(SERVE_SETUPS):
        if daemon:
            daemon.stop()
        daemon, dt = serve_setup(ctx, pool, k)
        setups.append(dt)
    try:
        t0 = time.perf_counter()
        done, bad = drive(daemon, {"light": cycle(ctx["seed"] * 5 + 1, pool["light"]),
                                   "heavy": cycle(ctx["seed"] * 5 + 2, pool["heavy"])},
                          WINDOW, ctx["seconds"])
        wall = time.perf_counter() - t0
        rss = daemon.peak_rss_kb()
        try:
            evictions = daemon.status()["evictions"]
        except (OSError, BenchError):
            evictions = None  # the daemon is gone; its exit status says how
    finally:
        code = daemon.stop()
    if code != 0:
        # A daemon that dies (even after its last outcome) is a failure;
        # listed first, so it leads the errors ahead of the disconnects.
        how = (f"was killed by {signal.Signals(-code).name}" if code < 0
               else f"exited with status {code}")
        bad.insert(0, {"event": "daemon exit", "status": code})
        log(f"monsem serve {how}")
    jobs = {j["id"]: j for p in pool["light"] + pool["heavy"] for j in p}
    ref = reference(ctx["harness"], list(jobs.values()), ctx["rdir"], ctx["env"])
    failed, steps, errors = len(bad), 0, [str(b)[:200] for b in bad[:3]]
    for j, ms, ev, probes, _ in done:
        r = ref[j["id"]]
        finals = [f"{m['name']}: {m['state']}" for m in ev.get("monitors", [])]
        ok = (ev["outcome"] == "ok" and ev.get("value") == j["value"]
              and r["ok"] and r["value"] == j["value"] and ev["steps"] == r["steps"]
              and finals == r["finals"] and probes == r["probes"]
              and all(f == "profile: " + j["profile"] for f in finals
                      if f.startswith("profile: ")))
        if ok:
            steps += ev["steps"]
        else:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{j['id']}: {json.dumps(ev)[:300]} ref {r}")
    return {"latencies": [(ms, kind == "light") for _, ms, _, _, kind in done],
            "attempted": len(done) + len(bad), "failed": failed,
            "errors": errors, "wall": wall, "steps": steps, "rss_kb": rss,
            "setups": setups, "info": {"evictions": evictions}}


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------

def trace_jobs(workload, seed):
    """One job per distinct program of the workload, with the flags it runs
    under there, plus an imp program so every layer is reached."""
    if workload in ("monitored", "journaled"):
        all_jobs, _ = inproc_jobs(seed)
        jobs = [j for j in all_jobs if j["backend"] == "cek"]
    else:
        pool = serve_pool(seed)
        jobs = [p[0] for p in pool["light"] + pool["heavy"]]
    tenants = LIGHT_TENANTS + [HEAVY_TENANT]
    for k, j in enumerate(jobs):
        j["tenant"] = tenants[k % 3] if j["light"] else HEAVY_TENANT
    p = gen.program_set(seed, [("imp_sum", True, (2000, 4000))], "imp")[0]
    jobs.append(job(p))
    return jobs


def accept_probe(ctx):
    d = os.path.join(ctx["rdir"], "accept")
    os.makedirs(d)
    daemon = Daemon(ctx["monsem"], ctx["env"], d)
    try:
        ts = []
        for _ in range(25):
            t0 = time.perf_counter()
            daemon.status()
            ts.append((time.perf_counter() - t0) * 1e6)
    finally:
        daemon.stop()
    return statistics.median(ts)


def run_trace(ctx):
    jobs = trace_jobs(ctx["workload"], ctx["seed"])
    m = write_json(os.path.join(ctx["rdir"], "trace.json"), {
        "jobs": jobs, "config": {"workers": SERVE_WORKERS, "quantum": SERVE_QUANTUM,
                                 "max_resident_bytes": SERVE_MAX_RESIDENT}})
    tdir = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(tdir, exist_ok=True)
    spans = os.path.join(tdir, f"{ctx['workload']}-seed{ctx['seed']}.jsonl")
    passes = {}
    for name, target in (("untraced", "-"), ("traced", spans)):
        d = os.path.join(ctx["rdir"], name)
        os.makedirs(d)
        passes[name] = json.loads(run_harness(ctx["harness"], ["trace", m, d, target],
                                             ctx["env"]).strip().splitlines()[-1])
    t, u = passes["traced"], passes["untraced"]
    metrics = dict(t["metrics"])
    metrics["server.accept_us"] = accept_probe(ctx)
    # Tracing overhead over the in-process layer calls only (mean time per
    # outermost call, summed over the calls both passes made); the ladders'
    # wall times also hold forked cc children and Session polling.
    keys = t["layer_call_ns"].keys() & u["layer_call_ns"].keys()
    traced = sum(t["layer_call_ns"][k] for k in keys)
    untraced = sum(u["layer_call_ns"][k] for k in keys)
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.spans"] = t["spans"]
    log(f"spans: {spans}")
    log(f"tracing overhead: layer calls {traced / 1e6:.3f} ms traced vs "
        f"{untraced / 1e6:.3f} ms untraced; ladder wall {t['wall_s']:.3f} s "
        f"vs {u['wall_s']:.3f} s")
    failed = t["failed"] + u["failed"]
    for e in t["errors"] + u["errors"]:
        log("error: " + e)
    return metrics, t["attempted"] + u["attempted"], failed


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def end_to_end(r):
    lat = [ms for ms, _ in r["latencies"]]
    light = [ms for ms, is_light in r["latencies"] if is_light]
    return {
        "latency_p50_ms": quantile(lat, 0.50),
        "latency_p99_ms": quantile(lat, 0.99),
        "interactive_p99_ms": quantile(light, 0.99),
        "runs_per_s": len(lat) / r["wall"],
        "steps_per_s": r["steps"] / r["wall"],
        "peak_rss_mb": r["rss_kb"] / 1024.0,
        "setup_s": statistics.median(r["setups"]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    harness, monsem = build()
    rdir = os.path.join(os.path.dirname(build_dir()), "runs",
                        f"{a.workload}-{a.seed}-{os.getpid()}")
    shutil.rmtree(rdir, ignore_errors=True)
    os.makedirs(os.path.join(rdir, "tmp"))
    env = child_env(os.path.join(rdir, "tmp"))
    try:
        info = check_config(harness, env)
        log("config: " + json.dumps(info))
        ctx = {"harness": harness, "monsem": monsem, "env": env, "rdir": rdir,
               "seed": a.seed, "seconds": a.seconds, "workload": a.workload}
        if a.trace:
            values, attempted, failed = run_trace(ctx)
            units = PER_LAYER
        else:
            r = {"monitored": lambda c: run_inproc(c, False),
                 "journaled": lambda c: run_inproc(c, True),
                 "serve_tenants": run_serve}[a.workload](ctx)
            for e in r["errors"]:
                log("error: " + e)
            values, attempted, failed = end_to_end(r), r["attempted"], r["failed"]
            units = END_TO_END
            print(json.dumps({"workload": a.workload, "config": info,
                              "error_rate": failed / attempted,
                              "runs": attempted,
                              "generator_cpu_s": time.process_time(),
                              **r.get("info", {})}))
    finally:
        shutil.rmtree(rdir, ignore_errors=True)
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)

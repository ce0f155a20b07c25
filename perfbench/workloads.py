"""The four workloads, untraced (end-to-end metrics) and traced (per layer).

Untraced runs time the real `banger` binary and one `banger serve`
process by wall clock. Traced runs replay the same generated inputs
through perfbench_trace (in-process, one span per layer call) and add
what only the outside can see: CLI start-up, each command's time not
explained by its layers, and serve waiting.
"""

import concurrent.futures
import json
import os
import statistics
import subprocess
import time

import gen
import measure
import ref

NPROC = 4          # processors of the reference host; machines stay within it
SERVE_JOBS = 3     # server workers; plus the one generator thread = NPROC
SERVE_RATE = 18.0  # open-loop requests per second, about half of capacity
CLOSED_WINDOW = NPROC
CLOSED_EST_RATE = 36.0  # sizes the closed loop: capacity measured at HEAD
EDIT_EST_RATE = 2.0   # edits per second at HEAD: sizes edit_loop
LATE_LIMIT_MS = 20.0  # generator lateness (p99) beyond which a run is invalid
BACKLOG_LIMIT = 50    # unanswered requests when the last one falls due


class Context:
    """What a workload needs: binaries, its scratch directory, the seed,
    the run length, the failure tally and the peak RSS seen so far."""

    def __init__(self, exe, trace_exe, work, seed, seconds):
        self.exe = exe
        self.trace_exe = trace_exe
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.tally = measure.Tally()
        self.rss_kb = 0
        self.report = []  # human-readable lines printed before the result
        self.invalid = []  # reasons the measurement itself is not valid

    def path(self, name):
        return os.path.join(self.work, name)

    def write(self, name, text):
        with open(self.path(name), "w", encoding="utf-8") as f:
            f.write(text)
        return self.path(name)

    def run(self, *args):
        done = measure.run([self.exe] + list(args), self.work)
        self.rss_kb = max(self.rss_kb, done.rss_kb)
        return done

    def note(self, name, value, unit, extra=""):
        self.report.append("%-28s %12.4f %-6s %s" % (name, value, unit, extra))

    def timing(self, name, seconds_list):
        xs = [s * 1000.0 for s in seconds_list]
        if not xs:
            return
        value, pct, above = measure.tail(xs)
        self.note(name + ".p50", statistics.median(xs), "ms", "(n=%d)" % len(xs))
        self.note(name + ".tail", value, "ms",
                  "(p%.1f, %d samples above, n=%d)" % (pct, above, len(xs)))


def finish(ctx, median_ms, tail_ms, throughput, setup_s):
    """The end-to-end metrics every workload reports: the median of
    `median_ms`, the tail of `tail_ms` (usually the same samples)."""
    value, pct, above = measure.tail(tail_ms)
    p50 = statistics.median(median_ms)
    ctx.note("latency_ms.p50", p50, "ms", "(n=%d)" % len(median_ms))
    ctx.note("latency_ms.tail", value, "ms",
             "(p%.1f, %d samples above, n=%d)" % (pct, above, len(tail_ms)))
    ctx.note("throughput_per_s", throughput, "1/s")
    ctx.note("setup_s", setup_s, "s")
    ctx.note("peak_rss_mb", ctx.rss_kb / 1024.0, "MiB")
    ctx.note("fail_ratio", ctx.tally.ratio, "ratio",
             "(%d failed of %d attempted)" % (ctx.tally.failed, ctx.tally.attempted))
    return {
        "latency_ms.p50": p50,
        "latency_ms.tail": value,
        "throughput_per_s": throughput,
        "setup_s": setup_s,
        "peak_rss_mb": ctx.rss_kb / 1024.0,
    }


def blocks_for(seconds, rate, block):
    """Items in whole blocks of `block` that take about `seconds` at
    `rate` items per second (at least one block)."""
    return block * max(1, round(seconds * rate / block))


def cli_start(ctx, times=15):
    """Wall times of `banger help`: a process that starts and does no work."""
    walls = []
    for _ in range(times):
        done = ctx.run("help")
        ctx.tally.record(done.code == 0 and "usage:" in done.out, "help")
        walls.append(done.wall)
    return walls


# -------------------------------------------------------------- edit_loop


def edit_commands(ctx, e, design, mach):
    """One edit: check, then (clean edits only) schedule, trial and run.
    Returns [(command, seconds)] and checks every output."""
    out = []
    c = ctx.run("check", design)
    out.append(("check", c.wall))
    if not ctx.tally.record(ref.check_verdict(c.code, c.out, e["defect"]),
                            "check verdict"):
        return out
    if e["defect"] is not None:
        return out
    n = e["size"]
    tasks = gen.heat_tasks(n, n)
    total, critical = ref.heat_work(n, n, gen.EDIT_CELLS)
    s = ctx.run("schedule", design, mach, "--scheduler", "mh")
    out.append(("schedule", s.wall))
    ctx.tally.record(s.code == 0 and ref.check_schedule(s.out, total, critical),
                     "schedule")
    want = ref.heat(e["rod"], n, n, gen.EDIT_CELLS, e["alphas"])
    rod = "rod=" + gen.vec(e["rod"])
    t = ctx.run("trial", design, "--input", rod)
    out.append(("trial", t.wall))
    ctx.tally.record(t.code == 0 and ref.check_run(t.out, "result", want, tasks),
                     "trial")
    r = ctx.run("run", design, mach, "--input", rod)
    out.append(("run", r.wall))
    ctx.tally.record(r.code == 0 and ref.check_run(r.out, "result", want, tasks),
                     "run")
    return out


def edit_loop(ctx):
    """Runs whole blocks of 15 edits, as many as take about --seconds at
    HEAD's rate, so every run has the same mix of sizes and defects.
    Latency: the median is over the edit time (check + schedule + trial
    + run) of clean middle-size (32x32) edits, the tail over every
    command. Throughput: edits per second of command time. Set-up: the
    median start-up of `banger help`, sampled before every edit so that
    it spans the run as the edits do."""
    start = []
    per = {"check": [], "schedule": [], "trial": [], "run": []}
    middle = []
    edit_walls = []
    for i in range(blocks_for(ctx.seconds, EDIT_EST_RATE, gen.EDIT_BLOCK)):
        start += cli_start(ctx, 1)
        e = gen.edit(ctx.seed, i)
        design = ctx.write("edit.pitl", e["design"])
        mach = ctx.write("edit.machine", e["machine"])
        walls = edit_commands(ctx, e, design, mach)
        for cmd, wall in walls:
            per[cmd].append(wall)
        edit_walls.append(sum(w for _, w in walls))
        if e["size"] == gen.EDIT_SIZES[1] and e["defect"] is None:
            middle.append(edit_walls[-1] * 1000.0)
    for cmd, walls in per.items():
        ctx.timing(cmd + "_ms", walls)
    ctx.timing("cli.start_ms", start)
    ctx.note("edits", len(edit_walls), "count")
    pooled = [w * 1000.0 for walls in per.values() for w in walls]
    return finish(ctx, middle, pooled, len(edit_walls) / sum(edit_walls),
                  statistics.median(start))


# -------------------------------------------------------------- serve_mix


class ServeChecker:
    """Verifies serve responses: trials and streams against the reference
    solvers, schedules and checks byte-for-byte against the CLI on the
    same inputs, repeats against their first (verified) answer."""

    def __init__(self, ctx, mix):
        self.ctx = ctx
        self.mix = mix
        self.hot_out = {}
        for name in gen.ServeMix.UPLOADS:
            ctx.write(name + ".pitl", mix.designs[name])
        ctx.write("m0.machine", mix.machine)
        self.cli_jobs = []  # (request, output, exit code) to compare with the CLI

    def check(self, req, raw):
        try:
            resp = json.loads(raw)
        except ValueError:
            return self.ctx.tally.record(False, "serve: bad json")
        if not resp.get("ok") or resp.get("id") != req["id"]:
            return self.ctx.tally.record(False, "serve: error envelope")
        output = resp.get("output", "")
        if "repeat_of" in req:
            ok = output == self.hot_out.get(req["repeat_of"])
            return self.ctx.tally.record(ok and resp["exit"] == 0, "serve: repeat")
        kind = req["kind"]
        if req["id"].startswith("hot-"):
            self.hot_out[req["id"]] = output
        if kind == "check":  # every checked design is clean
            self.ctx.tally.record(ref.check_verdict(resp["exit"], output, None),
                                  "serve: check verdict")
        if kind in ("schedule", "check"):
            self.cli_jobs.append((req, output, resp["exit"]))
            return True  # recorded by verify_cli()
        if kind == "trial":
            ok = self._trial(req, output)
        else:
            wants = [ref.solve(a, b) for a, b in req["batches"]]
            ok = ref.check_batch(output, "batch", "x", wants, gen.LU_TASKS) == 0
        return self.ctx.tally.record(ok and resp["exit"] == 0, "serve: " + kind)

    def _trial(self, req, output):
        if req["design"] == "lu":
            return ref.check_run(output, "x", ref.solve(req["A"], req["b"]),
                                 gen.LU_TASKS)
        n = self.mix.sizes[req["design"]]
        want = ref.heat(req["rod"], n, n, 4, self.mix.alphas[req["design"]])
        return ref.check_run(output, "result", want, gen.heat_tasks(n, n))

    def verify_cli(self):
        """Runs the equivalent CLI command for every schedule and check
        answer (four at a time, after the timed phases) and counts each
        byte mismatch as a failure."""
        exe = os.path.abspath(self.ctx.exe)

        def argv(req):
            if req["kind"] == "check":
                self.ctx.write(req["label"], req["text"])
                return [exe, "check", req["label"]]
            mach = "m0.machine"
            if req["machine"] != self.mix.machine:
                mach = "mach_%s.machine" % req["id"]
                self.ctx.write(mach, req["machine"])
            return [exe, "schedule", req["design"] + ".pitl", mach,
                    "--scheduler", req["scheduler"]]

        def one(cmd):
            (req, output, code), args = cmd
            p = subprocess.run(args, cwd=self.ctx.work, capture_output=True,
                               text=True, check=False)
            if p.stdout == output and p.returncode == code:
                return True
            self.ctx.write("mismatch_%s.serve" % req["id"], output)
            self.ctx.write("mismatch_%s.cli" % req["id"], p.stdout)
            return False

        cmds = [(job, argv(job[0])) for job in self.cli_jobs]
        with concurrent.futures.ThreadPoolExecutor(NPROC) as pool:
            results = list(pool.map(one, cmds))
        for (job, _), ok in zip(cmds, results):
            self.ctx.tally.record(ok, "serve: %s differs from CLI" % job[0]["kind"])


def serve_setup(ctx, mix, srv):
    """Uploads the designs and the machine to a fresh server. Returns the
    seconds from its spawn until the last upload's answer."""
    last = srv.spawned_at
    for line in mix.upload_lines():
        last, raw = srv.request(line)
        resp = json.loads(raw)
        ctx.tally.record(resp.get("ok") is True, "serve: upload")
    return last - srv.spawned_at


def start_serve(ctx):
    return measure.Serve(ctx.exe, SERVE_JOBS, ctx.path("serve.err"))


def stop_serve(ctx, srv):
    ctx.tally.record(srv.close() == 0, "serve: exit status")
    ctx.rss_kb = max(ctx.rss_kb, srv.rss_kb)


def serve_phases(ctx, mix, checker, open_seconds, closed_seconds):
    """Set-up (three times), warm-up, open loop, closed loop."""
    setups = []
    for _ in range(2):
        with start_serve(ctx) as srv:
            setups.append(serve_setup(ctx, mix, srv))
            stop_serve(ctx, srv)
    with start_serve(ctx) as srv:
        setups.append(serve_setup(ctx, mix, srv))
        for h in mix.hot:
            _, raw = srv.request(h["line"])
            checker.check(h, raw)

        n_open = blocks_for(open_seconds, SERVE_RATE, gen.ServeMix.BLOCK)
        reqs = [mix.fresh(i) for i in range(n_open)]
        base = len(srv.responses)
        due, late, backlog = srv.open_loop([r["line"] for r in reqs], SERVE_RATE)
        answers = srv.responses[base:]
        latency = [(t - d) * 1000.0 for (t, _), d in zip(answers, due)]

        closed = []
        closed_answers = []
        rps = None
        if closed_seconds > 0:
            n_closed = blocks_for(closed_seconds, CLOSED_EST_RATE,
                                  gen.ServeMix.BLOCK)
            closed = [mix.fresh(n_open + i) for i in range(n_closed)]
            base = len(srv.responses)
            start = srv.closed_loop([r["line"] for r in closed], CLOSED_WINDOW)
            closed_answers = srv.responses[base:]
            rps = len(closed) / (closed_answers[-1][0] - start)

        _, raw = srv.request(json.dumps({"id": "stats", "op": "stats"}))
        stats = json.loads(raw).get("stats", {})
        stop_serve(ctx, srv)
    for req, (_, raw) in zip(reqs, answers):
        checker.check(req, raw)
    for req, (_, raw) in zip(closed, closed_answers):
        checker.check(req, raw)
    checker.verify_cli()

    late_ms = sorted(x * 1000.0 for x in late)
    p99_late = late_ms[min(len(late_ms) - 1, int(0.99 * len(late_ms)))]
    if p99_late > LATE_LIMIT_MS:
        ctx.invalid.append("generator ran %.1f ms late (p99)" % p99_late)
    if backlog > BACKLOG_LIMIT:
        ctx.invalid.append("backlog of %d requests at the end of the open loop"
                           % backlog)
    return {"setups": setups, "latency": latency, "rps": rps, "late_p99": p99_late,
            "backlog": backlog, "reqs": reqs, "stats": stats}


def serve_mix(ctx):
    mix = gen.ServeMix(ctx.seed)
    checker = ServeChecker(ctx, mix)
    open_s = 0.55 * ctx.seconds
    closed_s = 0.25 * ctx.seconds
    r = serve_phases(ctx, mix, checker, open_s, closed_s)
    ctx.note("serve.gen_late_ms.p99", r["late_p99"], "ms")
    ctx.note("serve.backlog", r["backlog"], "count")
    cache = r["stats"].get("cache", {})
    for key in ("hits", "misses", "evictions"):
        ctx.note("serve.cache_" + key, cache.get(key, 0), "count", "(stats op)")
    return finish(ctx, r["latency"], r["latency"], r["rps"],
                  statistics.median(r["setups"]))


# ----------------------------------------------------------------- sweeps

SWEEPS = {
    # name: (segments, steps, cells, stream lines, trial repeats, distinct rods,
    #        stream jobs)
    # `trial` runs the stream file `trial repeats` times over, so that its
    # per-input cost, not its start-up, sets its wall time. Commands are
    # sized so a run holds more than 20 of each: enough for a tail with
    # ten samples above it. The fine-grain stream runs its lanes on one
    # worker: with four, each of its ~1k tiny stages hands off to a
    # sleeping thread, and on a shared VM the wake-up latency of idle
    # processors swings its wall time 1.5-6x between runs with the host's
    # load. The traced run still times run_stream with four workers.
    "sweep_coarse": (8, 16, 512, 40, 1, 20, NPROC),
    "sweep_fine": (32, 32, 4, 48, 4, 32, 1),
}


class Sweep:
    """A heat design, its machine, and files of seeded rods with their
    reference results."""

    def __init__(self, ctx, name):
        (segments, steps, cells, lines, repeats, distinct,
         self.stream_jobs) = SWEEPS[name]
        r = gen.rng_for(ctx.seed, name)
        self.tasks = gen.heat_tasks(segments, steps)
        coeffs = gen.alphas(r, segments)
        self.design = ctx.write("sweep.pitl",
                                gen.heat_design(segments, steps, cells, coeffs))
        self.machine = ctx.write("sweep.machine", gen.fixed_machine("sweep"))
        rods = [gen.rod(r, segments * cells) for _ in range(distinct)]
        order = [r.randrange(distinct) for _ in range(lines)]
        texts = ["rod=" + gen.vec(v) for v in rods]
        stream_text = "".join(texts[k] + "\n" for k in order)
        self.inputs = ctx.write("rods.txt", stream_text)
        self.trial_inputs = ctx.write("rods_trial.txt", stream_text * repeats)
        self.one = ctx.write("one.txt", texts[order[0]] + "\n")
        refs = [ref.heat(v, segments, steps, cells, coeffs) for v in rods]
        self.wants = [refs[k] for k in order]
        self.trial_wants = self.wants * repeats


def sweep_commands(sw, trial_inputs, stream_inputs):
    return (("trial", sw.design, "--inputs", trial_inputs, "--jobs", str(NPROC)),
            ("stream", sw.design, sw.machine, "--inputs", stream_inputs,
             "--jobs", str(sw.stream_jobs)))


def sweep(ctx, name):
    sw = Sweep(ctx, name)
    trial_cmd, stream_cmd = sweep_commands(sw, sw.trial_inputs, sw.inputs)
    one_trial, one_stream = sweep_commands(sw, sw.one, sw.one)

    setups = []
    for _ in range(5):
        t = ctx.run(*one_trial)
        s = ctx.run(*one_stream)
        ctx.tally.record(t.code == 0 and ref.check_batch(
            t.out, "trial", "result", sw.wants[:1], sw.tasks) == 0, "setup trial")
        ctx.tally.record(s.code == 0 and ref.check_batch(
            s.out, "batch", "result", sw.wants[:1], sw.tasks) == 0, "setup stream")
        setups.append(t.wall + s.wall)

    verified = set()  # outputs already checked value by value

    def verify(done, word, wants):
        if done.code != 0:
            return False
        if (word, done.out) in verified:
            return True
        if ref.check_batch(done.out, word, "result", wants, sw.tasks) != 0:
            return False
        verified.add((word, done.out))
        return True

    trial_rate = []
    stream_ms = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        t = ctx.run(*trial_cmd)
        ctx.tally.record(verify(t, "trial", sw.trial_wants), "sweep trial")
        trial_rate.append(len(sw.trial_wants) / t.wall)
        s = ctx.run(*stream_cmd)
        ctx.tally.record(verify(s, "batch", sw.wants), "sweep stream")
        stream_ms.append(s.wall * 1000.0 / len(sw.wants))
    ctx.note("trial_inputs_per_s", statistics.median(trial_rate), "1/s",
             "(n=%d)" % len(trial_rate))
    ctx.note("stream_batches_per_s", 1000.0 / statistics.median(stream_ms), "1/s",
             "(n=%d)" % len(stream_ms))
    return finish(ctx, stream_ms, stream_ms, statistics.median(trial_rate),
                  statistics.median(setups))


# ----------------------------------------------------------------- traced


def probe(ctx, argv):
    """Median wall time (ms) of five runs of one command."""
    return statistics.median(ctx.run(*argv).wall for _ in range(5)) * 1000.0


def traced(ctx, name):
    """Per-layer metrics for one workload (see perfbench/README.md)."""
    inputs_file = ctx.path("trace_inputs.txt")
    requests = []
    wait = {}
    extra_args = []
    serve_figures = {"serve.gen_late_ms": 0.0, "serve.backlog": 0.0,
                     "serve.queue_wait_ms": 0.0}
    if name == "edit_loop":
        n = gen.EDIT_SIZES[1]
        e = next(e for e in (gen.edit(ctx.seed, i) for i in range(gen.EDIT_BLOCK))
                 if e["size"] == n and e["defect"] is None)
        design = ctx.write("trace.pitl", e["design"])
        mach = ctx.write("trace.machine", e["machine"])
        rods = [e["rod"]]
        want = ref.heat(e["rod"], n, n, 4, e["alphas"])
        tasks = gen.heat_tasks(n, n)
    elif name == "serve_mix":
        mix = gen.ServeMix(ctx.seed)
        checker = ServeChecker(ctx, mix)
        r = serve_phases(ctx, mix, checker, 0.5 * ctx.seconds, 0)
        design = ctx.path("h32.pitl")
        mach = ctx.path("m0.machine")
        first = next(q for q in r["reqs"] if q["kind"] == "trial"
                     and q["design"] == "h32" and "repeat_of" not in q)
        rods = [first["rod"]]
        want = ref.heat(first["rod"], 32, 32, 4, mix.alphas["h32"])
        tasks = gen.heat_tasks(32, 32)
        requests = (mix.upload_lines() + [h["line"] for h in mix.hot]
                    + [q["line"] for q in r["reqs"]])
        wait = {q["id"]: lat for q, lat in zip(r["reqs"], r["latency"])}
        fresh_schedules = [q["id"] for q in r["reqs"]
                           if q["kind"] == "schedule" and "repeat_of" not in q]
        extra_args = ["--sched-design", ctx.path("layered.pitl")]
        metrics = r["stats"].get("metrics", {})
        tasks_done = metrics.get("pool.tasks", 0)
        serve_figures = {
            "serve.gen_late_ms": r["late_p99"],
            "serve.backlog": float(r["backlog"]),
            "serve.queue_wait_ms": (1000.0 * metrics.get("pool.queue_wait_seconds", 0)
                                    / tasks_done if tasks_done else 0.0),
        }
    else:
        sw = Sweep(ctx, name)
        design, mach = sw.design, sw.machine
        rods = None
        inputs_file = sw.inputs
        want = sw.wants[0]
        tasks = sw.tasks
    if rods is not None:
        with open(inputs_file, "w", encoding="utf-8") as f:
            for v in rods:
                f.write("rod=" + gen.vec(v) + "\n")
    with open(inputs_file, encoding="utf-8") as f:
        first_input = f.readline().strip()
    if not requests:
        text = open(design, encoding="utf-8").read()
        mtext = open(mach, encoding="utf-8").read()
        base = [{"id": "up-d", "op": "upload", "name": "d", "kind": "design",
                 "text": text},
                {"id": "up-m", "op": "upload", "name": "m", "kind": "machine",
                 "text": mtext},
                {"id": "check", "op": "check", "design": text},
                {"id": "schedule", "op": "schedule", "design_ref": "d",
                 "machine_ref": "m"},
                {"id": "trial", "op": "trial", "design_ref": "d",
                 "inputs": {"rod": first_input.split("=", 1)[1]}}]
        again = [dict(b, id=b["id"] + "-again") for b in base[2:]]
        requests = [json.dumps(b, separators=(",", ":")) for b in base + again]
    req_file = ctx.write("trace_requests.jsonl", "".join(l + "\n" for l in requests))

    start = cli_start(ctx)
    cli = {
        "check": probe(ctx, ("check", design)),
        "schedule": probe(ctx, ("schedule", design, mach)),
        "trial": probe(ctx, ("trial", design, "--input", first_input)),
        "run": probe(ctx, ("run", design, mach, "--input", first_input)),
    }

    spans = ctx.path("spans.jsonl")
    done = measure.run([ctx.trace_exe, "--design", design, "--machine", mach,
                        "--inputs", inputs_file, "--requests", req_file,
                        "--spans", spans] + extra_args, ctx.work)
    if done.code != 0:
        raise RuntimeError("perfbench_trace failed: " + done.err)
    out = json.loads(done.out)
    m = out["metrics"]
    ctx.tally.record(ref.check_run(out["trial_output"], "result", want, tasks),
                     "traced trial")
    ctx.tally.record(ref.check_run(out["run_output"], "result", want, tasks),
                     "traced run")

    front = m["graph.parse_ms"] + m["graph.validate_ms"] + m["graph.flatten_ms"]
    compile_ms = m["pits.parse_ms"] + m["pits.facts_ms"] + m["pits.compile_ms"]
    plan = out["extra"]["sched.mh_design_ms"] + m["sched.validate_ms"]
    layers = {
        "check": front + out["extra"]["analyze.total_ms"] + m["analyze.emit_ms"],
        "schedule": front + plan + m["render.schedule_ms"],
        "trial": front + m["pits.input_eval_ms"] + compile_ms
        + m["exec.trial_ms"] + m["render.run_ms"],
        "run": front + m["pits.input_eval_ms"] + compile_ms + plan
        + m["exec.run_ms"] + m["render.run_ms"],
    }
    m["cli.start_ms"] = statistics.median(start) * 1000.0
    for cmd, ms in cli.items():
        m["cli.residual_ms." + cmd] = ms - layers[cmd]
        ctx.note("cli.%s_ms.p50" % cmd, ms, "ms", "(n=5, traced probe)")
    service = out["service_ms"]
    waits = [lat - service[rid] for rid, lat in wait.items() if rid in service]
    m["serve.wait_ms.p50"] = statistics.median(waits) if waits else 0.0
    if wait:
        ctx.note("serve.fresh_schedule_ms.p50",
                 statistics.median([service[rid] for rid in fresh_schedules]), "ms",
                 "(traced service time of fresh-machine schedules)")
    ctx.note("exec.program_cache_misses", out["extra"]["exec.program_cache_misses"],
             "count", "(compiles during the serve replay)")
    m.update(serve_figures)
    return m


WORKLOADS = {
    "edit_loop": edit_loop,
    "serve_mix": serve_mix,
    "sweep_coarse": lambda ctx: sweep(ctx, "sweep_coarse"),
    "sweep_fine": lambda ctx: sweep(ctx, "sweep_fine"),
}

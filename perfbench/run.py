#!/usr/bin/env python3
"""End-to-end benchmark of mclegal.

    python3 perfbench/run.py --workload contest-100k --seed 1 --seconds 20 --trace 0

Builds `mclegal` from the checkout (release, offline; `CARGO_TARGET_DIR`,
default `.bench_build`), generates the workload's fixed designs, drives the
program through its user-facing surfaces (the CLI and the `serve` daemon's
wire protocol) with a request stream drawn from `--seed` for `--seconds`,
checks every output, and
prints one JSON result as the last line of stdout. Everything else goes to
stderr. With `--trace 1` it prints the per-layer metrics instead of the
end-to-end ones and writes the spans it recorded around each call into the
program to `.bench_traces/<workload>-<seed>.json` (Chrome trace-event
format). See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# The checkout must stay clean: no __pycache__ next to the local modules.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bookshelf  # noqa: E402
import service  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("mgl", "maxdisp", "fixed_order")
# Legalizer configuration shared by every workload: the CLI's default mode
# at a fixed thread count, so results do not depend on the machine's cores.
ENGINE_ARGS = ["--mode", "contest", "--threads", "2"]
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Generator seeds of the contest-100k designs. Legalization time differs
# between generated designs, so the set is fixed; the seed orders the runs.
CONTEST_DESIGN_SEEDS = (1000, 1001, 1002)
# Generator seed of the eco-100k design: delta cost differs up to twofold
# between generated designs.
ECO_DESIGN_SEED = 500
# Cells moved per ECO delta, as in `make bench-eco`.
ECO_DELTA_CELLS = 64
# serve-mixed runs the top level of `make bench-serve`: 16 closed-loop job
# clients against a queue capped at 8, where that bench saw RETRY_AFTER.
SERVE_CLIENTS = 16
SERVE_QUEUE_CAP = 8
# Generator seeds of the serve-mixed job designs and of its ECO base.
SERVE_DESIGN_SEEDS = tuple(range(600, 606))
SERVE_ECO_DESIGN_SEED = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Trace:
    """Spans recorded around calls into the program; no-ops when disabled."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.t0 = time.perf_counter()
        self.events = []
        self.lock = threading.Lock()

    def span(self, name, start, end, trace_id, lane=0, parent=None, **args):
        if not self.enabled:
            return
        event = {
            "name": name,
            "ph": "X",
            "ts": round((start - self.t0) * 1e6, 1),
            "dur": round((end - start) * 1e6, 1),
            "pid": 1,
            "tid": lane,
            "args": {"trace_id": trace_id, "parent": parent, **args},
        }
        with self.lock:
            self.events.append(event)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events}) + "\n")


class Op:
    """One measured request: its latency and what the program reported."""

    def __init__(self, latency_s, engine_s, stages=None, pivots=None,
                 expansions=None, windows_dirty=None):
        self.latency_s = latency_s
        self.engine_s = engine_s
        self.stages = stages
        self.pivots = pivots
        self.expansions = expansions
        self.windows_dirty = windows_dirty


class Run:
    """Everything one workload run measured and checked."""

    def __init__(self):
        self.ops = []          # primary requests, timed
        self.background = 0    # other requests issued in the measured window
        self.rejections = 0    # RETRY_AFTER replies to timed requests
        self.failed = 0
        self.problems = []
        self.setup_s = []
        self.window_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.disp_dbu = 0
        self.disp_cells = 0
        self.row_height = 1

    def problem(self, msg):
        log(f"CHECK FAILED: {msg}")
        self.problems.append(msg)


class Context:
    def __init__(self, binary, work, seed, seconds, trace):
        self.binary = str(binary)
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace

    def generate(self, name, cells, seed):
        """Writes one synthetic design as a Bookshelf bundle; returns its dir."""
        out = self.work / name
        start = time.perf_counter()
        exited, _ = service.run([
            self.binary, "generate", "--cells", str(cells), "--density", "0.55",
            "--fences", "2", "--seed", str(seed), "--out", str(out),
        ])
        end = time.perf_counter()
        if exited.code != 0:
            raise RuntimeError(f"generate {name} exited {exited.code}")
        self.trace.span("setup.generate", start, end, f"setup-{name}", cells=cells)
        return out, end - start

    def check_placement(self, run, design_dir, bundle, pl_path):
        """Independent checks plus `mclegal check`; returns the positions."""
        start = time.perf_counter()
        pos = bookshelf.read_pl(pl_path, bundle.index)
        for p in bookshelf.check_legal(bundle, pos)[:5]:
            run.problem(f"{pl_path.name}: {p}")
        exited, out = service.run(
            [self.binary, "check", "--bookshelf", str(design_dir), "--pl", str(pl_path)],
            capture=True,
        )
        if exited.code != 0 or "LEGAL" not in out.split():
            run.problem(f"mclegal check {pl_path.name} exited {exited.code}")
        self.trace.span("verify.placement", start, time.perf_counter(), f"verify-{pl_path.name}")
        return pos


def report_problems(report):
    """Ways a run report admits the run was not a clean success."""
    problems = []
    if report["quality"]["hard_violations"]:
        problems.append(f"{report['quality']['hard_violations']} hard violations")
    if report["outcome"]["failed"]:
        problems.append(f"{report['outcome']['failed']} cells failed")
    if report["failures"] or report["degradations"]:
        problems.append("failures or degradations recorded")
    return problems


def legalize_op(report, latency_s):
    stages = {s: report["stage_seconds"].get(s, 0.0) for s in STAGES}
    return Op(
        latency_s,
        sum(report["stage_seconds"].values()),
        stages=stages,
        pivots=report["counters"].get("flow.simplex_pivots", 0),
        expansions=report["outcome"]["expansions"],
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def contest_100k(ctx):
    """`mclegal legalize` one-shot runs over three fixed 100k-cell designs.

    The run measures complete rounds, each legalizing every design once in
    an order drawn from the seed, so the median weighs the designs equally
    however many rounds fit. A further round starts only if it should end
    within `--seconds`.
    """
    run = Run()
    designs = []
    for k, gen_seed in enumerate(CONTEST_DESIGN_SEEDS):
        d, secs = ctx.generate(f"design{k}", 100_000, gen_seed)
        designs.append(d)
        run.setup_s.append(secs)

    rng = random.Random(ctx.seed)
    outputs = []
    start = time.perf_counter()
    k = 0
    round_s = 0.0
    while k == 0 or time.perf_counter() - start + round_s <= ctx.seconds:
        round_start = time.perf_counter()
        for d in rng.sample(designs, len(designs)):
            pl, rep = ctx.work / f"out{k}.pl", ctx.work / f"report{k}.json"
            t0 = time.perf_counter()
            exited, _ = service.run([
                ctx.binary, "legalize", "--bookshelf", str(d), *ENGINE_ARGS,
                "--out-pl", str(pl), "--report-json", str(rep),
            ])
            t1 = time.perf_counter()
            run.peak_rss_kb = max(run.peak_rss_kb, exited.peak_rss_kb)
            run.cpu_s += exited.cpu_s
            if exited.code != 0:
                run.failed += 1
                run.problem(f"legalize {d.name} exited {exited.code}")
            else:
                report = json.loads(rep.read_text())
                run.ops.append(legalize_op(report, t1 - t0))
                outputs.append((d, pl, report))
                ctx.trace.span("legalize", t0, t1, f"op{k}", design=d.name,
                               stage_seconds=report["stage_seconds"])
            k += 1
        round_s = time.perf_counter() - round_start
    run.window_s = time.perf_counter() - start

    # The first output of each design is checked in full. Legalization is
    # deterministic, so a repeat must reproduce that output byte for byte.
    verified = {}
    for d, pl, report in outputs:
        for p in report_problems(report):
            run.problem(f"{pl.name}: {p}")
        if d in verified:
            first_pl, disp, cells = verified[d]
            if first_pl.read_bytes() != pl.read_bytes():
                run.problem(f"{pl.name} differs from {first_pl.name} for {d.name}")
        else:
            bundle = bookshelf.Bundle(d)
            pos = ctx.check_placement(run, d, bundle, pl)
            cells = len(bundle.gp) - sum(bundle.fixed)
            disp = bookshelf.displacement_dbu(bundle, pos, bundle.movable())
            verified[d] = (pl, disp, cells)
            run.row_height = bundle.row_height
        if disp != report["quality"]["total_disp_dbu"]:
            run.problem(f"{pl.name}: displacement {disp} != reported "
                        f"{report['quality']['total_disp_dbu']}")
        run.disp_dbu += disp
        run.disp_cells += cells
    return run


def eco_moves(rng, bundle, movable, homes, n):
    """`n` distinct cells re-targeted a few sites/rows from their homes."""
    moves = []
    for i in rng.sample(movable, n):
        hx, hy = homes.get(i, bundle.gp[i])
        x = hx + rng.randint(-8, 8) * bundle.site_width
        y = hy + rng.randint(-2, 2) * bundle.row_height
        x = min(max(x, bundle.xl), bundle.xh - bundle.width[i])
        y = min(max(y, bundle.yl), bundle.yh - bundle.height[i])
        moves.append([i, x, y])
    return moves


class EcoSession:
    """A resident ECO session driven with explicit moves."""

    def __init__(self, client, design_dir, bundle, rng, delta_cells):
        self.client = client
        self.dir = design_dir
        self.bundle = bundle
        self.rng = rng
        self.delta_cells = delta_cells
        self.movable = list(bundle.movable())
        self.homes = {}
        reply = client.request({"op": "eco_open", "dir": str(design_dir)})
        if reply.get("status") != "OK":
            raise RuntimeError(f"eco_open failed: {reply}")
        self.id = reply["session"]

    def delta(self):
        """Pushes one delta; returns (reply, latency seconds, ok)."""
        moves = eco_moves(self.rng, self.bundle, self.movable, self.homes, self.delta_cells)
        t0 = time.perf_counter()
        reply = self.client.request({"op": "eco_delta", "session": self.id, "moves": moves})
        latency = time.perf_counter() - t0
        ok = reply.get("status") == "OK"
        if ok:
            self.homes.update((i, (x, y)) for i, x, y in moves)
        return reply, latency, ok

    def commit_and_check(self, ctx, run, name):
        """Persists the session and checks it; returns (disp dbu, cells)."""
        out = ctx.work / name
        reply = self.client.request({"op": "eco_commit", "session": self.id, "out": str(out)})
        if reply.get("status") != "OK":
            run.problem(f"eco_commit failed: {reply}")
            return 0, 0
        pl = next(out.glob("*.pl"))
        pos = ctx.check_placement(run, self.dir, self.bundle, pl)
        moved = list(self.homes)
        return bookshelf.displacement_dbu(self.bundle, pos, moved, self.homes), len(moved)


def open_primed(ctx, client, design_dir, bundle, trace_id):
    """Opens an ECO session and sends its first delta; returns it and the time.

    A session opened over a bundle starts with every cell unplaced, so its
    first delta legalizes the whole base. Both steps count as set-up.
    """
    t0 = time.perf_counter()
    session = EcoSession(client, design_dir, bundle, random.Random(ctx.seed), ECO_DELTA_CELLS)
    t_open = time.perf_counter()
    reply, _, ok = session.delta()
    t1 = time.perf_counter()
    if not ok:
        raise RuntimeError(f"priming delta failed: {reply}")
    ctx.trace.span("setup.eco_open", t0, t_open, trace_id)
    ctx.trace.span("setup.eco_prime", t_open, t1, trace_id, delta_ms=reply.get("delta_ms"))
    return session, t1 - t0


def eco_100k(ctx):
    """Interactive ECO deltas on a resident 100k-cell session.

    The design is fixed and the seed drives the edit stream: which cells
    move, and where to.
    """
    run = Run()
    d, _ = ctx.generate("design", 100_000, ECO_DESIGN_SEED)
    bundle = bookshelf.Bundle(d)
    run.row_height = bundle.row_height
    daemon = service.Daemon(ctx.binary, ENGINE_ARGS)
    try:
        with daemon.client() as client:
            session = None
            for k in range(SETUP_REPEATS):
                if session is not None:
                    reply = client.request({"op": "eco_close", "session": session.id})
                    if reply.get("status") != "OK":
                        run.problem(f"eco_close failed: {reply}")
                session, secs = open_primed(ctx, client, d, bundle, f"setup{k}")
                run.setup_s.append(secs)

            cpu0 = daemon.cpu_seconds()
            start = time.perf_counter()
            k = 0
            while k == 0 or time.perf_counter() - start < ctx.seconds:
                t0 = time.perf_counter()
                reply, latency, ok = session.delta()
                if ok:
                    run.ops.append(Op(latency, reply["delta_ms"] / 1e3,
                                      windows_dirty=reply["windows_dirty"]))
                else:
                    run.failed += 1
                    run.problem(f"delta {k}: {reply}")
                ctx.trace.span("eco_delta", t0, t0 + latency, f"op{k}",
                               delta_ms=reply.get("delta_ms"),
                               windows_dirty=reply.get("windows_dirty"))
                k += 1
            run.window_s = time.perf_counter() - start
            run.cpu_s = daemon.cpu_seconds() - cpu0
            run.disp_dbu, run.disp_cells = session.commit_and_check(ctx, run, "committed")
    finally:
        exited = daemon.stop()
    run.peak_rss_kb = exited.peak_rss_kb
    if exited.code != 0:
        run.problem(f"daemon exited {exited.code}")
    return run


def serve_mixed(ctx):
    """Closed-loop job clients plus one ECO client on one daemon.

    The designs are fixed; the seed drives the order in which each client
    cycles through them and the ECO client's edit stream.
    """
    run = Run()
    pool = [ctx.generate(f"job{k}", 10_000, s)[0] for k, s in enumerate(SERVE_DESIGN_SEEDS)]
    eco_dir, _ = ctx.generate("eco", 10_000, SERVE_ECO_DESIGN_SEED)
    eco_bundle = bookshelf.Bundle(eco_dir)
    run.row_height = eco_bundle.row_height
    journal = ctx.work / "jobs.journal"
    daemon_args = [*ENGINE_ARGS, "--queue-cap", str(SERVE_QUEUE_CAP),
                   "--journal", str(journal), "--report-dir", str(ctx.work / "reports")]

    # Set-up: a daemon up and an ECO session primed over its base. The first
    # two instances are drained again; the last one serves the traffic.
    daemon = None
    try:
        for k in range(SETUP_REPEATS):
            if daemon is not None:
                exited = daemon.stop()
                if exited.code != 0:
                    run.problem(f"set-up daemon exited {exited.code}")
            t0 = time.perf_counter()
            daemon = service.Daemon(ctx.binary, daemon_args)
            eco_client = daemon.client()
            session, _ = open_primed(ctx, eco_client, eco_dir, eco_bundle, f"setup{k}")
            t1 = time.perf_counter()
            run.setup_s.append(t1 - t0)
            ctx.trace.span("setup.daemon", t0, t1, f"setup{k}")
            if k + 1 < SETUP_REPEATS:
                eco_client.close()

        reports = []
        lock = threading.Lock()
        deadline = 0.0

        def guarded(body, *args):
            try:
                body(*args)
            except (OSError, ValueError, KeyError) as e:
                with lock:
                    run.failed += 1
                    run.problem(f"client thread: {e!r}")

        def submit(client, d):
            """Sends a job, honouring RETRY_AFTER until the window closes.

            Returns the admission reply, or None if it was never admitted.
            """
            while True:
                ack = client.request({"op": "legalize", "dir": str(d)})
                if ack.get("status") != "RETRY_AFTER":
                    return ack
                with lock:
                    run.rejections += 1
                if time.perf_counter() >= deadline:
                    return None
                time.sleep(ack.get("retry_after_ms", 100) / 1e3)

        def job_client(lane):
            order = random.Random(ctx.seed * SERVE_CLIENTS + lane).sample(pool, len(pool))
            with daemon.client() as client:
                n = 0
                while time.perf_counter() < deadline:
                    d = order[n % len(order)]
                    t0 = time.perf_counter()
                    ack = submit(client, d)
                    if ack is None:
                        break
                    t_ack = time.perf_counter()
                    final = client.recv() if ack.get("phase") == "ACCEPTED" else ack
                    t1 = time.perf_counter()
                    with lock:
                        if final.get("status") == "OK":
                            report = final["report"]
                            run.ops.append(legalize_op(report, t1 - t0))
                            reports.append((d, report))
                        else:
                            run.failed += 1
                            run.problem(f"job {d.name}: {final}")
                    trace_id = f"job{lane}-{n}"
                    ctx.trace.span("job", t0, t1, trace_id, lane=lane, design=d.name)
                    ctx.trace.span("job.admit", t0, t_ack, trace_id, lane=lane, parent="job")
                    ctx.trace.span("job.run", t_ack, t1, trace_id, lane=lane, parent="job",
                                   stage_seconds=final.get("report", {}).get("stage_seconds"))
                    n += 1

        def eco_client_loop():
            n = 0
            while time.perf_counter() < deadline:
                reply, latency, ok = session.delta()
                t1 = time.perf_counter()
                with lock:
                    if ok:
                        run.background += 1
                    else:
                        run.failed += 1
                        run.problem(f"eco delta {n}: {reply}")
                ctx.trace.span("eco_delta", t1 - latency, t1, f"eco{n}", lane=SERVE_CLIENTS,
                               delta_ms=reply.get("delta_ms"))
                n += 1

        cpu0 = daemon.cpu_seconds()
        start = time.perf_counter()
        deadline = start + ctx.seconds
        threads = [threading.Thread(target=guarded, args=(job_client, lane))
                   for lane in range(SERVE_CLIENTS)]
        threads.append(threading.Thread(target=guarded, args=(eco_client_loop,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        run.window_s = time.perf_counter() - start
        run.cpu_s = daemon.cpu_seconds() - cpu0
        session.commit_and_check(ctx, run, "eco_committed")
        eco_client.close()
    finally:
        exited = daemon.stop() if daemon is not None else None
    run.peak_rss_kb = exited.peak_rss_kb
    if exited.code != 0:
        run.problem(f"daemon exited {exited.code}")
    if journal.exists() and journal.stat().st_size:
        run.problem("journal not empty after a clean drain")

    # Served jobs must match a solo CLI run of the same design, and the solo
    # run's placement must pass the independent checks.
    solo = {}
    for d in pool:
        pl, rep = ctx.work / f"solo_{d.name}.pl", ctx.work / f"solo_{d.name}.json"
        exited, _ = service.run([
            ctx.binary, "legalize", "--bookshelf", str(d), *ENGINE_ARGS,
            "--out-pl", str(pl), "--report-json", str(rep),
        ])
        if exited.code != 0:
            run.problem(f"solo legalize {d.name} exited {exited.code}")
            continue
        report = json.loads(rep.read_text())
        bundle = bookshelf.Bundle(d)
        pos = ctx.check_placement(run, d, bundle, pl)
        disp = bookshelf.displacement_dbu(bundle, pos, list(bundle.movable()))
        if disp != report["quality"]["total_disp_dbu"]:
            run.problem(f"solo {d.name}: displacement {disp} != reported")
        solo[d] = report
    for d, report in reports:
        for p in report_problems(report):
            run.problem(f"served {d.name}: {p}")
        ref = solo.get(d)
        if ref and (report["quality"], report["outcome"]) != (ref["quality"], ref["outcome"]):
            run.problem(f"served {d.name} differs from its solo run")
        run.disp_dbu += report["quality"]["total_disp_dbu"]
        run.disp_cells += report["cells"]
    return run


WORKLOADS = {
    "contest-100k": contest_100k,
    "eco-100k": eco_100k,
    "serve-mixed": serve_mixed,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    lat_ms = [op.latency_s * 1e3 for op in run.ops]
    return {
        "p50_ms": metric(statistics.median(lat_ms), "ms"),
        "ops_per_s": metric(len(run.ops) / run.window_s, "1/s"),
        "mean_disp_rows": metric(
            run.disp_dbu / max(run.disp_cells, 1) / run.row_height, "rows"),
        "peak_rss_mb": metric(run.peak_rss_kb / 1024, "MB"),
        "setup_s": metric(statistics.median(run.setup_s), "s"),
    }


def per_layer(run):
    ops = run.ops
    staged = [op for op in ops if op.stages]
    stage_total = sum(op.engine_s for op in staged) or 1.0

    def share(stage):
        return 100 * sum(op.stages[stage] for op in staged) / stage_total

    def median_of(attr):
        values = [getattr(op, attr) for op in ops if getattr(op, attr) is not None]
        return statistics.median(values) if values else 0

    return {
        "engine_ms": metric(statistics.median(op.engine_s * 1e3 for op in ops), "ms"),
        "outside_engine_ms": metric(
            statistics.median((op.latency_s - op.engine_s) * 1e3 for op in ops), "ms"),
        "cpu_per_op_ms": metric(run.cpu_s * 1e3 / len(ops), "ms"),
        "mgl_pct": metric(share("mgl"), "%"),
        "maxdisp_pct": metric(share("maxdisp"), "%"),
        "fixed_order_pct": metric(share("fixed_order"), "%"),
        "simplex_pivots": metric(median_of("pivots"), "count"),
        "mgl_expansions": metric(median_of("expansions"), "count"),
        "eco_windows_dirty": metric(median_of("windows_dirty"), "count"),
        "retry_after_per_op": metric(run.rejections / len(ops), "1/op"),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def build():
    """Builds the release CLI from this checkout; returns the binary path."""
    if not (ROOT / "Cargo.toml").is_file():
        raise RuntimeError(f"no Cargo.toml in {ROOT}: not a source checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--bin", "mclegal"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=880,
    )
    binary = target / "release" / "mclegal"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = Trace(args.trace == 1)
    try:
        run = WORKLOADS[args.workload](
            Context(binary, work, args.seed, args.seconds, trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        trace.write(ROOT / ".bench_traces" / f"{args.workload}-{args.seed}.json")
    if not run.ops:
        raise RuntimeError("no request completed")

    log(f"{args.workload}: {len(run.ops)} timed requests in {run.window_s:.1f}s "
        f"(+{run.background} background), {run.failed} failed, "
        f"{len(run.problems)} check failures")
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": len(run.ops) + run.failed + run.background,
        "failed": run.failed,
        "metrics": per_layer(run) if args.trace else end_to_end(run),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)

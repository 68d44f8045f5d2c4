#!/usr/bin/env python3
"""End-to-end benchmark of `tilecc run` on seeded `.tk` kernels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the `tilecc`
binary with cargo (into `$CARGO_TARGET_DIR`, default `.bench_build`),
writes the workload's `.tk` kernel from the seed, and checks the program
against an independent Python interpreter of the same stencil before it
measures anything.

`--trace 0` times whole `tilecc run --verify` processes (observability
off) for the given seconds and reports the end-to-end metrics: median and
p90 wall time per run, the virtual makespan the run models, and
the set-up time (median wall of the compile-only `tilecc plan`, sampled
between the runs). Wall times are normalized to a reference CPU speed; see
CAL_REF_MS.

`--trace 1` runs the same plan with `--trace-out/--metrics-out` on the
threaded backend and again on the tcp backend, checks both agree bitwise,
and reports per-layer medians read from the program's own trace spans and
metrics report (driver stages, per-rank phases, TCMP codec, virtual-clock
split, traffic counts).

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROC_TIMEOUT_S = 60
# Fewest timed processes per run, however short --seconds is.
MIN_ATTEMPTS = 20
# The host's CPU speed drifts by a third over tens of seconds (shared
# VMs), and every process here slows with it. Each round therefore first
# times a fixed pure-Python loop and scales that round's wall times by
# CAL_REF_MS / (loop ms): times read as on a machine where the loop takes
# CAL_REF_MS. This cuts the run-to-run spread of medians several-fold.
CAL_REF_MS = 25.0


def calibration_ms():
    """Wall ms of a fixed CPU-bound loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def bnd(j):
    """`bnd()` of the kernel DSL: a hash of the original coordinates."""
    h = 17
    for k, v in enumerate(j):
        h = (h * 31 + v * (7 + k) + 2**63) % 2**64 - 2**63
    return (h % 1009) / 1009.0


class Case:
    """One generated input: the `.tk` source, the tiling, and the same
    stencil as Python closures for the reference interpreter."""

    def __init__(self, tk, rect, map_dim, box, init, body):
        self.tk = tk
        self.rect = rect
        self.map_dim = map_dim
        self.box = box  # inclusive (lo, hi) per original dimension
        self.init = init  # j -> tuple of every array's initial value
        self.body = body  # (read, *j) -> tuple of every array's new value


# Each workload stresses a different part of the pipeline. The seed moves
# one extent by a few points, within a range where the processor count
# stays fixed, so work and makespan change by under 2% across seeds; the
# coefficients vary freely.


def sor(rng):
    m, n, nj = 24, 62, 62 + rng.randrange(3)
    w = round(rng.uniform(1.05, 1.25), 3)
    tk = f"""kernel sor
param M = {m}
param N = {n}
param L = {nj}
iter t = 1 to M
iter i = 1 to N
iter j = 1 to L
skew = [1,0,0; 1,1,0; 2,0,1]
deps = (0,1,0), (0,0,1), (1,-1,0), (1,0,-1), (1,0,0)
array A = bnd()
A[t,i,j] = {w}/4*(A[t,i-1,j] + A[t,i,j-1] + A[t-1,i+1,j] + A[t-1,i,j+1]) + (1 - {w})*A[t-1,i,j]
"""

    def body(r, t, i, j):
        return (
            w / 4 * (r((t, i - 1, j))[0] + r((t, i, j - 1))[0] + r((t - 1, i + 1, j))[0]
                     + r((t - 1, i, j + 1))[0])
            + (1 - w) * r((t - 1, i, j))[0],
        )

    return Case(tk, "6,30,30", 0, [(1, m), (1, n), (1, nj)], lambda j: (bnd(j),), body)


def jacobi9(rng):
    t_max, n, nj = 16, 54, 52 + rng.randrange(4)
    c1 = round(rng.uniform(0.1, 0.14), 3)
    c2 = round(rng.uniform(0.05, 0.08), 3)
    c0 = round(1 - 4 * c1 - 4 * c2, 3)
    tk = f"""kernel jacobi9
param T = {t_max}
param N = {n}
param L = {nj}
iter t = 1 to T
iter i = 1 to N
iter j = 1 to L
skew = [1,0,0; 1,1,0; 1,0,1]
array A = bnd()
A[t,i,j] = {c0}*A[t-1,i,j] + {c1}*(A[t-1,i-1,j] + A[t-1,i+1,j] + A[t-1,i,j-1] + A[t-1,i,j+1]) + {c2}*(A[t-1,i-1,j-1] + A[t-1,i-1,j+1] + A[t-1,i+1,j-1] + A[t-1,i+1,j+1])
"""

    def body(r, t, i, j):
        p = t - 1
        return (
            c0 * r((p, i, j))[0]
            + c1 * (r((p, i - 1, j))[0] + r((p, i + 1, j))[0] + r((p, i, j - 1))[0]
                    + r((p, i, j + 1))[0])
            + c2 * (r((p, i - 1, j - 1))[0] + r((p, i - 1, j + 1))[0]
                    + r((p, i + 1, j - 1))[0] + r((p, i + 1, j + 1))[0]),
        )

    return Case(tk, "8,24,24", 2, [(1, t_max), (1, n), (1, nj)], lambda j: (bnd(j),), body)


def heat3d(rng):
    t_max, n, nz = 6, 16, 15 + rng.randrange(3)
    nu = round(rng.uniform(0.08, 0.12), 3)
    tk = f"""kernel heat3d
param T = {t_max}
param N = {n}
param L = {nz}
iter t = 1 to T
iter x = 1 to N
iter y = 1 to N
iter z = 1 to L
skew = [1,0,0,0; 1,1,0,0; 1,0,1,0; 1,0,0,1]
array A = bnd()
A[t,x,y,z] = A[t-1,x,y,z] + {nu}*(A[t-1,x-1,y,z] + A[t-1,x+1,y,z] + A[t-1,x,y-1,z] + A[t-1,x,y+1,z] + A[t-1,x,y,z-1] + A[t-1,x,y,z+1] - 6*A[t-1,x,y,z])
"""

    def body(r, t, x, y, z):
        p = t - 1
        c = r((p, x, y, z))[0]
        return (
            c + nu * (r((p, x - 1, y, z))[0] + r((p, x + 1, y, z))[0] + r((p, x, y - 1, z))[0]
                      + r((p, x, y + 1, z))[0] + r((p, x, y, z - 1))[0] + r((p, x, y, z + 1))[0]
                      - 6 * c),
        )

    box = [(1, t_max), (1, n), (1, n), (1, nz)]
    return Case(tk, "6,12,12,12", 3, box, lambda j: (bnd(j),), body)


def coupled(rng):
    t_max, n = 96, 250 + rng.randrange(5)
    du = round(rng.uniform(0.15, 0.25), 3)
    ku = round(rng.uniform(0.03, 0.07), 3)
    kv = round(rng.uniform(0.08, 0.12), 3)
    tk = f"""kernel coupled
param T = {t_max}
param N = {n}
iter t = 1 to T
iter i = 1 to N
skew = [1,0; 1,1]
array U = bnd()
array V = 1 - bnd()
U[t,i] = U[t-1,i] + {du}*(U[t-1,i-1] - 2*U[t-1,i] + U[t-1,i+1]) + {ku}*V[t-1,i]
V[t,i] = V[t-1,i] + {kv}*(U[t-1,i] - V[t-1,i])
"""

    def body(r, t, i):
        left, mid, right = r((t - 1, i - 1)), r((t - 1, i)), r((t - 1, i + 1))
        u, v = mid
        return (u + du * (left[0] - 2 * u + right[0]) + ku * v, v + kv * (u - v))

    def init(j):
        b = bnd(j)
        return (b, 1 - b)

    return Case(tk, "24,96", 1, [(1, t_max), (1, n)], init, body)


# name -> (generator, backend, strategy)
WORKLOADS = {
    "sor": (sor, "threaded", "compiled"),
    "jacobi9_overlap": (jacobi9, "threaded", "overlapped"),
    "heat3d_4d": (heat3d, "threaded", "compiled"),
    "coupled_tcp": (coupled, "tcp", "compiled"),
}


def reference(case):
    """Independent sequential interpreter: lexicographic scan of the box in
    original coordinates; a read outside the box takes the initial value.
    Returns (points, exactly rounded sum of every component)."""
    store = {}
    init = case.init

    def read(j):
        v = store.get(j)
        return v if v is not None else init(j)

    for j in itertools.product(*(range(lo, hi + 1) for lo, hi in case.box)):
        store[j] = case.body(read, *j)
    return len(store), math.fsum(x for v in store.values() for x in v)


class Proc:
    """A finished child process: stdout, exit code and wall seconds."""

    def __init__(self, argv, cwd):
        t0 = time.perf_counter()
        # Own process group, so a hung tcp driver goes down with its workers.
        p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = p.communicate(timeout=PROC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            out, _ = p.communicate()
        self.wall = time.perf_counter() - t0
        self.out = out.decode()
        self.code = p.returncode

    def fields(self):
        f = {}
        for line in self.out.splitlines():
            key, sep, val = line.partition(":")
            if sep:
                f.setdefault(key.strip(), val.strip())
        return f


def ok(proc):
    """A run succeeded: exit 0 and the program verified it against its own
    sequential execution."""
    return proc.code == 0 and proc.fields().get("verified") == "true"


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "-p", "tilecc-cli", "--bin", "tilecc"]
    subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target),
                   stdout=sys.stderr, check=True)
    return os.path.join(target, "release", "tilecc")


def span_stats(trace_path):
    """Per-name wall ms of the driver's spans, per-name wall ms summed over
    every rank's spans, and the wall ms covered by the union of all spans."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    driver, ranks, intervals = {}, {}, []
    for e in events:
        start, dur = e["args"]["wall_start_ns"], e["args"]["wall_dur_ns"]
        side = driver if e["pid"] == 0 else ranks
        side[e["name"]] = side.get(e["name"], 0.0) + dur / 1e6
        intervals.append((start, start + dur))
    covered, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            covered += hi - lo
            reach = hi
        elif hi > reach:
            covered += hi - reach
            reach = hi
    return driver, ranks, covered / 1e6


def rank_totals(metrics_path):
    """Sums over ranks of the metrics report's virtual clocks (ms),
    histogram totals (ms of wall) and counters."""
    with open(metrics_path) as f:
        report = json.load(f)
    virt, hist, counts = {}, {}, {}
    for r in report["ranks"]:
        for k in ("compute", "wait", "comm"):
            virt[k] = virt.get(k, 0.0) + r[k] * 1e3
        for k, h in r["histograms"].items():
            hist[k] = hist.get(k, 0.0) + h["sum"] / 1e6
        for k, v in r["counters"].items():
            counts[k] = counts.get(k, 0) + v
    return report["makespan"], virt, hist, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        sys.exit(f"no tilecc sources under {ROOT}: run from a source checkout")
    binary = build()

    make, backend, strategy = WORKLOADS[args.workload]
    case = make(random.Random(args.seed))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = measure(args, binary, case, backend, strategy, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def measure(args, binary, case, backend, strategy, work):
    kernel = os.path.join(work, "kernel.tk")
    with open(kernel, "w") as f:
        f.write(case.tk)
    target = [kernel, "--rect", case.rect, "--map", str(case.map_dim)]
    plan = [binary, "plan"] + target
    base = [binary, "run"] + target + ["--verify"]
    if strategy != "compiled":
        base += ["--strategy", strategy]

    def run_cmd(on, artifacts=False):
        cmd = base + (["--backend", "tcp"] if on == "tcp" else [])
        if artifacts:
            cmd += ["--metrics-out", os.path.join(work, f"{on}.metrics.json")]
            if on == "threaded":
                cmd += ["--trace-out", os.path.join(work, "trace.json")]
        return cmd

    # Correctness first, untimed: the program's result against the
    # independent interpreter, and the modeled makespan at full precision.
    points, ref_sum = reference(case)
    check = Proc(run_cmd(backend, artifacts=True), work)
    if not ok(check):
        sys.exit(f"check run failed (exit {check.code}):\n{check.out}")
    fields = check.fields()
    expect = fields["checksum"], fields["makespan"]
    got = struct.unpack(">d", bytes.fromhex(fields["checksum"]))[0]
    correct = (int(fields["iterations"]) == points
               and abs(got - ref_sum) <= 1e-9 * max(1.0, abs(ref_sum)))
    if not correct:
        print(f"reference mismatch: {points} points sum {ref_sum!r}, "
              f"tilecc {fields['iterations']} points sum {got!r}", file=sys.stderr)
    makespan_s = rank_totals(os.path.join(work, f"{backend}.metrics.json"))[0]

    # Every timed process must reproduce the check run bitwise.
    def good(p):
        f = p.fields()
        return ok(p) and (f.get("checksum"), f.get("makespan")) == expect

    attempted = failed = 0
    rows = []
    deadline = time.perf_counter() + args.seconds
    # MIN_ATTEMPTS may stretch a short run, but never past this cap.
    cap = deadline + 60
    while (now := time.perf_counter()) < cap and (now < deadline or attempted < MIN_ATTEMPTS):
        scale = CAL_REF_MS / calibration_ms()
        if args.trace == 0:
            procs = {"plan": Proc(plan, work),
                     "run": Proc(run_cmd(backend), work)}
            bad = (procs["plan"].code != 0) + (not good(procs["run"]))
        else:
            procs = {on: Proc(run_cmd(on, artifacts=True), work) for on in ("threaded", "tcp")}
            bad = sum(not good(p) for p in procs.values())
        attempted += len(procs)
        failed += bad
        if bad:
            continue
        if args.trace == 0:
            rows.append({"run": procs["run"].wall * 1e3 * scale,
                         "setup": procs["plan"].wall * scale})
        else:
            rows.append(layer_row(work, procs, scale))
    if len(rows) < 2:
        sys.exit(f"{failed} of {attempted} processes failed")
    cols = {k: [r[k] for r in rows] for k in rows[0]}

    if args.trace == 0:
        metrics = {
            "run_norm_ms": (statistics.median(cols["run"]), "ms"),
            "run_norm_p90_ms": (statistics.quantiles(cols["run"], n=10)[-1], "ms"),
            "virtual_makespan_ms": (makespan_s * 1e3, "ms"),
            "setup_s": (statistics.median(cols["setup"]), "s"),
        }
    else:
        metrics = {k: (statistics.median(v), LAYER_UNITS.get(k, "ms")) for k, v in cols.items()}
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


LAYER_UNITS = {"messages": "count", "bytes_sent": "B"}


def layer_row(work, runs, scale):
    """One traced threaded run plus one tcp run of the same plan, as
    per-layer values. Wall times are normalized by `scale`; virtual times
    are the model's and are not."""
    driver, ranks, covered = span_stats(os.path.join(work, "trace.json"))
    _, virt, hist, counts = rank_totals(os.path.join(work, "threaded.metrics.json"))
    tcp_hist = rank_totals(os.path.join(work, "tcp.metrics.json"))[2]
    wall = {
        "lower_ms": driver["lower"],
        "tiled_space_ms": driver["tiled-space"],
        "comm_plan_ms": driver["comm-plan"],
        "compile_chain_ms": driver["compile-chain"],
        "gather_ms": driver["gather"],
        "compute_ms": hist["compute_tile_ns"],
        "pack_ms": hist["pack_ns"],
        "unpack_ms": hist["unpack_ns"],
        "send_ms": ranks["send"],
        "recv_wait_ms": hist["recv_wait_ns"],
        "untraced_ms": runs["threaded"].wall * 1e3 - covered,
        "tcp_wall_ms": runs["tcp"].wall * 1e3,
        "tcmp_serialize_ms": tcp_hist["serialize_ns"],
        "tcmp_deserialize_ms": tcp_hist["deserialize_ns"],
    }
    row = {k: v * scale for k, v in wall.items()}
    row.update({
        "virt_compute_ms": virt["compute"],
        "virt_wait_ms": virt["wait"],
        "virt_comm_ms": virt["comm"],
        "messages": counts["messages_sent"],
        "bytes_sent": counts["bytes_sent"],
    })
    return row


if __name__ == "__main__":
    main()

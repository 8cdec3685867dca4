#!/usr/bin/env python3
"""End-to-end benchmark of the `gvnopt --serve` compilation service.

    python3 servebench/run.py --workload suite-serve --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. It builds `gvnopt` and the in-process
helper `servebench/sb.exe` with dune into `.bench_build/`, generates the
seeded request stream of the workload (`sb gen`), computes every routine's
reference result with the pre-SSA interpreter (`sb ref`), and then drives
the real binary over stdin/stdout in a closed loop: one client, one request
in flight, the next request sent only after the framed response is read.

With `--trace 0` it prints the end-to-end metrics, measured with no tracing.
With `--trace 1` it serves the stream once untraced, replays the same
requests in-process with a span around every layer call (`sb replay`),
checks that the replay's optimized text equals the binary's byte for byte,
and prints the per-layer metrics.

Every response is checked against the reference; the last stdout line is
the JSON result. The exit code is 0 only when every check passed.
`--corrupt-reference` perturbs one reference result, which must make the run
report failed routines and exit 1. See servebench/README.md.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
GVNOPT = os.path.join(BUILD_DIR, "default", "bin", "gvnopt.exe")
SB = os.path.join(BUILD_DIR, "default", "servebench", "sb.exe")
PROBE = b"routine probe(a) { return a + 1; }\n"
SETUP_SPAWNS = 31
MIN_PASSES = 2
MIN_LATENCY_SAMPLES = 100
# The binary prints the wall time validation took; it is the one
# nondeterministic field of a response and is masked before comparing.
OVERHEAD = re.compile(rb"overhead [0-9.]+s")
RUN_LINE = re.compile(r"^run\(([^)]*)\): input (.+) \| optimized (.+) \| (agree|DISAGREE)$")
OPT_HEADER = re.compile(r"^--- optimized \((\d+) -> (\d+) instrs, ", re.M)

LAYERS = [
    "ir.parse", "ir.lower", "ssa.construct", "par.ccache.key", "par.ccache.lookup",
    "pgvn.run", "transform.rewrite", "transform.dce", "transform.simplify_cfg",
    "transform.gcm", "check.schedule", "check.verify", "validate.certify", "ir.print",
    "ir.interp", "par.pool.map",
]
SHAPES = ["seqif", "nestedif", "loops", "straight"]


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "bin/gvnopt.ml", "lib", "servebench/sb.ml"):
        if not os.path.exists(need):
            die("run from the root of the source tree (%s is missing)" % need)
    # No shared dune cache, and the compiler's temporary files stay in the tree.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./bin/gvnopt.exe", "./servebench/sb.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def sb(*args):
    r = subprocess.run([SB] + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("sb %s failed" % args[0])
    return r


def read_frames(path):
    with open(path, "rb") as f:
        data = f.read()
    frames, pos = [], 0
    while pos < len(data):
        n = int.from_bytes(data[pos:pos + 4], "big")
        frames.append(data[pos + 4:pos + 4 + n])
        pos += 4 + n
    return frames


def frame(payload):
    return len(payload).to_bytes(4, "big") + payload


class Server:
    """One `gvnopt --serve` child; GC statistics are printed at exit."""

    def __init__(self, flags):
        env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        self.t_spawn = time.perf_counter()
        self.p = subprocess.Popen([GVNOPT, "--serve"] + flags, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    def request(self, payload):
        try:
            self.p.stdin.write(frame(payload))
            self.p.stdin.flush()
        except BrokenPipeError:
            return None
        hdr = self.p.stdout.read(4)
        if len(hdr) != 4:
            return None
        n = int.from_bytes(hdr, "big")
        body = self.p.stdout.read(n)
        return body if len(body) == n else None

    def close(self):
        """Shut down; returns (exit code, user+sys CPU s, maxrss MB, allocated words)."""
        try:
            self.p.stdin.close()
        except BrokenPipeError:
            pass
        rest = self.p.stdout.read()
        err = self.p.stderr.read()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.p.stdout.close()
        self.p.stderr.close()
        m = re.search(rb"allocated_words: (\d+)", err)
        code = self.p.returncode if not rest else -1
        return (code, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                int(m.group(1)) if m else None)


@contextlib.contextmanager
def one_cpu():
    """Confine this process, and the servers it spawns, to one CPU (the
    highest-numbered one it may use).

    In the closed loop exactly one of client and server is runnable at a
    time. On one CPU the hand-over is a local context switch; spread over
    two, every request wakes an idle virtual CPU twice, and on a shared host
    that wake-up waits for the hypervisor: it added 2% to a pass on a quiet
    host and 25% on a busy one."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def measure_setup(flags):
    samples = []
    for _ in range(SETUP_SPAWNS):
        s = Server(flags)
        resp = s.request(frame(PROBE)[4:])
        t = time.perf_counter() - s.t_spawn
        code = s.close()[0]
        if resp is None or resp[:1] != b"0" or code != 0:
            die("the probe routine failed")
        samples.append(t)
    return statistics.median(samples)


def serve_pass(flags, requests):
    """One closed-loop pass over the stream in a fresh server."""
    s = Server(flags)
    lat, responses = [], []
    t0 = time.perf_counter()
    try:
        for req in requests:
            a = time.perf_counter()
            resp = s.request(req)
            lat.append(time.perf_counter() - a)
            responses.append(resp)
            if resp is None:
                break
    except BaseException:
        s.p.kill()
        s.p.wait()
        raise
    wall = time.perf_counter() - t0
    code, cpu, rss, alloc = s.close()
    return {"lat": lat, "wall": wall, "responses": responses, "exit": code,
            "cpu": cpu, "rss": rss, "alloc": alloc}


def sections(body):
    """Split a response body into (routine name, section text) pairs."""
    out, name, start = [], None, 0
    for m in re.finditer(r"^=== (.+) ===$", body, re.M):
        if name is not None:
            out.append((name, body[start:m.start()]))
        name, start = m.group(1), m.end() + 1
    if name is not None:
        out.append((name, body[start:]))
    return out


def optimized_section(text):
    i = text.find("--- optimized (")
    if i < 0:
        return None
    j = text.find("\n\n", i)
    return text[i:] if j < 0 else text[i:j + 2]


def check_pass(responses, refs, run_args):
    """Check every routine of every response against the reference.

    Returns (checked, failed, in_instrs, out_instrs, per-request optimized
    sections, the first few failure descriptions). A routine counts as
    checked once its section of the response was compared with the
    reference; routines of a missing, failed or malformed response fail
    unchecked."""
    checked = failed = n_in = n_out = 0
    opt, why = [], []
    args = ",".join(str(a) for a in run_args)
    for i, ref in enumerate(refs):
        resp = responses[i] if i < len(responses) else None
        if resp is None or resp[:1] != b"0":
            failed += len(ref)
            opt.append(None)
            why.append("request %d: %s" % (i, "no response" if resp is None
                                           else "status " + resp[:1].decode()))
            continue
        secs = sections(resp[1:].decode())
        if [n for n, _ in secs] != [n for n, _ in ref]:
            failed += len(ref)
            opt.append(None)
            why.append("request %d: routines %r, expected %r" % (
                i, [n for n, _ in secs], [n for n, _ in ref]))
            continue
        texts = []
        for (name, text), (_, expect) in zip(secs, refs[i]):
            checked += 1
            run = [RUN_LINE.match(l) for l in text.splitlines()]
            run = [m for m in run if m]
            hdr = OPT_HEADER.search(text)
            sec = optimized_section(text)
            ok = (len(run) == 1 and hdr is not None and sec is not None
                  and run[0].group(1) == args
                  and run[0].group(2) == expect and run[0].group(3) == expect
                  and expect != "timeout")
            if hdr:
                n_in += int(hdr.group(1))
                n_out += int(hdr.group(2))
            texts.append(sec or "")
            if not ok:
                failed += 1
                why.append("%s: expected %s, got %s" % (
                    name, expect, run[0].group(0) if len(run) == 1 else "no single run line"))
        opt.append("".join(texts))
    return checked, failed, n_in, n_out, opt, why[:5]


def digest(chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(frame(c if c is not None else b"<missing>"))
    return h.hexdigest()


def normalized(responses):
    return [OVERHEAD.sub(b"overhead <t>s", r) if r is not None else None for r in responses]


def quantile_hi(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def host(seed, manifest):
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        commit = r.stdout.decode().strip() or None
    h = hashlib.sha256()
    for top in ("bin", "lib"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return {"nproc": os.cpu_count(), "ocaml": manifest["ocaml"], "commit": commit,
            "source_sha256": h.hexdigest()[:16], "seed": seed}


def metric(v, unit):
    return {"value": v, "unit": unit}


# ---- untraced: end-to-end metrics ------------------------------------------

def end_to_end(args, flags, parallel_flags, requests, refs, run_args, n_routines, info):
    with one_cpu():
        setup = measure_setup(flags)
        # Whole passes while the next one still fits in --seconds; at least
        # MIN_PASSES and MIN_LATENCY_SAMPLES regardless.
        passes = []
        t_start = time.perf_counter()
        while (len(passes) < MIN_PASSES
               or time.perf_counter() - t_start + passes[-1]["wall"] <= args.seconds
               or sum(len(p["lat"]) for p in passes) < MIN_LATENCY_SAMPLES):
            passes.append(serve_pass(flags, requests))
            if passes[-1]["exit"] != 0 and passes[-1]["exit"] != 1:
                break

    attempted = failed = checked = 0
    notes, digests = [], set()
    for p in passes:
        c, f, n_in, n_out, _, why = check_pass(p["responses"], refs, run_args)
        checked += c
        failed += f
        attempted += n_routines
        notes += why
        p["ratio"] = n_out / n_in if n_in else float("nan")
        digests.add(digest(normalized(p["responses"])))
        if p["exit"] != 0:
            notes.append("server exit %d" % p["exit"])
    deterministic = len(digests) == 1
    if not deterministic:
        notes.append("response streams differ between passes")
    allocs = {p["alloc"] for p in passes}
    ratios = {p["ratio"] for p in passes}
    if len(allocs) != 1 or None in allocs:
        deterministic = False
        notes.append("allocated words differ between passes: %s" % sorted(map(str, allocs)))
    if len(ratios) != 1:
        deterministic = False
        notes.append("out_instrs_ratio differs between passes")
    if parallel_flags != flags:
        # The parallel service must answer exactly as the timed one-domain one.
        par = serve_pass(parallel_flags, requests)
        if digest(normalized(par["responses"])) not in digests or par["exit"] != 0:
            deterministic = False
            notes.append("%s responses differ from --jobs=1" % parallel_flags[0])
    if checked != attempted:
        notes.append("checked %d routines of %d sent" % (checked, attempted))

    lat_ms = [x * 1000.0 for p in passes for x in p["lat"]]
    p90 = quantile_hi(lat_ms, 0.9)
    info.update({
        "passes": len(passes), "latency_samples": len(lat_ms),
        "beyond_p90": sum(1 for x in lat_ms if x > p90), "routines_checked": checked,
        "routines_sent": attempted,
        "requests_sha256": digest(requests)[:16],
        "responses_sha256": sorted(digests)[0][:16], "deterministic": deterministic,
        "alloc_words": sorted(a for a in allocs if a is not None),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_cpu_s": [round(p["cpu"], 4) for p in passes],
        "notes": notes[:8],
    })
    metrics = {
        "setup_s": metric(setup, "s"),
        "throughput_rps": metric(statistics.median(n_routines / p["wall"] for p in passes),
                                 "routines/s"),
        "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "latency_p90_ms": metric(p90, "ms"),
        "cpu_s": metric(statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss"] for p in passes), "MB"),
        "alloc_mw": metric(statistics.median(p["alloc"] or 0 for p in passes) / 1e6, "Mwords"),
        "out_instrs_ratio": metric(passes[0]["ratio"], "ratio"),
    }
    info["failed_share"] = failed / attempted
    ok = failed == 0 and checked == attempted and deterministic and all(
        p["exit"] == 0 for p in passes)
    return ok, attempted, failed, metrics


# ---- traced: per-layer metrics ---------------------------------------------

def load_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            i, par, dom, name, act, t0, t1, alloc, major = line.rstrip("\n").split("\t")
            spans[int(i)] = {"parent": int(par), "domain": int(dom), "name": name,
                             "active": act == "1", "dur": float(t1) - float(t0),
                             "alloc": float(alloc), "major": float(major)}
    for s in spans.values():
        s["self"], s["self_alloc"] = s["dur"], s["alloc"]
    for s in spans.values():
        p = spans.get(s["parent"])
        if p is not None and p["domain"] == s["domain"]:
            p["self"] -= s["dur"]
            p["self_alloc"] -= s["alloc"]
    return spans


def slope(points):
    """Least-squares slope of log2(y) against log2(x)."""
    pts = [(math.log2(x), math.log2(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def per_layer(workdir, flags, requests, refs, run_args, n_routines, info):
    untraced = serve_pass(flags, requests)
    checked, failed, _, _, binary_opt, why = check_pass(untraced["responses"], refs, run_args)
    spans_f, opt_f, met_f = (os.path.join(workdir, n) for n in ("spans.tsv", "opt.bin", "met.tsv"))
    t0 = time.perf_counter()
    sb("replay", "--requests", os.path.join(workdir, "requests.bin"), "--flags", " ".join(flags),
       "--spans", spans_f, "--optimized", opt_f, "--metrics", met_f)
    replay_total = time.perf_counter() - t0
    replay_opt = [f.decode() for f in read_frames(opt_f)]
    # Requests the binary answered wrongly have failed already.
    mismatched = [i for i in range(len(refs)) if binary_opt[i] is not None
                  and (i >= len(replay_opt) or replay_opt[i] != binary_opt[i])]
    if mismatched:
        why.append("%d request(s) where the replay's optimized text differs" % len(mismatched))
    failed += sum(len(refs[i]) for i in mismatched)

    kv = {}
    rows = []
    with open(met_f) as f:
        for line in f:
            k, v = line.rstrip("\n").split("\t")
            if k.startswith("routine."):
                stmts, ssa_alloc, touches = v.split()
                rows.append((k[len("routine."):], int(stmts), float(ssa_alloc), int(touches)))
            else:
                kv[k] = float(v)
    spans = load_spans(spans_f)
    m = {}
    for layer in LAYERS:
        ss = [s for s in spans.values() if s["name"] == layer]
        m[layer + ".self_ms"] = metric(sum(s["self"] for s in ss) * 1000.0, "ms")
        m[layer + ".alloc_mw"] = metric(sum(s["self_alloc"] for s in ss) / 1e6, "Mwords")
        m[layer + ".calls"] = metric(sum(1 for s in ss if s["active"]), "count")
    m["ssa.construct.major_mw"] = metric(kv["ssa.construct.major_words"] / 1e6, "Mwords")
    m["ssa.construct.phis"] = metric(int(kv["ssa.construct.phis"]), "count")
    m["ssa.construct.blocks"] = metric(int(kv["ssa.construct.blocks"]), "count")
    for k in ("passes", "instrs_processed", "block_touches", "instr_touches", "table_probes"):
        m["pgvn.run." + k] = metric(int(kv["pgvn.run." + k]), "count")
    probes = kv["pgvn.run.table_probes"]
    m["pgvn.run.table_hit_ratio"] = metric(kv["pgvn.run.table_hits"] / probes if probes else 0.0,
                                           "ratio")
    m["transform.instrs_removed"] = metric(int(kv["transform.instrs_removed"]), "count")
    m["transform.gcm.moved"] = metric(int(kv["transform.gcm.moved"]), "count")
    m["transform.gcm.speculation_blocked"] = metric(
        int(kv["transform.gcm.speculation_blocked"]), "count")
    m["validate.certify.runs"] = metric(int(kv["validate.certify.runs"]), "count")
    lookups = kv["par.ccache.hits"] + kv["par.ccache.misses"]
    m["par.ccache.hit_ratio"] = metric(kv["par.ccache.hits"] / lookups if lookups else 0.0,
                                       "ratio")
    task = sum(s["dur"] for s in spans.values() if s["name"] == "routine")
    mapw = sum(s["dur"] for s in spans.values() if s["name"] == "par.pool.map")
    m["par.pool.busy_ratio"] = metric(task / (kv["jobs"] * mapw) if mapw else 0.0, "ratio")
    layer_set = set(LAYERS)
    m["trace.unattributed_ms"] = metric(
        sum(s["self"] for s in spans.values() if s["name"] not in layer_set) * 1000.0, "ms")
    m["trace.overhead_ratio"] = metric(kv["wall_s"] / untraced["wall"], "ratio")
    m["failed_share"] = metric(failed / n_routines, "ratio")
    for shape in SHAPES:
        pts = [r for r in rows if r[0].startswith(shape + "_n")]
        m["ssa.construct.alloc_exponent." + shape] = metric(
            slope([(r[1], r[2]) for r in pts]), "ratio")
        m["pgvn.run.touch_exponent." + shape] = metric(
            slope([(r[1], r[3]) for r in pts]), "ratio")

    total_self = sum(s["self"] for s in spans.values())
    info.update({
        "routines_checked": checked, "routines_sent": n_routines,
        "replay_mismatches": len(mismatched), "replay_wall_s": round(kv["wall_s"], 4),
        "replay_process_s": round(replay_total, 4), "untraced_wall_s": round(untraced["wall"], 4),
        "shares": {l: round(sum(s["self"] for s in spans.values() if s["name"] == l)
                            / total_self, 4) for l in LAYERS},
        "notes": why[:8],
    })
    ok = failed == 0 and checked == n_routines and untraced["exit"] == 0
    return ok, n_routines, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["suite-serve", "chain-ladder", "certified-edit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: perturb one reference result; the run must fail")
    args = ap.parse_args()

    build()
    workdir = os.path.join(BUILD_DIR, "servebench-work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        sb("gen", "--workload", args.workload, "--seed", str(args.seed), "--dir", workdir)
        with open(os.path.join(workdir, "manifest.json")) as f:
            manifest = json.load(f)
        flags, run_args = manifest["flags"], manifest["run_args"]
        requests = read_frames(os.path.join(workdir, "requests.bin"))
        sb("ref", "--requests", os.path.join(workdir, "requests.bin"),
           "--run", ",".join(str(a) for a in run_args), "--out", os.path.join(workdir, "ref.jsonl"))
        with open(os.path.join(workdir, "ref.jsonl")) as f:
            refs = [json.loads(line) for line in f]
        if len(refs) != len(requests):
            die("reference count differs from the request count")
        if args.corrupt_reference:
            name, res = refs[0][0]
            refs[0][0] = [name, "ret 1" if res != "ret 1" else "ret 2"]
        n_routines = sum(len(r) for r in refs)
        info = {"workload": args.workload, "host": host(args.seed, manifest),
                "flags": manifest["parallel_flags"] if args.trace else flags,
                "traps_expected": sum(1 for r in refs for _, x in r if x == "trap")}
        if args.trace:
            ok, attempted, failed, metrics = per_layer(workdir, manifest["parallel_flags"],
                                                       requests, refs, run_args, n_routines, info)
        else:
            ok, attempted, failed, metrics = end_to_end(args, flags, manifest["parallel_flags"],
                                                        requests, refs, run_args, n_routines, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

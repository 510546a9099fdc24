#!/usr/bin/env python3
"""lfpbench: repetitions, aggregation, correctness, comparison.

Every repetition of a workload runs as its own process (the lfpbench
binary), so each starts with a fresh VmHWM and fresh allocation counters.
This script collects each repetition's JSON report, checks correctness
(every check passed, census digests pinned or agreeing across
repetitions), and reports each metric's median, quartiles and sample
count. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Run it through run.sh, which builds the binaries first; see README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"
PINNED = HERE / "pinned.json"
WORKLOADS = ["census-spill", "census-retry", "census-loopback", "serve-socket"]
# A repetition normally takes under 10 s; a stuck one is killed in time for
# the whole run to end within 3 minutes.
CHILD_TIMEOUT_S = 120
# A repetition that fails only a measurement-validity check (the workload
# did not run as designed, e.g. a late open-loop generator) is repeated at
# most this many times per run before the run counts as failed.
MAX_DISCARDED = 3


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(samples, unit):
    q1, median, q3 = quartiles(samples)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples), "unit": unit,
            "samples": samples}


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def become_subreaper():
    """Orphaned grandchildren (a daemon whose parent was killed) are
    re-parented to this process, so it can reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_orphans():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


class ChildFailed(Exception):
    pass


def run_child(args, workload, trace_file, work_dir):
    command = [args.bin, "--workload", workload, "--seed", str(args.seed)]
    if workload == "serve-socket":
        command += ["--serve-bin", args.serve_bin]
    if args.smoke:
        command.append("--smoke")
    if trace_file:
        command += ["--trace-file", str(trace_file)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("LFP_")}
    env["TMPDIR"] = str(work_dir)
    with subprocess.Popen(command, cwd=work_dir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            reap_orphans()
            raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the child left running
        except ProcessLookupError:
            pass
    reap_orphans()
    lines = out.strip().splitlines()
    try:
        if proc.returncode in (0, 1) and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise ChildFailed(f"{workload}: exit {proc.returncode}: {err.strip()[-400:]}")


def failed_checks(report, kind):
    return [c for c in report["checks"] if c.get("kind") == kind and not c["ok"]]


def run_workload(args, workload, trace):
    """Runs repetitions of one workload. With --reps: that many untraced
    ones, then one traced one when tracing. With --seconds: repetitions
    until the next one would overrun the time, at least one of each kind;
    traced and untraced ones alternate so trace.overhead compares
    repetitions taken under the same conditions."""
    work_dir = Path(args.work_dir) / workload
    work_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced, problems, durations = [], [], [], []
    discarded = 0
    started = time.monotonic()

    def next_kind():
        if args.reps is not None:
            if len(untraced) < args.reps:
                return "untraced"
            return "traced" if trace and not traced else None
        kind = "traced" if trace and len(traced) <= len(untraced) else "untraced"
        if not untraced or (trace and not traced):
            return kind
        elapsed = time.monotonic() - started
        return kind if elapsed + statistics.median(durations) <= args.seconds else None

    while (kind := next_kind()) is not None:
        trace_file = work_dir / f"trace-{len(traced)}.json" if kind == "traced" else None
        begin = time.monotonic()
        try:
            report = run_child(args, workload, trace_file, work_dir)
        except ChildFailed as error:
            problems.append(str(error))
            break
        durations.append(time.monotonic() - begin)
        wrong = failed_checks(report, "correct")
        invalid = failed_checks(report, "valid")
        if wrong:
            problems += [f"{workload}: {c['name']}: {c['detail']}" for c in wrong]
            break
        if invalid:
            discarded += 1
            if discarded > MAX_DISCARDED:
                problems += [f"{workload}: invalid repetition: {c['name']}: {c['detail']}"
                             for c in invalid]
                break
            continue
        (traced if kind == "traced" else untraced).append(report)
    return untraced, traced, problems, discarded


def digest_problems(workload, reports, seed, pinned):
    digests = sorted({r["digest"] for r in reports if r["digest"]})
    if not digests:
        return []
    if len(digests) > 1:
        return [f"{workload}: digests differ across repetitions: {digests}"]
    sizes = {r["size"] for r in reports}
    expected = pinned.get(workload, {}).get(str(sizes.pop())) if len(sizes) == 1 else None
    if seed == 7 and expected and digests[0] != expected:
        return [f"{workload}: digest {digests[0]} != pinned {expected} (seed 7)"]
    return []


def provenance(args, sizes):
    info = json.loads(subprocess.run([args.bin, "--provenance"], check=True,
                                     capture_output=True, text=True).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": args.seed, "sizes": sizes, "smoke": args.smoke, "reps": args.reps,
            "seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
            "kernel": platform.release(), "cpu": cpu, "gso": info["gso"], "gro": info["gro"],
            "build_type": info["build_type"], "git_rev": args.git_rev}


def print_table(workload, title, summary):
    print(f"\n{workload} — {title}")
    for name, s in summary.items():
        print(f"  {name:34s} {s['median']:>16.6g} {s['unit']:<10s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")


def run(args):
    spec = load_json(BENCHMARK)
    pinned = load_json(PINNED) if PINNED.exists() else {}
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [args.workload] if args.workload else WORKLOADS
    become_subreaper()

    result = {"workloads": {}, "correct": True, "attempted": 0, "failed": 0}
    sizes = {}
    problems = []
    for workload in workloads:
        untraced, traced, issues, discarded = run_workload(args, workload, bool(args.trace))
        problems += issues
        reports = untraced + traced
        problems += digest_problems(workload, reports, args.seed, pinned)
        if not untraced or (args.trace and not traced):
            problems.append(f"{workload}: no valid repetition")
        entry = {"reps": len(untraced), "traced_reps": len(traced), "discarded": discarded,
                 "digests": sorted({r["digest"] for r in reports if r["digest"]})}
        if reports:
            sizes[workload] = reports[0]["size"]
        result["attempted"] += sum(r["attempted"] for r in reports)
        result["failed"] += sum(r["failed"] for r in reports)
        if untraced:
            entry["metrics"] = {name: summarize([r["metrics"][name] for r in untraced], unit)
                                for name, unit in e2e_units.items()}
        if traced:
            layers = {}
            for name, unit in layer_units.items():
                if name == "trace.overhead":
                    continue
                # A layer the workload does not exercise reads 0.
                layers[name] = summarize([r["layers"].get(name, 0.0) for r in traced], unit)
            if untraced:
                ratio = (statistics.median(r["metrics"]["ops_per_s"] for r in untraced) /
                         statistics.median(r["metrics"]["ops_per_s"] for r in traced))
                layers["trace.overhead"] = summarize([ratio], layer_units["trace.overhead"])
            entry["layers"] = layers
            entry["trace_files"] = [str(Path(args.work_dir) / workload / f"trace-{i}.json")
                                    for i in range(len(traced))]
        result["workloads"][workload] = entry

    result["correct"] = not problems and result["failed"] == 0
    result["problems"] = problems
    result["provenance"] = provenance(args, sizes)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")

    for workload, entry in result["workloads"].items():
        if "metrics" in entry:
            print_table(workload, f"end to end, {entry['reps']} repetitions", entry["metrics"])
        if "layers" in entry:
            print_table(workload, "per layer, traced", entry["layers"])
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    show_layers = bool(args.trace) and args.workload is not None
    metrics = {}
    for workload, entry in result["workloads"].items():
        summary = entry.get("layers" if show_layers else "metrics", {})
        for name, s in summary.items():
            key = name if args.workload else f"{workload}/{name}"
            metrics[key] = {"value": s["median"], "unit": s["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def merged(paths):
    """One side of a comparison: result files whose repetitions pool."""
    files = [load_json(p) for p in paths]
    keys = ("seed", "sizes", "smoke", "nproc", "kernel", "cpu")
    first = files[0]["provenance"]
    for other in files[1:]:
        if any(other["provenance"][k] != first[k] for k in keys):
            raise SystemExit(f"compare: {paths} mix different seeds, sizes or machines")
    pooled, digests = {}, {}
    for f in files:
        for workload, entry in f["workloads"].items():
            digests.setdefault(workload, set()).update(entry["digests"])
            for name, s in entry.get("metrics", {}).items():
                pooled.setdefault(workload, {}).setdefault(name, []).extend(s["samples"])
    return first, pooled, digests


def compare(args):
    """Applies BENCHMARK.json's bounds to every (workload, end-to-end metric)
    pair: B's median may be worse than A's by at most the bound; where A's
    own quartile spread exceeds the bound the pair is unresolved, unless
    every B sample is better than every A sample. Census digests must match."""
    spec = load_json(BENCHMARK)
    base_info, base, base_digests = merged(args.baseline.split(","))
    cand_info, cand, cand_digests = merged(args.candidate.split(","))
    for key in ("seed", "sizes", "smoke", "nproc", "kernel", "cpu"):
        if base_info[key] != cand_info[key]:
            print(f"compare: refusing: {key} differs ({base_info[key]!r} vs {cand_info[key]!r})")
            return 2
    regressions = 0
    for workload in [w for w in WORKLOADS if w in base and w in cand]:
        cells = []
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a, b = base[workload].get(name), cand[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse_by = change if lower else -change
            b_always_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if spread(a) > bound and not b_always_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "WORSE"
                regressions += 1
            else:
                verdict = "ok"
            cells.append(f"{name} {change:+.1%} {verdict}")
        if base_digests[workload] != cand_digests[workload]:
            cells.append(f"DIGESTS DIFFER {sorted(base_digests[workload])} vs "
                         f"{sorted(cand_digests[workload])}")
            regressions += 1
        print(f"{workload}: " + "; ".join(cells))
    return 1 if regressions else 0


def selftest(args):
    ok = True

    def expect(passed, what):
        nonlocal ok
        print(f"selftest {'PASS' if passed else 'FAIL'}: {what}", file=sys.stderr)
        ok = ok and passed

    expect(quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 4.5, 6.75)
           and quartiles([5]) == (5, 5, 5)
           and abs(spread([90, 100, 110, 100]) - 0.15) < 1e-12,
           "quartile helpers on known vectors")

    work_dir = Path(args.work_dir) / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_file = work_dir / "selftest.trace.json"
    child = subprocess.run([args.bin, "--selftest", "--trace-file", str(trace_file)],
                           cwd=work_dir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(child.stderr)
    expect(child.returncode == 0, "binary selftest (percentiles, 2k-target loopback digest)")

    try:
        events = load_json(trace_file)["traceEvents"]
        by_id = {e["args"]["id"]: e for e in events}
        balanced = bool(events) and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        for e in events:
            parent = by_id.get(e["args"]["parent"])
            if parent is not None and parent["tid"] == e["tid"]:
                balanced = balanced and (parent["ts"] <= e["ts"] and
                                         e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + 1e-3)
        expect(balanced, f"trace JSON parses with balanced spans ({len(events)} spans)")
    except (OSError, ValueError, KeyError) as error:
        expect(False, f"trace JSON parses with balanced spans: {error}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", help="the lfpbench binary (run.sh passes it)")
    parser.add_argument("--serve-bin", help="the lfp_serve binary (run.sh passes it)")
    parser.add_argument("--work-dir", help="scratch directory for repetitions")
    parser.add_argument("--git-rev", default="unknown")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, help="untraced repetitions per workload")
    parser.add_argument("--seconds", type=float, help="run repetitions for this long instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced repetition and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="1/10 sizes, one repetition")
    parser.add_argument("--out", help="write the full result (for compare) here")
    parser.add_argument("--selftest", action="store_true")
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        compare_parser = argparse.ArgumentParser(prog="lfpbench compare")
        compare_parser.add_argument("baseline", help="result file(s), comma-separated")
        compare_parser.add_argument("candidate", help="result file(s), comma-separated")
        return compare(compare_parser.parse_args(sys.argv[2:]))
    args = parser.parse_args()
    if not (args.bin and args.serve_bin and args.work_dir):
        parser.error("run through run.sh, which passes --bin, --serve-bin and --work-dir")
    if args.selftest:
        return selftest(args)
    if args.reps is None and args.seconds is None:
        args.reps = 1 if args.smoke else 3
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

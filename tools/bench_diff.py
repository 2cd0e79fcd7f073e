#!/usr/bin/env python3
"""Compares perfbench runs of a parent commit and of a change.

Each input file holds the stdout of one `perfbench/run.py` run: its
`perfbench-report {...}` line names the workload and its last line is the
result object `{"correct", "attempted", "failed", "metrics"}`. Give the runs
in the order they were taken, parent and change alternating:

    python3 tools/bench_diff.py --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ... [--claim wiki_extract:latency_p50_ms]

Runs pair up per workload in order (the i-th parent run of a workload with
its i-th change run). For every workload it prints each side's median
`attempted` (requests completed in a run), against which a move in a
request-count-driven metric such as peak_rss_mb can be read; it bears on
no verdict. For every end-to-end metric of BENCHMARK.json it prints the
parent and change medians with their quartiles, the relative change, and
the pairs the change won. The verdict fails when

  * a median is worse than the parent's by more than the metric's bound,
  * the change fails a larger share of requests than the parent, or
  * a claimed metric (--claim workload:metric) is not better in at least
    nine of ten pairs, or its medians differ by no more than the parent's
    interquartile range.

--entry "<summary>" also prints the `change` and `workloads` fields of a
BENCH_perfbench.json entry (see docs/BENCH_SCHEMA.md). BENCHMARK.json is
only read.

The paired mode reads the paper benches' JSON instead, N alternating runs
per side of BENCH_workloads.json and BENCH_table2_scaleup.json (any mix):

    python3 tools/bench_diff.py --json-parent p1/BENCH_workloads.json ... \
        --json-change c1/BENCH_workloads.json ...

It matches entries by name and prints, for every warm key (warm_wall_s,
warm_resident_wall_s and the phase keys of a table2 query entry, p50_ms of
a warm bench_workloads entry), each side's median and min..max. It is
display only: it gives no verdict and exits 0 on readable input.

--self-test checks the tool on synthetic runs; CI runs it. Exit status:
0 pass, 1 fail, 2 bad input.
"""

import argparse
import io
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_PREFIX = "perfbench-report "
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WIN_SHARE = 0.9  # share of pairs a claimed metric must win
# Warm keys of a bench_table2_scaleup query entry, in print order.
TABLE2_WARM_KEYS = ("warm_wall_s", "warm_resident_wall_s", "normalize_s",
                    "dpli_s", "load_article_s", "gsp_s", "extract_s",
                    "satisfying_s")


class InputError(Exception):
    pass


def load_bounds(path):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def parse_run(path):
    """Returns (workload, result object) of one run.py output file."""
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    workload = None
    for line in lines:
        if line.startswith(REPORT_PREFIX):
            workload = json.loads(line[len(REPORT_PREFIX):]).get("workload")
    if not lines or workload is None:
        raise InputError(f"{path}: no perfbench-report line")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise InputError(f"{path}: last line is not a result object")
    return workload, result


def group(paths):
    runs = {}
    for path in paths:
        workload, result = parse_run(path)
        runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(metric, a, b):
    """True when value a is strictly better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def attempted_line(parents, changes):
    """Each side's median request count, for reading peak_rss_mb against."""
    p = statistics.median(r["attempted"] for r in parents)
    c = statistics.median(r["attempted"] for r in changes)
    delta = (c - p) / p if p else 0.0
    return f"  {'attempted (median)':<26} {p:>11.0f} -> {c:>11.0f} {delta:+7.1%}"


def compare(parent_runs, change_runs, bounds, claims):
    """Prints the comparison; returns (passed, medians per workload)."""
    passed = True
    medians = {}
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parents = parent_runs.get(workload, [])
        changes = change_runs.get(workload, [])
        if not parents or not changes:
            print(f"{workload}: runs on one side only")
            passed = False
            continue
        pairs = min(len(parents), len(changes))
        print(f"{workload}: {len(parents)} parent, {len(changes)} change runs")
        print(attempted_line(parents, changes))
        medians[workload] = {"parent": {}, "change": {}}
        for name, metric in bounds.items():
            p = [r["metrics"][name]["value"] for r in parents]
            c = [r["metrics"][name]["value"] for r in changes]
            p_med, c_med = statistics.median(p), statistics.median(c)
            medians[workload]["parent"][name] = round(p_med, 4)
            medians[workload]["change"][name] = round(c_med, 4)
            p_q1, p_q3 = quartiles(p)
            c_q1, c_q3 = quartiles(c)
            won = sum(better(metric, c[i], p[i]) for i in range(pairs))
            delta = (c_med - p_med) / p_med if p_med else 0.0
            worse = better(metric, p_med, c_med) and abs(delta) > metric["bound"]
            verdict = f"WORSE than bound {metric['bound']:.0%}" if worse else "ok"
            if (workload, name) in claims:
                gain = (won >= WIN_SHARE * pairs and better(metric, c_med, p_med)
                        and abs(c_med - p_med) > p_q3 - p_q1)
                verdict += "; claim " + ("holds" if gain else "FAILS")
                passed = passed and gain
            passed = passed and not worse
            print(f"  {name:<26} {p_med:>11.4f} [{p_q1:.4f}, {p_q3:.4f}]"
                  f" -> {c_med:>11.4f} [{c_q1:.4f}, {c_q3:.4f}]"
                  f" {delta:+7.1%}  won {won}/{pairs}  {verdict}")
        p_fail, c_fail = failed_share(parents), failed_share(changes)
        wrong = any(not r["correct"] for r in changes)
        if c_fail > p_fail or wrong:
            print(f"  failed share {p_fail:.4%} -> {c_fail:.4%}"
                  f"{', wrong rows' if wrong else ''}: FAIL")
            passed = False
    for workload, name in sorted(claims):
        if workload not in medians:
            print(f"claim {workload}:{name}: no runs of that workload")
            passed = False
    return passed, medians


def load_bench(path):
    """Returns (bench name, {entry name: values}) of one BENCH_*.json."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        entries = {e["name"]: e["values"] for e in doc["entries"]}
        return doc["bench"], entries
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: not a bench JSON file ({e})") from e


def warm_keys(values):
    """The warm keys of one bench entry, in print order."""
    if values.get("phase") == "warm" and "p50_ms" in values:
        return ["p50_ms"]
    return [k for k in TABLE2_WARM_KEYS if k in values]


def span_line(label, p, c):
    """One paired-mode line: each side's median [min..max] and the change."""
    p_med, c_med = statistics.median(p), statistics.median(c)
    delta = (c_med - p_med) / p_med if p_med else 0.0
    return (f"  {label:<52} {p_med:>9.4f} [{min(p):.4f}..{max(p):.4f}] ->"
            f" {c_med:>9.4f} [{min(c):.4f}..{max(c):.4f}] {delta:+7.1%}")


def paired(parent_paths, change_paths):
    """Prints each side's median and min..max of every warm key, in ms."""
    sides = ({}, {})
    for runs, paths in zip(sides, (parent_paths, change_paths)):
        for path in paths:
            bench, entries = load_bench(path)
            runs.setdefault(bench, []).append(entries)
    parent_runs, change_runs = sides
    for bench in sorted(set(parent_runs) | set(change_runs)):
        parents = parent_runs.get(bench, [])
        changes = change_runs.get(bench, [])
        if not parents or not changes:
            print(f"{bench}: runs on one side only")
            continue
        print(f"{bench}: {len(parents)} parent, {len(changes)} change runs "
              "(ms, median [min..max], display only)")
        for name, values in parents[0].items():
            for key in warm_keys(values):
                # Seconds keys print in milliseconds, like p50_ms.
                scale = 1000.0 if key.endswith("_s") else 1.0
                p = [run[name][key] * scale for run in parents
                     if key in run.get(name, {})]
                c = [run[name][key] * scale for run in changes
                     if key in run.get(name, {})]
                if c:
                    print(span_line(f"{name} {key}", p, c))


def parse_claims(specs, bounds):
    claims = set()
    for spec in specs:
        workload, _, name = spec.partition(":")
        if name not in bounds:
            raise InputError(f"--claim {spec}: not workload:end_to_end_metric")
        claims.add((workload, name))
    return claims


def fake_run(directory, label, workload, metrics, attempted=100, failed=0):
    path = os.path.join(directory, f"{label}.txt")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{workload} seed=1 trace=0: summary\n")
        f.write(REPORT_PREFIX + json.dumps({"workload": workload}) + "\n")
        f.write(json.dumps(result) + "\n")
    return path


def fake_bench(directory, label, bench, entries):
    path = os.path.join(directory, f"{label}.json")
    doc = {"bench": bench, "meta": {},
           "entries": [{"name": n, "values": v} for n, v in entries.items()]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def paired_self_test(directory):
    """Checks the paired mode's lines on synthetic bench JSON."""
    def workloads(p50):
        return {"inprocess/closed/cold/fig3_cafe": {"phase": "cold", "p50_ms": 9.0},
                "inprocess/closed/warm/fig3_cafe": {"phase": "warm", "p50_ms": p50}}

    def table2(wall):
        return {"build/K=2": {"shards": 2, "build_s": 1.0},
                "DateOfBirth/4000": {"warm_wall_s": wall, "dpli_s": 0.5}}

    parents = [fake_bench(directory, f"pw{i}", "workloads", workloads(v))
               for i, v in enumerate([1.0, 2.0, 3.0])]
    parents += [fake_bench(directory, f"pt{i}", "table2_scaleup", table2(v))
                for i, v in enumerate([2.0, 1.0, 3.0])]
    changes = [fake_bench(directory, f"cw{i}", "workloads", workloads(v))
               for i, v in enumerate([0.5, 1.0, 4.0])]
    changes += [fake_bench(directory, f"ct{i}", "table2_scaleup", table2(v))
                for i, v in enumerate([1.0, 1.5, 0.5])]
    buffer = io.StringIO()
    stdout, sys.stdout = sys.stdout, buffer
    try:
        paired(parents, changes)
    finally:
        sys.stdout = stdout
    out = buffer.getvalue()
    checks = [
        ("a warm p50 shows both medians and ranges",
         span_line("inprocess/closed/warm/fig3_cafe p50_ms", [1, 2, 3],
                   [0.5, 1, 4]) in out),
        ("a table2 warm key and phase key show in ms, a build key does not",
         span_line("DateOfBirth/4000 warm_wall_s", [2000, 1000, 3000],
                   [1000, 1500, 500]) in out
         and "DateOfBirth/4000 dpli_s" in out and "build_s" not in out),
        ("cold entries and verdicts stay out",
         "cold/fig3_cafe" not in out and "verdict" not in out.lower()
         and "PASS" not in out and "FAIL" not in out),
    ]
    ok = True
    for name, held in checks:
        print(f"self-test: paired: {name}: {'ok' if held else 'WRONG'}")
        ok = ok and held
    return ok


def self_test(bounds):
    """Checks the verdicts on synthetic runs; returns True when all hold."""
    base = {name: 10.0 for name in bounds}

    def runs(directory, label, workload, values, **fields):
        return [fake_run(directory, f"{label}{i}", workload,
                         {**base, **{k: v[i] for k, v in values.items()}},
                         **fields)
                for i in range(len(next(iter(values.values()))))]

    p50 = "latency_p50_ms"
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [v * 0.6 for v in parent]
    slower = [v * 1.4 for v in parent]
    mixed = [v * (0.7 if i < 5 else 1.1) for i, v in enumerate(parent)]
    cases = [
        ("a clear win holds its claim", faster, {}, True),
        ("a regression beyond the bound fails", slower, {}, False),
        ("a win in half the pairs does not carry a claim", mixed, {}, False),
        ("a rise in failed requests fails", parent, {"failed": 3}, False),
    ]
    ok = True
    with tempfile.TemporaryDirectory() as directory:
        p = runs(directory, "p", "wiki_extract", {p50: parent})
        for name, change, fields, want in cases:
            c = runs(directory, "c", "wiki_extract", {p50: change}, **fields)
            with open(os.devnull, "w", encoding="utf-8") as sink:
                stdout, sys.stdout = sys.stdout, sink
                try:
                    got, _ = compare(group(p), group(c), bounds,
                                     {("wiki_extract", p50)})
                finally:
                    sys.stdout = stdout
            print(f"self-test: {name}: {'ok' if got == want else 'WRONG'}")
            ok = ok and got == want
        # The attempted line shows each side's median request count and
        # leaves the verdict alone.
        c = runs(directory, "c", "wiki_extract", {p50: parent}, attempted=150)
        buffer = io.StringIO()
        stdout, sys.stdout = sys.stdout, buffer
        try:
            got, _ = compare(group(p), group(c), bounds, set())
        finally:
            sys.stdout = stdout
        shown = "100 ->         150  +50.0%" in buffer.getvalue()
        name = "the attempted line shows both medians and no verdict"
        print(f"self-test: {name}: {'ok' if shown and got else 'WRONG'}")
        ok = ok and shown and got
        ok = paired_self_test(directory) and ok
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--claim", action="append", default=[],
                        help="workload:metric the change claims to improve")
    parser.add_argument("--entry", help="print the change and workloads "
                        "fields of a BENCH_perfbench.json entry")
    parser.add_argument("--json-parent", nargs="+", default=[],
                        help="parent runs' BENCH_workloads.json / "
                        "BENCH_table2_scaleup.json (paired mode)")
    parser.add_argument("--json-change", nargs="+", default=[],
                        help="change runs' bench JSON (paired mode)")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    bounds = load_bounds(args.benchmark)
    if args.self_test:
        return 0 if self_test(bounds) else 1
    if args.json_parent or args.json_change:
        if not args.json_parent or not args.json_change:
            parser.error("--json-parent and --json-change runs are required")
        try:
            paired(args.json_parent, args.json_change)
        except InputError as e:
            print(f"bench_diff: {e}", file=sys.stderr)
            return 2
        return 0
    if not args.parent or not args.change:
        parser.error("--parent and --change runs are required")
    try:
        claims = parse_claims(args.claim, bounds)
        passed, medians = compare(group(args.parent), group(args.change),
                                  bounds, claims)
    except InputError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    print(f"verdict: {'PASS' if passed else 'FAIL'}")
    if args.entry:
        print(json.dumps({"change": args.entry, "workloads": medians}, indent=2))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

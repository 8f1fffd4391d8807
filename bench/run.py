#!/usr/bin/env python3
"""Benchmark of gaussorbits: three workloads, each with checked outputs.

    python3 bench/run.py [--workload scan-wide|classify-mix|cli-verify|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; the package is imported from the `src` directory
next to this one.  An untraced run (--trace 0) prints the end-to-end
metrics; a traced run (--trace 1) wraps the layer functions (see
tracer.py) and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the same object and any spans are
written under bench/out/.  The exit code is 0 when every output passed
its checks.  See bench/README.md for what each workload does and why.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from math import gcd
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "gaussorbits" / "data"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import scan_child  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("scan-wide", "classify-mix", "cli-verify")
# Every untraced run reports each of these; see README.md for their
# meaning on each workload.
END_TO_END = ("setup_s", "throughput_per_s", "op_p50_ms", "peak_rss_mb")
CHILD_TIMEOUT_S = 170

# classify-mix: every family of pairs.dat at ranks up to MIX_MAX_RANK, with
# MIX_N_VALUES values of n from each family's n_min; requests come in
# rounds of MIX_ROUND, each H one of MIX_KINDS with equal shares.
MIX_MAX_RANK = 8
MIX_N_VALUES = 4
MIX_ROUND = 1000
MIX_KINDS = ("root", "regular", "wall")
MIX_MAX_COEFF = 6
MIX_MAX_SCALE = 9
# Repeats of (pair, folded ray) are counted over this many first requests,
# so the harness's memory does not grow with the run.
MIX_REPEAT_WINDOW = 20_000


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Result:
    """What one workload run reports."""

    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.layers: dict[str, float] = {}


# ---------------------------------------------------------------------------
# scan-wide


def run_scan_child(spans_path: str | None) -> dict:
    cmd = [sys.executable, str(BENCH / "scan_child.py"), str(SRC), spans_path or "-"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"scan child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_scan_wide(args, res: Result, pairs, table1) -> None:
    def checked(out):
        res.attempted += 1
        res.problems += checks.check_scan_csv(out["csv"], pairs, table1,
                                              scan_child.P_RANGE, scan_child.N_RANGE)
        return out["csv"].count("\n") - 1

    if args.trace:
        plain = run_scan_child(None)
        checked(plain)
        traced = run_scan_child(str(OUT / f"trace-scan-wide-seed{args.seed}.jsonl"))
        checked(traced)
        res.layers = traced["layers"]
        res.layers["trace.overhead_s"] = traced["scan_s"] - plain["scan_s"]
        return
    setups, scans, rows = [], [], 0
    start = time.perf_counter()
    while not scans or time.perf_counter() - start < args.seconds:
        out = run_scan_child(None)
        rows = checked(out)
        setups.append(out["setup_s"])
        scans.append(out["scan_s"])
    res.metrics["setup_s"] = (statistics.median(setups), "s")
    res.metrics["throughput_per_s"] = (rows / statistics.median(scans), "1/s")
    res.metrics["op_p50_ms"] = (1000 * statistics.median(scans), "ms")
    res.metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    res.notes.append(f"scans {len(scans)}, rows per scan {rows}, "
                     f"scan_rows_per_s {rows / statistics.median(scans):.2f}")


# ---------------------------------------------------------------------------
# classify-mix


class MixPair:
    """One instantiated pair of the mix, with the benchmark's own root data."""

    def __init__(self, pair, rec, p, n, oracle, coweights):
        self.pair = pair
        self.oracle = oracle
        self.rank = len(coweights)
        self.mult = checks.class_multiplicities(rec, p, n)
        self.regular_l = checks.eval_int(rec["dim_m"], p, n) - self.rank
        self.coweights = coweights
        self.dominant = {c: oracle.dominant_root(c) for c in sorted(set(oracle.root_class))}
        self.expected: dict[tuple, tuple] = {}


def mix_setup(pairs) -> list[MixPair]:
    from gaussorbits import pairdb

    db = pairdb.load_database()
    oracles: dict = {}
    entries = []
    for rec in pairs:
        family = db.get(rec["key"])
        n_values = None
        if rec["n"]:
            n_values = (rec["n"][0], rec["n"][0] + MIX_N_VALUES - 1)
        for p, n in checks.instantiations(rec, (2, MIX_MAX_RANK), n_values or (0, 0)):
            pair = family.instantiate(p=p, n=n)
            system = pair.system()
            key = (rec["family"], checks.rank_of(rec, p))
            if key not in oracles:
                coweights = [checks.scaled_to_integers(w.coords)
                             for w in system.fundamental_coweights()]
                oracle = checks.SystemOracle(
                    rec["family"],
                    [v.coords for v in system.positive_roots],
                    [a.coords for a in system.simple_roots],
                )
                # Bases built from the coweights are dominant only if the
                # coweights pair with the simple roots as a positive diagonal.
                for i, w in enumerate(coweights):
                    pairing = [checks.dot(w, a) for a in oracle.simple]
                    if pairing[i] <= 0 or any(x for j, x in enumerate(pairing) if j != i):
                        raise RuntimeError(f"{key}: coweight {i} is not dual to the simple roots")
                oracles[key] = (oracle, coweights)
            entries.append(MixPair(pair, rec, p, n, *oracles[key]))
    return entries


def reflect_ray(v: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    """A positive multiple of the reflection of v in the hyperplane of a."""
    aa = checks.dot(a, a)
    va = 2 * checks.dot(v, a)
    w = [aa * x - va * y for x, y in zip(v, a)]
    g = gcd(*w)
    return tuple(x // g for x in w)


def make_round(rng: random.Random, entries: list[MixPair]):
    """MIX_ROUND requests: (entry, kind, expected folded ray, H)."""
    from gaussorbits.rootsys import RootVec

    out = []
    for _ in range(MIX_ROUND):
        entry = rng.choice(entries)
        kind = MIX_KINDS[rng.randrange(len(MIX_KINDS))]
        if kind == "root":
            base = entry.dominant[rng.choice(sorted(entry.dominant))]
        else:
            coeffs = [rng.randint(1, MIX_MAX_COEFF) for _ in range(entry.rank)]
            if kind == "wall":
                coeffs[rng.randrange(entry.rank)] = 0
            base = [sum(c * x for c, x in zip(coeffs, column))
                    for column in zip(*entry.coweights)]
        ray = checks.primitive(base)
        v = ray
        for _ in range(rng.randint(entry.rank, 3 * entry.rank)):
            v = reflect_ray(v, rng.choice(entry.oracle.simple))
        scale = rng.randint(1, MIX_MAX_SCALE)
        out.append((entry, kind, ray, RootVec([scale * x for x in v])))
    return out


def check_mix(requests, reports, res: Result, seen: set | None) -> int:
    """Check one round's reports.

    Returns how many repeat an earlier (pair, folded ray) recorded in seen;
    seen is None once the run is past the repeat-count window.
    """
    repeats = 0
    for (entry, kind, ray, _), rep in zip(requests, reports):
        if rep is None:
            continue
        if seen is not None:
            key = (id(entry), ray)
            repeats += key in seen
            seen.add(key)
        if kind == "regular":
            nullity, bound = entry.oracle.line(ray, entry.mult)
            want = (entry.regular_l, nullity, bound)
        elif kind == "root":
            want = entry.expected.get(ray)
            if want is None:
                want = entry.expected[ray] = entry.oracle.expectation(ray, entry.mult)
        else:
            want = entry.oracle.expectation(ray, entry.mult)
        got = {"pair": rep.pair, "H": tuple(int(c) for c in rep.H.coords), "l": rep.l,
               "r": rep.r, "nullity": rep.nullity, "degenerate": rep.degenerate}
        res.problems += checks.check_report(got, ray, *want)
    return repeats


def run_classify_mix(args, res: Result, pairs) -> None:
    start = time.perf_counter()
    modules = tracing.layer_modules()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("classify-mix")
        tracer.install(modules)
    rng = random.Random(args.seed)
    entries = mix_setup(pairs)
    requests = make_round(rng, entries)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    classify = modules["orbits"].classify

    clock = time.perf_counter
    latencies = {False: array("d"), True: array("d")}
    seen: set = set()
    repeats = rounds = 0
    # A traced run needs a warm-up round, a traced one and an untraced one.
    min_rounds = 3 if tracer is not None else 1
    phase = clock()
    while rounds < min_rounds or clock() - phase < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(modules)
            classify = modules["orbits"].classify
        # In a traced run the first round only warms the caches.
        lat = latencies[traced] if rounds or tracer is None else array("d")
        reports = []
        for entry, _, _, H in requests:
            res.attempted += 1
            t0 = clock()
            try:
                rep = classify(entry.pair, H)
            except Exception as exc:  # a failed request is counted, not fatal
                res.failed += 1
                res.problems.append(f"{entry.pair.label()} H={H!r}: {exc!r}")
                rep = None
            lat.append(clock() - t0)
            reports.append(rep)
        if traced:
            tracer.remove()
            classify = modules["orbits"].classify
        window = seen if rounds * MIX_ROUND < MIX_REPEAT_WINDOW else None
        repeats += check_mix(requests, reports, res, window)
        rounds += 1
        requests = make_round(rng, entries)

    if tracer is not None:
        tracer.write_spans(OUT / f"trace-classify-mix-seed{args.seed}.jsonl")
        res.layers = tracer.aggregates()
        res.layers["trace.overhead_s"] = (statistics.fmean(latencies[True])
                                          - statistics.fmean(latencies[False]))
        return
    lat = latencies[False]
    res.metrics["setup_s"] = (setup_s, "s")
    res.metrics["throughput_per_s"] = (len(lat) / sum(lat), "1/s")
    res.metrics["op_p50_ms"] = (1000 * statistics.median(lat), "ms")
    res.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    res.notes.append(
        f"requests {len(lat)} over {len(entries)} pairs, "
        f"classify_p50_us {1e6 * statistics.median(lat):.1f}, "
        f"classify_p99_us {1e6 * statistics.quantiles(lat, n=100)[98]:.1f}, "
        f"share of the first {MIX_REPEAT_WINDOW} repeating an earlier (pair, folded ray) "
        f"{repeats / min(len(lat), MIX_REPEAT_WINDOW):.4f}")


# ---------------------------------------------------------------------------
# cli-verify


def write_malformed() -> Path:
    """pairs.dat with one dim_m expression dividing by zero."""
    text, count = re.subn(r"(?m)^(\s*dim_m) p\*\(p\+3\)/2$", r"\1 p*(p+3)/(p-p)",
                          (DATA / "pairs.dat").read_text())
    if count != 1:
        raise RuntimeError(f"expected one dim_m p*(p+3)/2 line, found {count}")
    path = OUT / "malformed-pairs.dat"
    path.write_text(text)
    return path


def cli_commands(malformed: Path) -> list[tuple[str, list[str]]]:
    classify_so = ["--format", "json", "classify", "--pair", "so(2p+n)|so(p)+so(p+n)",
                   "--p", "2", "--n", "3", "--root", "1,1", "--xi", "1,-1"]
    return (
        [("table1", ["--format", "csv", "table1"]),
         ("table1-check", ["table1", "--check"])]
        + [(f"appendix-{a}", ["--format", "json", "appendix", "--algebra", a])
           for a in ("g2", "f4", "e6", "e7", "e8")]
        + [("ferus-verify-identities", ["ferus", "--verify-identities"]),
           ("classify-so-xi", classify_so),
           ("classify-g2-short", ["--format", "json", "classify", "--pair", "g2|so(4)",
                                  "--root", "short"]),
           ("pairs-list", ["--format", "csv", "pairs", "list"]),
           ("pairs-list-malformed", ["--pairs", str(malformed), "pairs", "list"])]
    )


def check_command(name: str, proc, pairs, table1) -> list[str]:
    if proc.returncode != 0:
        return [f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    out = proc.stdout
    by_key = {rec["key"]: rec for rec in pairs}
    if name == "table1":
        return checks.check_table1_csv(out, table1)
    if name == "table1-check":
        return checks.check_table1_check(out)
    if name.startswith("appendix-"):
        return checks.check_appendix(out, name.split("-")[1], pairs)
    if name == "ferus-verify-identities":
        return checks.check_ferus_identities(out)
    if name == "classify-so-xi":
        return checks.check_classify(out, by_key["so(2p+n)|so(p)+so(p+n)"], 2, 3,
                                     "long", table1)
    if name == "classify-g2-short":
        return checks.check_classify(out, by_key["g2|so(4)"], None, None, "short", table1)
    if name == "pairs-list":
        return checks.check_pairs_list(out, pairs)
    raise ValueError(name)


def cli_pass(commands, figures_dir: Path | None, res: Result, pairs, table1):
    """Run every command once, one at a time; return (pass s, per-command s)."""
    times = {}
    procs = []
    env = child_env()
    start = time.perf_counter()
    for name, argv in commands:
        if figures_dir is None:
            cmd = [sys.executable, "-m", "gaussorbits.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(SRC),
                   str(figures_dir / f"{name}.json"), name, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        times[name] = time.perf_counter() - t0
        procs.append((name, proc))
    pass_s = time.perf_counter() - start
    for name, proc in procs:
        res.attempted += 1
        if name == "pairs-list-malformed":
            if not checks.malformed_ok(proc.returncode, proc.stdout, proc.stderr):
                res.failed += 1
        else:
            res.problems += check_command(name, proc, pairs, table1)
    return pass_s, times


def import_once() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gaussorbits.cli"], check=True,
                   env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def run_cli_verify(args, res: Result, pairs, table1) -> None:
    setups, imports = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        malformed = write_malformed()
        imports.append(import_once())
        setups.append(time.perf_counter() - t0)
    commands = cli_commands(malformed)

    if args.trace:
        plain_s, times = cli_pass(commands, None, res, pairs, table1)
        figures_dir = OUT / f"cli-figures-seed{args.seed}"
        figures_dir.mkdir(exist_ok=True)
        traced_s, _ = cli_pass(commands, figures_dir, res, pairs, table1)
        totals: dict = {}
        with open(OUT / f"trace-cli-verify-seed{args.seed}.jsonl", "w") as spans:
            for name, _ in commands:
                figures = figures_dir / f"{name}.json"
                for key, value in json.loads(figures.read_text()).items():
                    totals[key] = totals.get(key, 0) + value
                spans.write((figures_dir / f"{name}.json.spans").read_text())
        totals.update({f"cli.{name}.s": s for name, s in times.items()})
        totals["cli.import_s"] = statistics.median(imports)
        totals["trace.overhead_s"] = traced_s - plain_s
        res.layers = totals
        return
    passes, per_command = [], {name: [] for name, _ in commands}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        pass_s, times = cli_pass(commands, None, res, pairs, table1)
        passes.append(pass_s)
        for name, s in times.items():
            per_command[name].append(s)
    res.metrics["setup_s"] = (statistics.median(setups), "s")
    res.metrics["throughput_per_s"] = (len(commands) * len(passes) / sum(passes), "1/s")
    res.metrics["op_p50_ms"] = (1000 * statistics.median(passes), "ms")
    res.metrics["peak_rss_mb"] = (children_peak_rss_mb(), "MB")
    res.notes.append(f"passes {len(passes)}, cli_pass_s {statistics.median(passes):.4f}, "
                     f"cli.import_s {statistics.median(imports):.4f}")
    res.notes.append("median s per command: " + ", ".join(
        f"{name} {statistics.median(v):.3f}" for name, v in per_command.items()))


# ---------------------------------------------------------------------------


def run_workload(name: str, args, pairs, table1) -> Result:
    res = Result()
    if name == "scan-wide":
        run_scan_wide(args, res, pairs, table1)
    elif name == "classify-mix":
        run_classify_mix(args, res, pairs)
    else:
        run_cli_verify(args, res, pairs, table1)
    return res


def summary(res: Result, trace: bool) -> dict:
    if trace:
        metrics = tracing.per_layer_metrics(res.layers)
    else:
        if set(res.metrics) != set(END_TO_END):
            raise RuntimeError(f"metrics {sorted(res.metrics)} != {sorted(END_TO_END)}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res.metrics.items()}
    return {"correct": not res.problems, "attempted": res.attempted,
            "failed": res.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own interpreter, so that none sees another's
    caches or peak RSS; their outputs are relayed and their results merged."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }


def run_one(args) -> dict:
    name = args.workload
    pairs = checks.parse_pairs((DATA / "pairs.dat").read_text())
    table1 = checks.parse_table1((DATA / "table1.expected").read_text())
    res = run_workload(name, args, pairs, table1)
    out = summary(res, bool(args.trace))
    print(f"[{name}] attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {str(out['correct']).lower()}")
    for metric, m in out["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    for note in res.notes:
        print(f"[{name}] {note}")
    for problem in res.problems[:20]:
        print(f"[{name}] CHECK FAILED: {problem}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussorbits" / "cli.py").is_file():
        print(f"error: no gaussorbits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    final = run_all(args) if args.workload == "all" else run_one(args)
    line = json.dumps(final)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

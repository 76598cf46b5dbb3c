"""The chainshift benchmark: one seeded, closed-loop run of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads: cli_oneshot, window_tables, prefix_stream, deep_towers (see
BENCHMARK.json and perfbench/METRICS.md for why each exists). One client
sends the next request when the previous one has answered. Requests come
in decks (see workloads.py). A run deals round(S / D) decks, D being the
deck's duration on the reference machine (2 cores, pure-Python kernels),
so every run measures the same work, about S seconds of it there; a run
that reaches WALL_CAP_S of request time stops early.

Times are in reference seconds (see speed.py): the harness pins itself
and its children to one core and scales each request's wall time by the
host's speed on that core, read from a fixed calibration kernel right
before and after the request. Latency percentiles are Harrell-Davis
estimates, which do not jump when two requests trade ranks.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced replay of
the first deck. Every output is checked; ``failed`` counts the requests
that exited badly, raised, or answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
WALL_CAP_S = 140.0
# Seconds one deck takes on the reference machine.
DECK_SECONDS = {"cli_oneshot": 4.2, "window_tables": 15.0, "prefix_stream": 9.0, "deep_towers": 16.0}
WORK_UNIT = {
    "cli_oneshot": "calls",
    "window_tables": "cylinders",
    "prefix_stream": "letters",
    "deep_towers": "levels",
}
CLI_ENTRY = "import sys; sys.path.insert(0, 'src'); from chainshift.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import sys, time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "sys.path.insert(0, 'src'); import chainshift; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "calls_per_s": "1/s",
    "work_per_s": "1/s",
}
PER_LAYER_UNITS = {
    "import.interpreter_s": "s",
    "import.numpy_s": "s",
    "import.chainshift_s": "s",
    "import.share": "ratio",
    "cli.parse_input_s": "s",
    "cli.json_s": "s",
    "words.language_s": "s",
    "words.language_size": "count",
    "auxiliary.build_s": "s",
    "auxiliary.matrix_s": "s",
    "auxiliary.window_N": "count",
    "auxiliary.window_nnz": "count",
    "spectral.pf_vectors_s": "s",
    "spectral.limit_data_s": "s",
    "spectral.exact_share": "ratio",
    "spectral.block_eigenvalues_s": "s",
    "spectral.charpoly_degree_max": "count",
    "spectral.share": "ratio",
    "structure.component_chain_s": "s",
    "structure.witness_k": "count",
    "structure.share": "ratio",
    "classify.decomposition_report_s": "s",
    "measures.cylinder_measure_s": "s",
    "measures.cylinders": "count",
    "measures.recompute_ratio": "ratio",
    "measures.empirical_frequency_s": "s",
    "measures.uniformity_check_s": "s",
    "kernels.expand_prefix_s": "s",
    "kernels.count_subword_s": "s",
    "kernels.apply_bytes_s": "s",
    "kernels.letters": "count",
    "kernels.compiled": "bool",
    "kernels.share": "ratio",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# turning dealt items into the inputs the program receives


class Plan:
    """Dealt decks of one run and the program inputs made from them."""

    def __init__(self, workload: str, corpus: dict, seed: int):
        self.workload = workload
        self.corpus = corpus
        self.seed = seed
        self.items: dict[int, dict] = {}
        self.uniformity = wl.UniformityReference(corpus)
        self.probe_labels = wl.Labeller(random.Random(f"{workload}:{seed}:probe"))

    def deck(self, d: int) -> list[dict]:
        """Items of deck ``d`` with request ids; the labels are the dealt ones."""
        items = wl.deal(self.workload, self.corpus, self.seed, d)
        for j, item in enumerate(items):
            item["id"] = d * 1000 + j
            if item.get("kind") == "uniformity":
                item.update(self.uniformity.params(item))
            self.items[item["id"]] = item
        return items

    def system(self, item: dict) -> dict:
        return self.corpus["systems"][item["system"]]

    def request(self, item: dict, labels: str | None = None) -> dict:
        """The program's input for ``item``, written in ``labels`` (default: dealt)."""
        w = self.workload
        if w == "deep_towers":
            relabelled = dict(item, labels=labels or item["labels"])
            return {"id": item["id"], "rules": wl.tower_rules(relabelled)}
        data = self.system(item)
        if w == "cli_oneshot":
            labels = labels or "".join(data["rules"])
            mapping = wl.relabel_map("".join(data["rules"]), labels)
            argv = list(item["argv"])
            if argv[0] == "measure":
                argv[4] = wl.relabel(argv[4], mapping)
            return {
                "id": item["id"],
                "text": wl.rules_text(wl.relabel_rules(data["rules"], labels)),
                "argv": argv,
                "solves": self.cli_solves(item),
            }
        labels = labels or item["labels"]
        mapping = wl.relabel_map("".join(data["rules"]), labels)
        req = {"id": item["id"], "rules": wl.relabel_rules(data["rules"], labels), "level": item["level"]}
        if w == "window_tables":
            level = data["levels"][str(item["level"])]
            req["words"] = [wl.relabel(x, mapping) for x in level["words"][str(item["m"])]]
        else:
            req.update(kind=item["kind"], word=wl.relabel(item["word"], mapping))
            if item["kind"] == "empirical":
                req["L"] = item["L"]
            else:
                req.update(n=item["n"], offsets=item["offsets"], letters=item["letters"])
        return req

    def cli_solves(self, item: dict) -> int:
        """Eigenvector solves the command makes (one per cylinder value)."""
        data = self.system(item)
        levels = [lv for lv in data["levels"].values() if "words" in lv]
        command = item["argv"][0]
        if command == "measure":
            return 1
        if command == "spectral":
            return 1 if levels else 0
        if command == "analyze":
            return sum(len(lv["words"]["1"]) + len(lv["words"]["2"]) for lv in levels)
        if command == "check":
            return (2 if levels else 0) + sum(
                2 * len(lv["words"]["1"]) + len(lv["words"]["2"]) for lv in levels
            )
        return 0

    def probe(self, item: dict) -> dict:
        """Inputs of the layer probes for ``item``, in fresh letters."""
        w = self.workload
        size = item["n"] if w == "deep_towers" else len(self.system(item)["rules"])
        # the parse probe reads the whole system; the other probes may work on
        # the request's level alone
        whole = self.request(item, self.probe_labels.fresh(size))
        text = whole.get("text") or wl.rules_text(whole["rules"])
        if w == "deep_towers":
            two = {"n": 2, "r": item["r"][:2], "before": item["before"][:2], "labels": self.probe_labels.fresh(2)}
            rules = wl.tower_rules(two)
            x2 = two["labels"][1]
            return self._ctx(rules, text, 2, 2, x2 + x2, x2, wl.PROBE_L, x2)
        data = self.system(item)
        if w == "cli_oneshot":
            rules = data["rules"]
            argv = item["argv"]
            if argv[0] == "measure":
                level_no, word = int(argv[2]), argv[4]
            else:
                measurable = [int(i) for i, lv in data["levels"].items() if "words" in lv]
                level_no = max(measurable) if measurable else None
                word = data["levels"][str(level_no)]["words"]["2"][0] if level_no else None
        else:
            level = data["levels"][str(item["level"])]
            rules = wl.restrict(data["rules"], level["letters"])
            level_no = item["level"]
            m = item["m"] if w == "window_tables" else len(item["word"])
            word = item.get("word") or level["words"][str(m)][0]
        labels = self.probe_labels.fresh(len(rules))
        mapping = wl.relabel_map("".join(rules), labels)
        rules = wl.relabel_rules(rules, labels)
        if level_no is None:
            return self._ctx(rules, text, None, 2, None, None, wl.PROBE_L, None)
        level = data["levels"][str(level_no)]
        stream_word = item["word"] if w == "prefix_stream" else level["anchor"]
        length = item["L"] if item.get("kind") == "empirical" else wl.PROBE_L
        uni = level.get("uniformity")
        ctx = self._ctx(
            rules, text, level_no, len(word), wl.relabel(word, mapping), wl.relabel(stream_word, mapping),
            length, wl.relabel(level["new"][0], mapping) if uni else None,
        )
        if item.get("kind") == "uniformity":
            seed = uni["seed"]
            mirrored = seed["orientation"] == "reverse"
            tail = seed["v"][::-1] if mirrored else seed["v"]
            ctx["stream"] = {
                "head": wl.relabel(seed["b"] + tail, mapping),
                "k": seed["k"],
                "mirrored": mirrored,
                "length": item["letters"],
                "query": wl.relabel(item["word"][::-1] if mirrored else item["word"], mapping),
            }
        return ctx

    @staticmethod
    def _ctx(rules, text, level, m, word, stream_word, length, uniformity) -> dict:
        return {
            "rules": rules,
            "text": text,
            "level": level,
            "m": m,
            "word": word,
            "stream_word": stream_word,
            "L": length,
            "uniformity": uniformity,
        }

    # -- checks -------------------------------------------------------------

    def check(self, item: dict, out, cli_goldens: dict | None = None) -> str | None:
        w = self.workload
        if w == "cli_oneshot":
            want = cli_goldens[" ".join([item["system"], *item["argv"]])]
            return None if out == want else "stdout differs from the recorded output"
        if w == "window_tables":
            return wl.check_window(self.corpus, item, out)
        if w == "deep_towers":
            return wl.check_tower(item, out)
        if item["kind"] == "empirical":
            return wl.check_empirical(self.corpus, item, wl.stream_reference(self.corpus, item), out)
        return wl.check_uniformity(self.corpus, item, self.uniformity.counts(item), out)


# ---------------------------------------------------------------------------
# running


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child to completion; on timeout it is killed and reaped."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout)


def write_job(path: Path, job: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    return str(path)


def deck_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / DECK_SECONDS[workload]))


def cli_call(argv: list[str]) -> dict:
    try:
        proc = run_child(argv, timeout=60)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"}
    return {"out": proc.stdout, "work": 1}


def measure_cli(plan: Plan, decks: int, work: Path) -> list[dict]:
    """One fresh interpreter per request through the console-script entry point."""
    for name, data in plan.corpus["systems"].items():
        (work / f"{name}.sub").write_text(wl.rules_text(data["rules"]), encoding="utf-8")
    results = []
    busy = 0.0
    clock = speed.Clock()
    for d in range(decks):
        if busy > WALL_CAP_S:
            break
        for item in plan.deck(d):
            path = os.path.relpath(work / f"{item['system']}.sub")
            argv = [sys.executable, "-c", CLI_ENTRY, item["argv"][0], path, *item["argv"][1:]]
            line, latency, wall = clock.time(cli_call, argv)
            line.update(id=item["id"], latency=latency, wall=wall)
            busy += wall
            results.append(line)
    return results


def measure_worker(plan: Plan, decks: int, work: Path) -> list[dict]:
    job = write_job(work / "run.json", {
        "workload": plan.workload,
        "decks": [[plan.request(item) for item in plan.deck(d)] for d in range(decks)],
    })
    proc = run_child([sys.executable, str(WORKER), "run", job, str(WALL_CAP_S)])
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return [json.loads(x) for x in proc.stdout.splitlines() if x.strip()]


def setup_time(plan: Plan, work: Path) -> float:
    """Median over fresh interpreters of importing chainshift and building
    deck 0, in reference seconds."""
    job = write_job(work / "setup.json", {"decks": [[plan.request(item) for item in plan.deck(0)]]})
    times = []
    clock = speed.Clock()
    for _ in range(SETUP_REPEATS):
        proc, _, _ = clock.time(run_child, [sys.executable, str(WORKER), "setup", job, "0"])
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"] * clock.scale)
    return statistics.median(times)


def import_times() -> dict:
    """Interpreter start-up, numpy import and package import, each a median."""
    interp, numpy_s, package = [], [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - t0)
        proc = run_child([sys.executable, "-c", IMPORT_PROBE])
        a, b = proc.stdout.split()
        numpy_s.append(float(a))
        package.append(float(b))
    return {
        "import.interpreter_s": statistics.median(interp),
        "import.numpy_s": statistics.median(numpy_s),
        "import.chainshift_s": statistics.median(package),
    }


def trace_layers(plan: Plan, work: Path, trace_dir: Path, request_s: float) -> dict:
    """Per-layer metrics from a traced replay of deck 0 in fresh letters."""
    items = plan.deck(0)
    untraced_labels = wl.Labeller(random.Random(f"{plan.workload}:{plan.seed}:untraced"))
    traced_labels = wl.Labeller(random.Random(f"{plan.workload}:{plan.seed}:traced"))

    def fresh(labeller: wl.Labeller, item: dict) -> str:
        size = item["n"] if plan.workload == "deep_towers" else len(plan.system(item)["rules"])
        return labeller.fresh(size)

    job = {
        "workload": plan.workload,
        "untraced": [plan.request(item, fresh(untraced_labels, item)) for item in items],
        "traced": [plan.request(item, fresh(traced_labels, item)) for item in items],
        "probes": [plan.probe(item) for item in items],
        "trace_file": str(trace_dir / f"{plan.workload}-seed{plan.seed}.jsonl"),
    }
    path = write_job(work / "trace.json", job)
    proc = run_child([sys.executable, str(WORKER), "trace", path, "0"])
    if proc.returncode != 0:
        raise RuntimeError(f"trace worker failed: {proc.stderr.strip()[-2000:]}")
    layers = json.loads(proc.stdout.splitlines()[-1])
    layers.update(import_times())
    imports = layers["import.interpreter_s"] + layers["import.numpy_s"] + layers["import.chainshift_s"]
    in_process = layers.pop("main_request_s")
    if plan.workload == "cli_oneshot":
        # the replay ran in one process; rescale its shares to the child's wall time
        for key in ("spectral.share", "structure.share", "kernels.share"):
            layers[key] *= in_process / request_s
        layers["import.share"] = min(imports / request_s, 1.0)
    else:
        layers["import.share"] = 0.0
    return layers


# ---------------------------------------------------------------------------
# metrics and report


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of ``xs``.

    A weighted mean of all order statistics, the weights being the mass
    the Beta(p(n+1), (1-p)(n+1)) law puts on ((i-1)/n, i/n]. Unlike a
    single order statistic it does not jump when two requests of unlike
    cost trade ranks, so runs of the same code agree more closely.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16  # Simpson's rule on each ((i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        ys = [density(lo + j * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest
    rank), and its Harrell-Davis estimate."""
    n = len(latencies)
    for p in range(99, 49, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p, quantile(latencies, p / 100)
    return 50, quantile(latencies, 0.5)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chainshift" / "__init__.py").is_file():
        print("error: run from a chainshift checkout (src/chainshift is missing)", file=sys.stderr)
        return 2
    speed.pin()
    corpus = wl.load_corpus()
    base = root / ".perfbench-work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = Plan(args.workload, corpus, args.seed)
        decks = deck_count(args.workload, args.seconds)
        if args.workload == "cli_oneshot":
            results = measure_cli(plan, decks, work)
        else:
            results = measure_worker(plan, decks, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setup_s = setup_time(plan, work)

        goldens = wl.load_cli_goldens() if args.workload == "cli_oneshot" else None
        failures = []
        for line in results:
            item = plan.items[line["id"]]
            reason = line.get("error") or plan.check(item, line["out"], goldens)
            if reason:
                failures.append((item, reason))
        ok = [line for line in results if "error" not in line]
        latencies = [line["latency"] for line in results]
        busy = sum(latencies)
        p_tail, tail = tail_percentile(latencies)
        metrics = {
            "setup_s": setup_s,
            "latency_p50_s": quantile(latencies, 0.5),
            "latency_tail_s": tail,
            "peak_rss_mb": peak_rss_mb,
            "calls_per_s": len(results) / busy,
            "work_per_s": sum(line["work"] for line in ok) / busy,
        }
        unit = WORK_UNIT[args.workload]
        wall = sum(line["wall"] for line in results)
        print(f"{args.workload} seed {args.seed}: {len(results)} requests in {decks} decks, "
              f"{busy:.2f} reference s ({wall:.2f} wall s) of request time")
        for name, value in metrics.items():
            note = ""
            if name == "setup_s":
                note = f"median of {SETUP_REPEATS} fresh interpreters"
            elif name == "latency_tail_s":
                note = f"p{p_tail} of {len(latencies)} requests"
            elif name == "work_per_s":
                note = f"{unit}_per_s: {unit} per reference second of request time"
            print(f"  {name:<16}{value:>14.6g} {END_TO_END_UNITS[name]:<4} {note}")
        walls = [line["wall"] for line in results]
        print(f"  {'wall clock':<16}{statistics.median(walls):>14.6g} s    p50; "
              f"{len(results) / wall:.6g} calls per wall second (not normalised)")
        print(f"  {'error_rate':<16}{len(failures) / len(results):>14.6g}      "
              f"{len(failures)} failed of {len(results)}")
        for item, reason in failures[:10]:
            print(f"  FAILED {json.dumps(item)[:200]}: {reason}", file=sys.stderr)

        if args.trace:
            trace_dir = base / "traces"
            layers = trace_layers(plan, work, trace_dir, wall / len(results))
            metrics = {name: layers[name] for name in PER_LAYER_UNITS}
            print(f"  per-layer metrics of a traced replay of deck 0 "
                  f"(spans in {os.path.relpath(trace_dir)})")
            for name, value in metrics.items():
                print(f"  {name:<34}{value:>14.6g} {PER_LAYER_UNITS[name]}")
            units = PER_LAYER_UNITS
        else:
            units = END_TO_END_UNITS
        print(json.dumps({
            "correct": not failures,
            "attempted": len(results),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

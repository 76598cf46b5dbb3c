"""Runs benchmark requests against ``chainshift`` in a process of its own.

Usage: python3 perfbench/worker.py {run|setup|trace} JOB_FILE WALL_CAP_S

The job file, written by ``run.py``, holds fully generated requests; this
process only calls the library, so its peak memory is the program's.

* ``run``: run the job's decks in order, one JSON line per request with
  its time in reference seconds (see speed.py) and in wall seconds; stop
  early once WALL_CAP_S seconds have passed.
* ``setup``: print the time to import ``chainshift`` and build the first
  deck's inputs.
* ``trace``: replay the first deck untraced, then traced with layer probes,
  and print the per-layer metrics. Spans go to the file the job names.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import growth_power

UNIFORMITY_PROBE_WINDOWS = 64


class Tracer:
    """In-memory spans: name, start, end, parent span and request id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "request": self.request,
            "counters": {},
        }
        self.spans.append(rec)
        self.stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# The run mode's speed.Clock; a request's public calls end its segments.
CLOCK = None


def call(tr: Tracer | None, name: str, fn, *args, **kwargs):
    """``fn(*args)``, inside a span named ``name`` when tracing."""
    if tr is None:
        result = fn(*args, **kwargs)
        if CLOCK is not None:
            CLOCK.lap_if_due()
        return result
    with tr.span(name):
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# requests: the public calls the matching ``chainshift`` command makes


def window_request(cs, req, tr=None):
    sub = cs.Substitution.from_rules(req["rules"])
    chain = call(tr, "structure.component_chain", cs.component_chain, sub)
    spectral = call(tr, "spectral.block_eigenvalues", cs.block_eigenvalues, sub, chain)
    values = {}
    for w in req["words"]:
        cv = call(tr, "measures.cylinder_measure", cs.cylinder_measure, sub, chain, spectral, req["level"], w)
        js = cv.as_json()
        values[w] = [js["value"], js["float"]]
    return values, len(req["words"])


def prefix_request(cs, req, tr=None):
    sub = cs.Substitution.from_rules(req["rules"])
    chain = call(tr, "structure.component_chain", cs.component_chain, sub)
    spectral = call(tr, "spectral.block_eigenvalues", cs.block_eigenvalues, sub, chain)
    i, v = req["level"], req["word"]
    if req["kind"] == "empirical":
        f = call(tr, "measures.empirical_frequency", cs.empirical_frequency, sub, chain, spectral, i, v, req["L"])
        scaled = None if f.scaled_power is None else [f.scaled_power, f.scaled_count, f.scaled_value]
        return {"power": f.power, "ratio": f.ratio, "scaled": scaled}, req["L"]
    u = call(
        tr, "measures.uniformity_check", cs.uniformity_check,
        sub, chain, spectral, i, v, req["n"], tuple(req["offsets"]),
    )
    out = {
        "window_count": u.window_count,
        "ratios": {str(j): r for j, r in u.ratios.items()},
        "target": u.target,
    }
    return out, req["letters"]


def tower_request(cs, req, tr=None):
    sub = cs.Substitution.from_rules(req["rules"])
    chain = call(tr, "structure.component_chain", cs.component_chain, sub)
    spectral = call(tr, "spectral.block_eigenvalues", cs.block_eigenvalues, sub, chain)
    report = call(tr, "classify.decomposition_report", cs.decomposition_report, sub, chain, spectral)
    out = {
        "levels": chain.n,
        "report_levels": len(report.levels),
        "new_letters": ["".join(chain.new_letters(i)) for i in range(1, chain.n + 1)],
        "thetas": [spectral.theta(i).as_integer() for i in range(1, chain.n + 1)],
        "witness_k": chain.witness_k,
    }
    return out, chain.n


def cli_request(cs, req, tr=None):
    """In-process replay of one CLI call: parse, the command, JSON."""
    from chainshift import cli

    spec = call(tr, "cli.parse_input", cli.parse_input, req["text"])
    argv = req["argv"]
    args = argparse.Namespace()
    if argv[0] == "spectral":
        args.m = int(argv[2])
    if argv[0] == "measure":
        args.level, args.word = int(argv[2]), argv[4]
    command = getattr(cli, f"cmd_{argv[0]}")
    result = call(tr, "cli.command", command, spec, args)
    text = call(tr, "cli.json", json.dumps, result, indent=2)
    return len(text), 1


REQUESTS = {
    "window_tables": window_request,
    "prefix_stream": prefix_request,
    "deep_towers": tower_request,
    "cli_oneshot": cli_request,
}


# ---------------------------------------------------------------------------
# layer probes: each public function the request's calls hide, called on a
# fresh relabelling of the same inputs so no module cache answers it


def probe_layers(cs, tr: Tracer, ctx: dict, main: set[str], output) -> dict:
    """Call each layer's public function once on the probe inputs.

    Skips the layers named in ``main`` (already spanned on the request
    path). Returns the probe's sizes and the per-call costs that stand in
    for work the request's own calls hide.
    """
    from chainshift import cli, kernels
    from chainshift.measures import measure_type

    def traced(name, fn, *args):
        """``fn(*args)`` in a span; returns the result and the span record."""
        with tr.span(name) as rec:
            result = fn(*args)
        return result, rec

    def seconds(rec) -> float:
        return rec["end"] - rec["start"]

    got: dict = {"solves": []}
    if "cli.parse_input" not in main:
        call(tr, "cli.parse_input", cli.parse_input, ctx["text"])
    sub = cs.Substitution.from_rules(ctx["rules"])
    chain, rec = traced("structure.component_chain", cs.component_chain, sub)
    got["chain_s"] = seconds(rec)
    spectral, rec = traced("spectral.block_eigenvalues", cs.block_eigenvalues, sub, chain)
    got["eig_s"] = seconds(rec)
    if "classify.decomposition_report" not in main:
        call(tr, "classify.decomposition_report", cs.decomposition_report, sub, chain, spectral)
    i, m = ctx["level"] or chain.n, ctx["m"]
    sub_i, chain_i = chain.restrict(i)
    lang, rec = traced("words.language", cs.language, sub_i, m)
    rec["counters"]["size"] = got["language_size"] = len(lang)
    aux = call(tr, "auxiliary.build_auxiliary", cs.build_auxiliary, sub_i, chain_i, m)
    matrix, rec = traced("auxiliary.auxiliary_matrix", cs.auxiliary_matrix, aux)
    rec["counters"]["N"] = got["window_N"] = len(aux.words)
    rec["counters"]["nnz"] = got["window_nnz"] = sum(1 for row in matrix.entries for x in row if x)
    if ctx["level"] is not None and not spectral.theta_is_one(i):
        pair, pf_rec = traced("spectral.pf_vectors", cs.pf_vectors, sub_i, chain_i, m)
        ld, ld_rec = traced("spectral.limit_data", cs.limit_data, sub, chain, m, i, spectral)
        pf_rec["counters"]["exact"] = pair.exact
        ld_rec["counters"]["exact"] = ld.exact
        got["solves"] = [pair.exact, ld.exact]
        # cylinder_measure solves through pf_vectors on finite levels and
        # through limit_data on infinite ones
        got["solve_s"] = seconds(pf_rec if spectral.level_is_finite(i) else ld_rec)
        if "measures.cylinder_measure" not in main:
            call(tr, "measures.cylinder_measure", cs.cylinder_measure, sub, chain, spectral, i, ctx["word"])
        anchor = measure_type(sub, chain, spectral, i).anchor
        letters = sub_i.alphabet.letters
        images = kernels.encode_images(letters, sub_i.images)
        k = growth_power(dict(zip(letters, sub_i.images)), anchor, ctx["L"])
        prefix, expand_rec = traced(
            "kernels.expand_prefix", kernels.expand_prefix, images, letters.index(anchor), k, ctx["L"]
        )
        expand_rec["counters"]["letters"] = got["letters"] = len(prefix)
        needle = kernels.encode_word(letters, ctx["stream_word"])
        _, count_rec = traced("kernels.count_subword", kernels.count_subword, needle, prefix)
        call(tr, "kernels.apply_bytes", kernels.apply_bytes, images, prefix)
        got["stream_s"] = seconds(expand_rec) + seconds(count_rec)
        if ctx.get("stream"):
            got["stream_s"] = _uniformity_stream(tr, kernels, sub_i, ctx["stream"])
        if "measures.empirical_frequency" not in main:
            call(
                tr, "measures.empirical_frequency", cs.empirical_frequency,
                sub, chain, spectral, i, ctx["stream_word"][0], ctx["L"],
            )
        uni = ctx.get("uniformity")
        if uni and "measures.uniformity_check" not in main:
            call(
                tr, "measures.uniformity_check", cs.uniformity_check,
                sub, chain, spectral, i, uni, UNIFORMITY_PROBE_WINDOWS,
            )
    if "cli.json" not in main:
        call(tr, "cli.json", json.dumps, output, indent=2)
    return got


def _uniformity_stream(tr: Tracer, kernels, sub_i, stream: dict) -> float:
    """The byte work behind one uniformity check: grow the quasi-fixed half
    chunk by chunk with ``apply_bytes``, then count the word in it."""
    system = sub_i.reversed() if stream["mirrored"] else sub_i
    letters = system.alphabet.letters
    images = kernels.encode_images(letters, system.images)
    start = time.perf_counter()
    buf = bytearray(kernels.encode_word(letters, stream["head"]))
    chunk = bytes(buf[1:])
    while len(buf) < stream["length"]:
        for _ in range(stream["k"]):
            chunk = call(tr, "kernels.apply_bytes", kernels.apply_bytes, images, chunk)
        buf.extend(chunk)
    call(tr, "kernels.count_subword", kernels.count_subword,
         kernels.encode_word(letters, stream["query"]), bytes(buf[: stream["length"]]))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# modes


def attempt(execute, cs, req: dict) -> dict:
    try:
        out, work = execute(cs, req)
        return {"id": req["id"], "out": out, "work": work}
    except Exception as exc:  # one failed request must not end the run
        return {"id": req["id"], "error": f"{type(exc).__name__}: {exc}"}


def run(cs, job: dict, wall_cap: float) -> None:
    # imported here, not at the top: the setup mode times the imports that
    # chainshift makes, fractions among them
    import speed

    global CLOCK
    execute = REQUESTS[job["workload"]]
    clock = CLOCK = speed.Clock()
    started = time.perf_counter()
    for req in (req for deck in job["decks"] for req in deck):
        if time.perf_counter() - started > wall_cap:
            break
        line, latency, wall = clock.time(attempt, execute, cs, req)
        line.update(latency=latency, wall=wall)
        print(json.dumps(line))


def setup(job: dict) -> None:
    start = time.perf_counter()
    import chainshift

    for req in job["decks"][0]:
        if "text" in req:
            chainshift.parse_input(req["text"])
        else:
            chainshift.Substitution.from_rules(req["rules"])
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def trace(cs, job: dict) -> None:
    execute = REQUESTS[job["workload"]]
    untraced = []
    for req in job["untraced"]:
        t0 = time.perf_counter()
        execute(cs, req)
        untraced.append(time.perf_counter() - t0)
    tr = Tracer()
    probes = []
    for req, ctx in zip(job["traced"], job["probes"]):
        tr.request = req["id"]
        with tr.span("request") as whole:
            with tr.span("main") as main_span:
                output, work = execute(cs, req, tr)
            main = {s["name"] for s in tr.spans if s["parent"] == main_span["id"]}
            with tr.span("probes"):
                got = probe_layers(cs, tr, ctx, main, output)
        got.update(request=req, work=work, wall=whole["end"] - whole["start"])
        got["main_s"] = main_span["end"] - main_span["start"]
        # sizes of the request's own system; the module caches answer these
        sub = cs.parse_input(req["text"]).substitution if "text" in req else cs.Substitution.from_rules(req["rules"])
        chain = cs.component_chain(sub)
        got["witness_k"] = chain.witness_k
        got["charpoly_degree"] = max(len(ls.char_poly) - 1 for ls in cs.block_eigenvalues(sub, chain).levels)
        probes.append(got)
    tr.write(Path(job["trace_file"]))
    print(json.dumps(layer_metrics(job, tr, probes, untraced)))


def layer_metrics(job: dict, tr: Tracer, probes: list[dict], untraced: list[float]) -> dict:
    """Per-call costs, sizes and request-time shares from the traced replay.

    A share is the part of the traced requests' own time a layer accounts
    for: its spans on the request path plus, where a request's call hides
    the layer, that many calls priced by the layer's probe.
    """
    from chainshift import kernels

    totals: dict[str, list[float]] = {}
    for s in tr.spans:
        totals.setdefault(s["name"], []).append(s["end"] - s["start"])
    mains = {s["id"] for s in tr.spans if s["name"] == "main"}

    def on_path_spans(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in tr.spans if s["name"] == name and s["parent"] in mains]

    def on_path(name: str) -> float:
        return sum(on_path_spans(name))

    def per_call(name: str) -> float:
        """Mean cost of the calls the requests make, else of the probe calls."""
        times = on_path_spans(name) or totals.get(name, [])
        return sum(times) / len(times) if times else 0.0

    def mean(key: str) -> float:
        vals = [p[key] for p in probes if key in p]
        return sum(vals) / len(vals) if vals else 0.0

    workload = job["workload"]
    structure = on_path("structure.component_chain")
    spectral = on_path("spectral.block_eigenvalues")
    streaming = 0.0
    cylinders = 0
    one_solve_each = 0.0
    for p in probes:
        req, solve = p["request"], p.get("solve_s", 0.0)
        count = len(req["words"]) if workload == "window_tables" else 1
        cylinders += count
        one_solve_each += count * solve
        if workload == "window_tables":
            spectral += count * solve
        elif workload == "prefix_stream":
            streaming += p.get("stream_s", 0.0)
            if req["kind"] == "uniformity":
                spectral += solve
        elif workload == "cli_oneshot":
            structure += p["chain_s"]
            spectral += p["eig_s"] + req["solves"] * solve
    base = sum(p["main_s"] for p in probes)
    solves = [exact for p in probes for exact in p["solves"]]
    return {
        "cli.parse_input_s": per_call("cli.parse_input"),
        "cli.json_s": per_call("cli.json"),
        "words.language_s": per_call("words.language"),
        "words.language_size": mean("language_size"),
        "auxiliary.build_s": per_call("auxiliary.build_auxiliary"),
        "auxiliary.matrix_s": per_call("auxiliary.auxiliary_matrix"),
        "auxiliary.window_N": mean("window_N"),
        "auxiliary.window_nnz": mean("window_nnz"),
        "spectral.pf_vectors_s": per_call("spectral.pf_vectors"),
        "spectral.limit_data_s": per_call("spectral.limit_data"),
        "spectral.exact_share": sum(solves) / len(solves) if solves else 0.0,
        "spectral.block_eigenvalues_s": per_call("spectral.block_eigenvalues"),
        "spectral.charpoly_degree_max": max(p["charpoly_degree"] for p in probes),
        "spectral.share": min(spectral / base, 1.0),
        "structure.component_chain_s": per_call("structure.component_chain"),
        "structure.witness_k": mean("witness_k"),
        "structure.share": min(structure / base, 1.0),
        "classify.decomposition_report_s": per_call("classify.decomposition_report"),
        "measures.cylinder_measure_s": per_call("measures.cylinder_measure"),
        "measures.cylinders": cylinders / len(probes),
        "measures.recompute_ratio": (
            sum(totals.get("measures.cylinder_measure", [])) / one_solve_each if one_solve_each else 0.0
        ),
        "measures.empirical_frequency_s": per_call("measures.empirical_frequency"),
        "measures.uniformity_check_s": per_call("measures.uniformity_check"),
        "kernels.expand_prefix_s": per_call("kernels.expand_prefix"),
        "kernels.count_subword_s": per_call("kernels.count_subword"),
        "kernels.apply_bytes_s": per_call("kernels.apply_bytes"),
        "kernels.letters": mean("letters"),
        "kernels.compiled": 1 if kernels.HAVE_SPEEDUPS else 0,
        "kernels.share": min(streaming / base, 1.0),
        "trace.overhead_s": sum(p["wall"] for p in probes) - sum(untraced),
        "main_request_s": base / len(probes),
    }


def main() -> int:
    mode, job_file, wall_cap = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(job_file, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, "src")
    if mode == "setup":
        setup(job)
        return 0
    import chainshift as cs

    if mode == "run":
        run(cs, job, wall_cap)
    elif mode == "trace":
        trace(cs, job)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

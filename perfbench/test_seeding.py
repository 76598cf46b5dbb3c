"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q perfbench/test_seeding.py

One seed must give the same requests and the same outputs twice, another
seed must change the requests, and the output checks must reject a wrong
answer.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

CORPUS = wl.load_corpus()
IN_PROCESS = ("window_tables", "prefix_stream", "deep_towers")


def requests(workload: str, seed: int, deck: int = 0) -> list[dict]:
    plan = run.Plan(workload, CORPUS, seed)
    return [plan.request(item) for item in plan.deck(deck)]


def cheapest(plan: run.Plan, count: int) -> list[dict]:
    """The deck-0 items with the least work, so the test stays quick."""
    def cost(item: dict) -> float:
        if plan.workload == "window_tables":
            return item["m"] + len(plan.system(item)["rules"])
        if plan.workload == "prefix_stream":
            return item.get("L") or item["letters"]
        return item["n"]
    return sorted(plan.deck(0), key=cost)[:count]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert requests(workload, 7) == requests(workload, 7)
    assert requests(workload, 7, deck=1) == requests(workload, 7, deck=1)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_other_seed_other_requests(workload):
    assert requests(workload, 7) != requests(workload, 8)


@pytest.mark.parametrize("workload", ("window_tables", "prefix_stream", "deep_towers"))
def test_other_seed_same_mix(workload):
    """Seeds change letters, offsets and order, never the deck's request shapes."""
    def shapes(seed):
        plan = run.Plan(workload, CORPUS, seed)
        # a uniformity item's window count follows its seeded offset; the
        # streamed prefix length T does not
        keys = ("system", "level", "m", "kind", "L", "T", "word")
        if workload == "deep_towers":
            keys += ("n",)
        return sorted(tuple(str(item.get(k)) for k in keys) for item in plan.deck(0))
    assert shapes(7) == shapes(8)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_probe_inputs(workload):
    """The traced replay's probe inputs build for every request of a deck."""
    plan = run.Plan(workload, CORPUS, 7)
    for item in plan.deck(0):
        ctx = plan.probe(item)
        assert ctx["text"] and ctx["rules"]


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_same_seed_same_outputs(workload):
    import chainshift

    execute = worker.REQUESTS[workload]
    outputs = []
    for _ in range(2):
        plan = run.Plan(workload, CORPUS, 7)
        items = cheapest(plan, 4)
        outs = [execute(chainshift, plan.request(item))[0] for item in items]
        for item, out in zip(items, outs):
            assert plan.check(item, out) is None
        outputs.append(outs)
    assert outputs[0] == outputs[1]


def test_cli_outputs_match_goldens(tmp_path):
    plan = run.Plan("cli_oneshot", CORPUS, 7)
    goldens = wl.load_cli_goldens()
    item = next(i for i in plan.deck(0) if i["argv"][0] == "measure")
    path = tmp_path / "system.sub"
    path.write_text(wl.rules_text(plan.system(item)["rules"]), encoding="utf-8")
    argv = [sys.executable, "-c", run.CLI_ENTRY, item["argv"][0], str(path), *item["argv"][1:]]
    outs = [subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=60).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    assert plan.check(item, outs[0], goldens) is None
    assert plan.check(item, outs[0].replace("1", "2", 1), goldens) is not None


def test_checks_reject_wrong_answers():
    import chainshift

    plan = run.Plan("window_tables", CORPUS, 7)
    item = next(i for i in plan.deck(0) if i["system"] == "quartic" and i["level"] == 2 and i["m"] == 3)
    out, _ = worker.window_request(chainshift, plan.request(item))
    assert plan.check(item, out) is None
    word = next(iter(out))
    bad = dict(out, **{word: ["1/7", 1 / 7]})
    assert plan.check(item, bad) is not None

    tower = run.Plan("deep_towers", CORPUS, 7)
    item = cheapest(tower, 1)[0]
    out, _ = worker.tower_request(chainshift, tower.request(item))
    assert tower.check(item, out) is None
    assert tower.check(item, dict(out, witness_k=out["witness_k"] + 1)) is not None


def test_uniformity_reference_is_a_fixed_point():
    for name, i in wl.uniformity_levels(CORPUS):
        text = wl.quasi_fixed_half(CORPUS, name, i, 5000)
        assert len(text) == 5000


def test_quantile_estimates():
    xs = [float(x) for x in range(1, 102)]
    assert run.quantile(xs, 0.5) == pytest.approx(51.0)
    assert run.quantile([2.5] * 7, 0.9) == pytest.approx(2.5)
    p, tail = run.tail_percentile(xs)
    assert p == 90 and 88 < tail < 93


def test_clock_scales_wall_time_by_kernel_speed(monkeypatch):
    import speed

    samples = iter([speed.REFERENCE_S, 2 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "kernel", lambda: 0)
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    clock = speed.Clock()
    result, scaled, wall = clock.time(sum, [1, 2])
    assert result == 3
    # the host read half as fast after the call as before it
    assert scaled == pytest.approx(wall * 2 / 3)

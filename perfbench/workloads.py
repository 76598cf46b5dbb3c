"""Seeded request decks, independent references and output checks.

Nothing here imports ``chainshift``: inputs are generated from the corpus
data in ``goldens/corpus.json`` and every check uses plain ``str`` work or
values recorded at the commit that defined the benchmark.

A run deals *decks*. A deck is a fixed multiset of request shapes: the seed
picks the order, the fresh letters, the CLI's measured words, the window
offsets and the tower multiplicities, never the mix itself. A run
measures whole decks, so every run measures the same mix.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"

WORKLOADS = ("cli_oneshot", "window_tables", "prefix_stream", "deep_towers")

# Fresh letters: one-byte code points only, so relabelled words keep the
# compact string layout of the corpus. None of them is '#', '-', '>' or
# whitespace, which the rule-file grammar reserves.
LETTER_POOL = "".join(
    c
    for c in (
        [chr(x) for x in range(ord("0"), ord("9") + 1)]
        + [chr(x) for x in range(ord("A"), ord("Z") + 1)]
        + [chr(x) for x in range(ord("a"), ord("z") + 1)]
        + [chr(x) for x in range(0xC0, 0x100)]
    )
    if c.isprintable() and not c.isspace() and c not in "×÷"
)

CLI_COMMANDS = (("analyze",), ("classify",), ("check",), ("spectral", "-m", "2"), ("measure",))
WINDOW_MS = (2, 3, 4, 5, 6)
STREAM_L = (10**5, 2 * 10**6)
UNIFORMITY_T = (10**5, 10**6)
UNIFORMITY_PER_DECK = 7
TOWER_N = (24, 64)
PROBE_L = 2**14


def load_corpus() -> dict:
    with open(GOLDENS / "corpus.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_cli_goldens() -> dict:
    with open(GOLDENS / "cli.json", encoding="utf-8") as fh:
        return json.load(fh)


def measurable_levels(corpus: dict) -> list[tuple[str, int]]:
    """(system, level) pairs that carry a cylinder measure, in corpus order."""
    return [
        (name, int(i))
        for name, data in corpus["systems"].items()
        for i, level in data["levels"].items()
        if level["kind"] in ("finite_ergodic", "infinite_radon")
    ]


def uniformity_levels(corpus: dict) -> list[tuple[str, int]]:
    return [
        (name, int(i))
        for name, data in corpus["systems"].items()
        for i, level in data["levels"].items()
        if level.get("uniformity")
    ]


# ---------------------------------------------------------------------------
# relabelling


class Labeller:
    """Draws fresh letter sets, never the same one twice for one alphabet size.

    Letters are drawn in increasing code point order and assigned in
    declaration order, so both the declared order and the code point order
    of the corpus alphabets are preserved.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, size: int) -> str:
        while True:
            picked = sorted(self.rng.sample(range(len(LETTER_POOL)), size))
            labels = "".join(LETTER_POOL[j] for j in picked)
            if labels not in self.used:
                self.used.add(labels)
                return labels


def relabel_map(alphabet: str, labels: str) -> dict[str, str]:
    return dict(zip(alphabet, labels))


def relabel(word: str, mapping: dict[str, str]) -> str:
    return "".join(mapping[c] for c in word)


def relabel_rules(rules: dict[str, str], labels: str) -> dict[str, str]:
    mapping = relabel_map("".join(rules), labels)
    return {mapping[c]: relabel(img, mapping) for c, img in rules.items()}


def rules_text(rules: dict[str, str]) -> str:
    return "".join(f"{c} -> {img}\n" for c, img in rules.items())


# ---------------------------------------------------------------------------
# decks


def _log_strata(lo: int, hi: int, count: int) -> list[int]:
    """The midpoints of ``count`` equal log-width strata of [lo, hi]."""
    span = math.log(hi / lo)
    return [int(lo * math.exp(span * (j + 0.5) / count)) for j in range(count)]


def _deck_rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


def cli_deck(corpus: dict, seed: int, deck: int) -> list[dict]:
    """Deck ``deck`` of the CLI cycle: every system x command once per 4 decks."""
    cycle, part = divmod(deck, 4)
    rng = _deck_rng("cli_oneshot", seed, cycle)
    measurable: dict[str, list[int]] = {}
    for name, i in measurable_levels(corpus):
        measurable.setdefault(name, []).append(i)
    combos = []
    for name, data in corpus["systems"].items():
        for command in CLI_COMMANDS:
            if command[0] != "measure":
                combos.append({"system": name, "argv": list(command)})
            elif name in measurable:
                level = rng.choice(measurable[name])
                words = [
                    w for m in (1, 2, 3) for w in data["levels"][str(level)]["words"][str(m)]
                ]
                word = rng.choice(words)
                combos.append(
                    {"system": name, "argv": ["measure", "-i", str(level), "-v", word]}
                )
    rng.shuffle(combos)
    size = math.ceil(len(combos) / 4)
    return combos[part * size : (part + 1) * size]


def window_deck(corpus: dict, seed: int, deck: int) -> list[dict]:
    """Every measurable level at every window length once, seeded order and letters."""
    rng = _deck_rng("window_tables", seed, deck)
    labeller = Labeller(rng)
    deck_items = []
    for name, i in measurable_levels(corpus):
        for m in WINDOW_MS:
            deck_items.append({"system": name, "level": i, "m": m})
    rng.shuffle(deck_items)
    for item in deck_items:
        item["labels"] = labeller.fresh(len(corpus["systems"][item["system"]]["rules"]))
    return deck_items


def prefix_deck(corpus: dict, seed: int, deck: int) -> list[dict]:
    """Each measurable level streamed once plus a rotating set of uniformity levels.

    Prefix lengths are the midpoints of fixed log strata, and words cycle
    through the level's words of length 1..3. Both rotate with the deck
    index, not the seed: the streamed word sets the cost of counting it
    (up to 3x per letter), so a seeded word would change the mix. The seed
    picks the window offsets, the letters and the order.
    """
    rng = _deck_rng("prefix_stream", seed, deck)
    labeller = Labeller(rng)
    pairs = measurable_levels(corpus)
    lengths = _log_strata(*STREAM_L, len(pairs))
    items = []
    for p, (name, i) in enumerate(pairs):
        level = corpus["systems"][name]["levels"][str(i)]
        words = level["words"][str(1 + (p + deck) % 3)]
        items.append(
            {
                "kind": "empirical",
                "system": name,
                "level": i,
                "word": words[(p + deck) % len(words)],
                "L": lengths[(7 * p + deck) % len(pairs)],
            }
        )
    uni = uniformity_levels(corpus)
    # The longest uniformity stream sets the peak memory of the run, and
    # streams grow in whole chunks, so jittered targets would make peak
    # memory jump between seeds.
    targets = _log_strata(*UNIFORMITY_T, UNIFORMITY_PER_DECK)
    for t in range(UNIFORMITY_PER_DECK):
        name, i = uni[(UNIFORMITY_PER_DECK * deck + t) % len(uni)]
        level = corpus["systems"][name]["levels"][str(i)]
        new = set(level["new"])
        m = 1 + (t + deck) % 3
        words = [w for w in level["words"][str(m)] if any(c in new for c in w)]
        items.append(
            {
                "kind": "uniformity",
                "system": name,
                "level": i,
                "word": words[(t + deck) % len(words)],
                "T": min(targets[t], level["uniformity"]["t_max"]),
                "offset_share": rng.random() / 4,
            }
        )
    rng.shuffle(items)
    for item in items:
        item["labels"] = labeller.fresh(len(corpus["systems"][item["system"]]["rules"]))
    return items


def tower_deck(seed: int, deck: int) -> list[dict]:
    """Every tower height in TOWER_N once; the seed picks multiplicities and letters."""
    rng = _deck_rng("deep_towers", seed, deck)
    labeller = Labeller(rng)
    ns = list(range(TOWER_N[0], TOWER_N[1] + 1))
    rng.shuffle(ns)
    return [
        {
            "n": n,
            "r": [rng.choice((2, 3)) for _ in range(n)],
            "before": [rng.random() < 0.5 for _ in range(n)],
            "labels": labeller.fresh(n),
        }
        for n in ns
    ]


def tower_rules(item: dict) -> dict[str, str]:
    """Level i adds letter x_i with image x_i^r_i around x_{i-1}; level 1 is x_1^r_1."""
    x = item["labels"]
    rules = {x[0]: x[0] * item["r"][0]}
    for i in range(1, item["n"]):
        run = x[i] * item["r"][i]
        rules[x[i]] = x[i - 1] + run if item["before"][i] else run + x[i - 1]
    return rules


def deal(workload: str, corpus: dict, seed: int, deck: int) -> list[dict]:
    if workload == "cli_oneshot":
        return cli_deck(corpus, seed, deck)
    if workload == "window_tables":
        return window_deck(corpus, seed, deck)
    if workload == "prefix_stream":
        return prefix_deck(corpus, seed, deck)
    if workload == "deep_towers":
        return tower_deck(seed, deck)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# independent references (plain str work on the original letters)


def count_overlapping(hay: str, needle: str) -> int:
    """Occurrences of ``needle`` in ``hay``, overlaps included."""
    if not any(needle[:j] == needle[-j:] for j in range(1, len(needle))):
        return hay.count(needle)  # no border: occurrences cannot overlap
    return len(re.findall(f"(?={re.escape(needle)})", hay))


def _table(rules: dict[str, str]) -> dict[int, str]:
    return {ord(c): img for c, img in rules.items()}


def power_image(rules: dict[str, str], word: str, k: int, limit: int | None = None) -> str:
    """sigma^k(word), or its first ``limit`` letters."""
    table = _table(rules)
    for _ in range(k):
        word = word[:limit].translate(table) if limit else word.translate(table)
    return word[:limit] if limit else word


def growth_power(rules: dict[str, str], letter: str, target: int) -> int:
    """Smallest k with |sigma^k(letter)| >= target."""
    lengths = {c: 1 for c in rules}
    k = 0
    while lengths[letter] < target:
        lengths = {c: sum(lengths[x] for x in img) for c, img in rules.items()}
        k += 1
    return k


def restrict(rules: dict[str, str], letters: list[str]) -> dict[str, str]:
    return {c: rules[c] for c in letters}


def stream_reference(corpus: dict, item: dict) -> dict:
    """Expected power and count of an empirical-frequency request."""
    data = corpus["systems"][item["system"]]
    level = data["levels"][str(item["level"])]
    rules = restrict(data["rules"], level["letters"])
    k = growth_power(rules, level["anchor"], item["L"])
    prefix = power_image(rules, level["anchor"], k, item["L"])
    assert len(prefix) == item["L"]
    return {"power": k, "count": count_overlapping(prefix, item["word"])}


def quasi_fixed_half(corpus: dict, system: str, level_no: int, limit: int) -> str:
    """First ``limit`` letters of the right half of a level's quasi-fixed point.

    The recorded seed identity sigma^k(ab) = u a b v is checked by expansion
    first. The right half R solves R = b v sigma^k(R[1:]), so it is
    b v sigma^k(v) sigma^2k(v) ...; the fixed-point equation is checked on
    the result.
    """
    data = corpus["systems"][system]
    level = data["levels"][str(level_no)]
    seed = level["uniformity"]["seed"]
    rules = restrict(data["rules"], level["letters"])
    a, b, u, v, k = seed["a"], seed["b"], seed["u"], seed["v"], seed["k"]
    if seed["orientation"] == "reverse":
        rules = {c: img[::-1] for c, img in rules.items()}
        u, v = u[::-1], v[::-1]
    if power_image(rules, a + b, k) != u + a + b + v:
        raise ValueError(f"{system} level {level_no}: recorded seed identity does not hold")
    parts = [b, v]
    size = len(b) + len(v)
    chunk = v
    while size < limit:
        chunk = power_image(rules, chunk, k, limit)
        parts.append(chunk)
        size += len(chunk)
    half = "".join(parts)[:limit]
    if (b + v + power_image(rules, half[1:], k, limit))[:limit] != half:
        raise ValueError(f"{system} level {level_no}: quasi-fixed half is not a fixed point")
    return half


class UniformityReference:
    """New-letter visit positions along each quasi-fixed half, computed once."""

    def __init__(self, corpus: dict):
        self.corpus = corpus
        self.halves: dict[tuple[str, int], tuple[str, list[int]]] = {}

    def half(self, system: str, level_no: int) -> tuple[str, list[int]]:
        key = (system, level_no)
        if key not in self.halves:
            level = self.corpus["systems"][system]["levels"][str(level_no)]
            text = quasi_fixed_half(self.corpus, system, level_no, level["uniformity"]["t_max"])
            new = re.escape("".join(level["new"]))
            self.halves[key] = (text, [m.start() for m in re.finditer(f"[{new}]", text)])
        return self.halves[key]

    def _query(self, item: dict) -> str:
        level = self.corpus["systems"][item["system"]]["levels"][str(item["level"])]
        mirrored = level["uniformity"]["seed"]["orientation"] == "reverse"
        return item["word"][::-1] if mirrored else item["word"]

    def params(self, item: dict) -> dict:
        """Window count, offsets and letters needed for a uniformity item.

        The windows span every new-letter visit before the item's target
        prefix length T; the second offset skips a seeded share of them.
        """
        _, visits = self.half(item["system"], item["level"])
        inside = bisect.bisect_left(visits, item["T"])
        offset = int(item["offset_share"] * inside)
        n = inside - offset - 1
        return {"n": n, "offsets": sorted({0, offset}), "letters": visits[offset + n] + 1}

    def counts(self, item: dict) -> dict:
        """Expected occurrence counts of the word in each window."""
        text, visits = self.half(item["system"], item["level"])
        n, query = item["n"], self._query(item)
        counts = {j: count_overlapping(text[visits[j] : visits[j + n] + 1], query) for j in item["offsets"]}
        return {"n": n, "offsets": item["offsets"], "counts": counts}


# ---------------------------------------------------------------------------
# checks (each returns None when the output is right, or a reason)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _value(entry) -> Fraction | float | None:
    """A recorded or returned cylinder value: Fraction, float, or None for infinity."""
    value = entry[0]
    if value == "inf":
        return None
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def _same_value(got, want) -> bool:
    if got[0] == "inf" or want[0] == "inf":
        return got[0] == want[0]
    if isinstance(want[0], str):
        return got[0] == want[0]
    return isinstance(got[0], float) and _close(got[0], want[0], 1e-12)


def check_window(corpus: dict, item: dict, out: dict) -> str | None:
    data = corpus["systems"][item["system"]]
    level = data["levels"][str(item["level"])]
    back = {v: k for k, v in relabel_map("".join(data["rules"]), item["labels"]).items()}
    table = {relabel(w, back): entry for w, entry in out.items()}
    want = level["values"][str(item["m"])]
    if set(table) != set(want):
        return "cylinder words differ from the recorded language"
    for w, entry in want.items():
        if not _same_value(table[w], entry):
            return f"cylinder {w!r}: got {table[w][0]!r}, recorded {entry[0]!r}"
    # Kolmogorov consistency: both one-letter extension sums of every finite
    # (m-1)-word equal its recorded measure.
    shorter = level["values"][str(item["m"] - 1)] if item["m"] > 1 else {}
    letters = level["letters"]
    for v, entry in shorter.items():
        base = _value(entry)
        if base is None:
            continue
        for side in ("right", "left"):
            exts = [v + a if side == "right" else a + v for a in letters]
            vals = [_value(table[w]) for w in exts if w in table]
            if any(x is None for x in vals):
                break
            total = sum(vals)
            if isinstance(base, Fraction) and isinstance(total, Fraction):
                ok = total == base
            else:
                ok = _close(float(total), float(base), 1e-9)
            if not ok:
                return f"Kolmogorov {side} sum of {v!r} is {total}, expected {base}"
    return None


def check_empirical(corpus: dict, item: dict, ref: dict, out: dict) -> str | None:
    if out["power"] != ref["power"]:
        return f"power {out['power']} != reference {ref['power']}"
    if out["ratio"] != ref["count"] / item["L"]:
        return f"ratio {out['ratio']} != reference {ref['count']}/{item['L']}"
    level = corpus["systems"][item["system"]]["levels"][str(item["level"])]
    scaled = level.get("scaled", {}).get(item["word"])
    got = out.get("scaled")
    if (scaled is None) != (got is None):
        return "scaled power data present on one side only"
    if scaled is not None and (got[0], got[1]) != (scaled[0], scaled[1]):
        return f"scaled (power, count) {got[:2]} != recorded {scaled[:2]}"
    return None


def uniformity_target(corpus: dict, item: dict) -> float:
    """mu(v) over the mass of the |v|-words that start with a new letter."""
    level = corpus["systems"][item["system"]]["levels"][str(item["level"])]
    values = level["values"][str(len(item["word"]))]
    new = set(level["new"])
    mass = sum(_value(e) for w, e in values.items() if w[0] in new)
    return float(_value(values[item["word"]]) / mass)


def check_uniformity(corpus: dict, item: dict, ref: dict, out: dict) -> str | None:
    if out["window_count"] != ref["n"]:
        return f"window count {out['window_count']} != {ref['n']}"
    for j in ref["offsets"]:
        want = ref["counts"][j] / ref["n"]
        if out["ratios"].get(str(j)) != want:
            return f"ratio at offset {j}: {out['ratios'].get(str(j))} != reference {want}"
    target = uniformity_target(corpus, item)
    if not _close(out["target"], target, 1e-9):
        return f"target {out['target']} != recorded {target}"
    return None


def check_tower(item: dict, out: dict) -> str | None:
    n = item["n"]
    if out["levels"] != n or out["report_levels"] != n:
        return f"{out['levels']} levels, {out['report_levels']} reported, expected {n}"
    if out["new_letters"] != list(item["labels"]):
        return "levels do not add the tower letters in order"
    if out["thetas"] != item["r"]:
        return "level eigenvalues differ from the construction"
    if out["witness_k"] != n - 1:
        return f"witness_k {out['witness_k']} != {n - 1}"
    return None

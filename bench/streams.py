"""Seeded request streams for the three benchmark workloads.

A stream is a sequence of blocks. Every block of a workload holds the same
request classes in the same numbers, in the same shuffled order. Each
parameter that drives a request's cost (k, n, eps, delta, slot pattern,
histogram size) is drawn in a fixed cell of its range: the cells come from
a design that is the same for every block of every seed, and the seed only
places each draw inside its cell (``Draws``). A run that completes whole
blocks therefore measures nearly the same work, whichever seed made it, so
its median and 90th percentile do not hinge on the seed. Parameters are
still drawn from a continuous range, so no request repeats exactly.

Requests are plain JSON-ready dicts with a ``cls`` key. This module uses
only the standard library: a stream is reproducible from its seed alone and
its digest does not depend on numpy or on the program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import Iterator

WORKLOADS = ("pricing", "release", "cli")

# Histogram sizes of the release workload: 7 log-spaced sizes, 1e3 .. 1e6.
RELEASE_SIZES = tuple(round(10 ** (3 + i / 2)) for i in range(7))
# Copies of each (mode, size) pair in one release block. Small histograms
# come most often, as they do in practice, so the median request is a small
# one; every size is in every block, and a block holds the 100 requests a
# run needs. With 30 small copies the median falls among the small lsnoise
# releases rather than the small trunc-gauss ones, the slowest small kind,
# whose time swings with the host's speed 1.5 times as much as the
# reference task's (see worker.py), so that scaling would not cancel it.
_SIZE_WEIGHTS = (30, 2, 2, 1, 1, 1, 1)
_SIZE_SLOTS = tuple(d for d, w in zip(RELEASE_SIZES, _SIZE_WEIGHTS) for _ in range(w))
# k of the smallest histograms lies in [1, _SMALL_K]; the larger sizes
# split (_SMALL_K, 200] among themselves.
_SMALL_K = 30
_RELEASE_MODES = ("lsnoise", "known-lap", "known-gauss", "trunc-gauss")
_AUDITS = ("composed-dp", "two-point", "trunc-gauss")
AUDIT_TRIALS = 10**6
RELEASE_DELTA0 = 50

# Slot patterns of the adaptive class: 2..4 slots, one or two BR slots.
_ONE_BR = [p for n in (2, 3, 4) for p in itertools.product(("dp", "br"), repeat=n)
           if p.count("br") == 1]
_TWO_BR = {n: [p for p in itertools.product(("dp", "br"), repeat=n)
               if p.count("br") == 2] for n in (2, 3, 4)}

# Pricing block: 40 requests, shares 42.5 / 10 / 22.5 / 12.5 / 12.5 percent.
# Most inversions take under 8 ms and most calibrations 10-16 ms, with few
# requests in between; these shares put the median inside the calibrations,
# where requests lie densely, so that it does not jump across that gap.
_INVERT_BOUNDS = ("dp",) * 6 + ("br",) * 6 + ("mixed",) * 5
_PRICING_COUNTS = {"curve": 4, "calibrate": 9, "adaptive": 5, "ledger": 5}


# A uniform draw lands in one of CELLS equal cells of its range.
CELLS = 16


class Draws:
    """The random source of one block: a design cell plus a seeded offset.

    ``random()`` picks its cell from the design generator, which restarts
    identically for every block of every seed, and its place inside the
    cell from the seeded generator. Choices and shuffles come from the
    design alone; ``getrandbits`` (mechanism seeds) from the seed alone.
    """

    def __init__(self, seeded: random.Random, design: random.Random) -> None:
        self.seeded = seeded
        self.design = design

    def random(self) -> float:
        return (int(self.design.random() * CELLS) + self.seeded.random()) / CELLS

    def choice(self, seq):
        return self.design.choice(seq)

    def shuffle(self, items: list) -> None:
        self.design.shuffle(items)

    def getrandbits(self, k: int) -> int:
        return self.seeded.getrandbits(k)


def _uniform(rng: Draws, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _log_uniform(rng: Draws, lo: float, hi: float) -> float:
    return math.exp(_uniform(rng, math.log(lo), math.log(hi)))


def stratified_ints(rng: Draws | random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal strata.

    The strata come back in shuffled order, so position in a block says
    nothing about size, while every block spans the whole range.
    """
    width = hi - lo + 1
    out = [lo + int(width * (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ pricing


def _invert(rng: Draws, bound: str, k: int) -> dict:
    req = {
        "cls": "invert",
        "bound": bound,
        "k": k,
        "eps": _log_uniform(rng, 0.02, 1.0),
        "delta": _log_uniform(rng, 1e-10, 1e-3),
    }
    if bound == "mixed":
        req["m"] = 1 + int(rng.random() * (k - 1))
    return req


def _curve(rng: Draws, k: int) -> dict:
    lo = _uniform(rng, -0.5, 0.0)
    return {
        "cls": "curve",
        "k": k,
        "m": int(rng.random() * (k + 1)),
        "eps": _log_uniform(rng, 0.02, 0.5),
        "eps_g_lo": lo,
        "eps_g_hi": lo + _uniform(rng, 0.5, 3.0),
        "points": 101,
    }


def _calibrate(rng: Draws, k: int) -> dict:
    return {
        "cls": "calibrate",
        "k": k,
        "delta0": 1 + int(rng.random() * 50),
        "sigma": _log_uniform(rng, 2.0, 50.0),
        "delta": _log_uniform(rng, 1e-9, 1e-4),
        "eps": _log_uniform(rng, 0.05, 2.0),
    }


def _adaptive(rng: Draws, slots: tuple[str, ...]) -> dict:
    eps = _log_uniform(rng, 0.1, 1.5)
    return {
        "cls": "adaptive",
        "slots": list(slots),
        "eps": eps,
        "eps_g": _uniform(rng, -0.5, 1.5) * eps,
    }


def _registration(rng: Draws) -> dict:
    kind = rng.choice(("pure_dp", "br", "cdp"))
    if kind == "pure_dp":
        return {"tag": kind, "eps": _log_uniform(rng, 0.01, 1.0)}
    if kind == "br":
        return {"tag": kind, "alpha": _log_uniform(rng, 0.01, 1.0)}
    tau = _log_uniform(rng, 0.01, 0.5)
    return {"tag": kind, "mu": tau * tau / 2.0, "tau": tau}


def _ledger(rng: Draws, n: int) -> dict:
    regs: list[dict] = []
    for _ in range(n):
        # about a third repeat an earlier guarantee exactly, as repeated
        # queries at one budget do
        if regs and rng.design.random() < 0.3:
            regs.append(dict(rng.choice(regs)))
        else:
            regs.append(_registration(rng))
    order = list(range(n))
    rng.shuffle(order)
    return {
        "cls": "ledger",
        "delta_slack": _log_uniform(rng, 1e-9, 1e-5),
        "delta": _log_uniform(rng, 1e-9, 1e-5),
        "registrations": regs,
        "consume_order": order,
    }


def _pricing_block(rng: Draws, index: int) -> list[dict]:
    ks = {
        "dp": iter(stratified_ints(rng, 1, 200, _INVERT_BOUNDS.count("dp"))),
        "br": iter(stratified_ints(rng, 1, 40, _INVERT_BOUNDS.count("br"))),
        "mixed": iter(stratified_ints(rng, 2, 30, _INVERT_BOUNDS.count("mixed"))),
    }
    block = [_invert(rng, b, next(ks[b])) for b in _INVERT_BOUNDS]
    block += [_curve(rng, k) for k in stratified_ints(rng, 2, 30, _PRICING_COUNTS["curve"])]
    block += [_calibrate(rng, k)
              for k in stratified_ints(rng, 1, 10, _PRICING_COUNTS["calibrate"])]
    # two one-BR sequences and one two-BR sequence of each length; the
    # patterns take turns, so any 6 blocks in a row hold every two-BR one
    patterns = [_ONE_BR[(2 * index + j) % len(_ONE_BR)] for j in (0, 1)]
    patterns += [_TWO_BR[n][index % len(_TWO_BR[n])] for n in (2, 3, 4)]
    block += [_adaptive(rng, p) for p in patterns]
    block += [_ledger(rng, n)
              for n in stratified_ints(rng, 20, 300, _PRICING_COUNTS["ledger"])]
    return block


# ------------------------------------------------------------------ release


def _release(rng: Draws, mode: str, d: int, k: int) -> dict:
    req = {"cls": mode, "d": d, "seed": rng.getrandbits(32)}
    if mode in ("lsnoise", "known-lap"):
        req["k"] = min(k, d)
        req["eps"] = _log_uniform(rng, 0.05, 1.0)
    if mode != "known-lap":
        req["sigma"] = _log_uniform(rng, 1.0, 20.0)
    if mode == "trunc-gauss":
        req["delta"] = _log_uniform(rng, 1e-10, 1e-5)
    return req


def _audit(rng: Draws, kind: str, stratum: int) -> dict:
    req = {"cls": "audit", "kind": kind, "trials": AUDIT_TRIALS,
           "seed": rng.getrandbits(32)}
    eps = _log_uniform(rng, 0.1, 1.0)
    if kind == "composed-dp":
        k = 1 + 2 * stratum + int(rng.random() * 2)  # k in 1..2, 3..4, 5..6
        req.update(k=k, eps=eps, eps_g=_uniform(rng, 0.0, 0.5) * k * eps)
    elif kind == "two-point":
        req.update(eps=eps, t=_uniform(rng, 0.0, 1.0) * eps,
                   eps_g=_uniform(rng, 0.0, 0.5) * eps)
    else:
        req.update(sigma=_log_uniform(rng, 1.0, 10.0),
                   delta=_log_uniform(rng, 1e-10, 1e-5))
    return req


def _k_ranges() -> list[tuple[int, int]]:
    """k range of each size slot, together covering [1, 200].

    k grows with the histogram: the smallest size splits [1, _SMALL_K], and
    the larger sizes split the rest with the middle of it going to the
    largest sizes. A slot keeps its range in every block, so the work at
    each size is steady whatever the seed.
    """
    n_small = _SIZE_WEIGHTS[0]
    n_large = len(_SIZE_SLOTS) - n_small
    small = [(1 + _SMALL_K * j // n_small, _SMALL_K * (j + 1) // n_small) for j in range(n_small)]
    width = (200 - _SMALL_K) / n_large
    strata = [(_SMALL_K + 1 + int(width * j), _SMALL_K + int(width * (j + 1)))
              for j in range(n_large)]
    middle_first = sorted(range(n_large), key=lambda j: (abs(j - (n_large - 1) / 2), j))
    return small + [strata[j] for j in middle_first[::-1]]


def _release_block(rng: Draws, index: int) -> list[dict]:
    block = []
    for mode in _RELEASE_MODES:
        for d, (lo, hi) in zip(_SIZE_SLOTS, _k_ranges()):
            block.append(_release(rng, mode, d, lo + int(rng.random() * (hi - lo + 1))))
    # about 10% audits: five of each kind
    block += [_audit(rng, kind, i % 3) for kind in _AUDITS for i in range(5)]
    return block


# ---------------------------------------------------------------------- cli

# Corpora the cli workload writes once per run: (file suffix, size d).
CLI_CORPORA = (("json", 1000), ("csv", 3162), ("txt", 10000))


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli_block(rng: Draws, index: int) -> list[dict]:
    """One invocation of every subcommand; argv holds no file paths.

    ``{corpus:<suffix>}``, ``{config}`` and ``{out}`` placeholders are
    filled by the runner with files in its temporary directory.
    """
    eps = lambda lo, hi: _fmt(_log_uniform(rng, lo, hi))  # noqa: E731
    delta = lambda: _fmt(_log_uniform(rng, 1e-10, 1e-4))  # noqa: E731
    k_mixed = 2 + int(rng.random() * 29)
    adaptive = _TWO_BR[3][index % len(_TWO_BR[3])]
    adaptive_eps = _log_uniform(rng, 0.1, 1.5)
    grid_lo = _uniform(rng, 0.0, 0.5)
    tp_eps = _log_uniform(rng, 0.1, 1.0)
    argvs = [
        ["compose", "dp", "--k", str(1 + int(rng.random() * 200)), "--eps",
         eps(0.02, 1.0), "--invert", "--delta", delta()],
        ["compose", "br", "--k", str(1 + int(rng.random() * 40)), "--eps",
         eps(0.02, 1.0), "--invert", "--delta", delta()],
        ["compose", "mixed", "--k", str(k_mixed), "--m",
         str(1 + int(rng.random() * (k_mixed - 1))), "--eps", eps(0.02, 1.0),
         "--invert", "--delta", delta()],
        ["compose", "mixed", "--k", str(k_mixed), "--m",
         str(int(rng.random() * (k_mixed + 1))), "--eps", eps(0.02, 0.5),
         "--eps-g-grid", f"{grid_lo:.4f}:{grid_lo + 2:.4f}:0.02", "-o", "{out}"],
        ["compose", "adaptive", "--slots", ",".join(adaptive), "--eps",
         _fmt(adaptive_eps), "--eps-g", _fmt(_uniform(rng, -0.5, 1.5) * adaptive_eps)],
        ["compose", "setwise", "--config", "{config}", "--delta", delta()],
        ["calibrate", "--route", rng.choice(("analytic", "zcdp")), "--eps",
         eps(0.05, 2.0), "--delta", delta(), "--delta0", str(1 + int(rng.random() * 50))],
        ["compare", "kfold", "--delta0", str(1 + int(rng.random() * 50)), "--sigma",
         eps(2.0, 50.0), "--delta", delta(), "--k", str(1 + int(rng.random() * 10)),
         "-o", "{out}"],
        ["figures", "2", "-o", "{out}"],
        ["figures", "3", "-o", "{out}"],
        ["figures", "7", "-o", "{out}"],
        ["audit", "two-point", "--eps", _fmt(tp_eps), "--t", _fmt(tp_eps * rng.random()),
         "--eps-g", _fmt(_uniform(rng, 0.0, 0.1)), "--seed", str(rng.getrandbits(31)),
         "-o", "{out}"],
        ["audit", "composed-dp", "--k", str(1 + int(rng.random() * 5)), "--eps",
         eps(0.1, 0.5), "--eps-g", _fmt(_uniform(rng, 0.0, 0.3)),
         "--seed", str(rng.getrandbits(31)), "-o", "{out}"],
    ]
    suffixes = [s for s, _ in CLI_CORPORA]
    rng.shuffle(suffixes)
    modes = ["lsnoise", "known-lap", "known-gauss", "trunc-gauss"]
    for i, mode in enumerate(modes):
        argv = ["topk", "--mode", mode, "--input", "{corpus:%s}" % suffixes[i % 3],
                "--seed", str(rng.getrandbits(31)), "-o", "{out}"]
        if mode in ("lsnoise", "known-lap"):
            argv += ["--k", str(1 + int(rng.random() * 200)), "--eps", eps(0.05, 1.0)]
        if mode != "known-lap":
            argv += ["--sigma", eps(1.0, 20.0)]
        if mode == "trunc-gauss":
            argv += ["--delta", delta()]
        argvs.append(argv)
    block = [{"cls": argv[0] if argv[0] != "compose" else "compose-" + argv[1],
              "argv": argv} for argv in argvs]
    # the setwise replay gets its own accountant: a few hundred
    # registrations, half of them consumed
    setwise = next(r for r in block if r["cls"] == "compose-setwise")
    setwise["ledger"] = _ledger(rng, 200 + int(rng.random() * 201))
    return block


_BLOCKS = {"pricing": _pricing_block, "release": _release_block, "cli": _cli_block}


def blocks(workload: str, seed: int) -> Iterator[list[dict]]:
    """Endless seeded sequence of request blocks for one workload.

    Every block runs its slots in one fixed shuffled order, the same for
    every seed, so no seed puts its small requests in a luckier place
    (say, right after a large one) than another seed does. The shuffle
    spreads each kind of request over the whole block, so the median and
    90th percentile sample the host over the whole run, not over the few
    seconds one kind would take if it ran in a row.
    """
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    seeded = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    order: list[int] = []
    for index in itertools.count():
        block = make(Draws(seeded, random.Random(f"{workload}:design")), index)
        if not order:
            order = list(range(len(block)))
            random.Random(f"{workload}:order").shuffle(order)
        yield [block[i] for i in order]


def digest(workload: str, seed: int, n_blocks: int = 2) -> str:
    """sha256 of the first ``n_blocks`` blocks, for reproducibility checks."""
    gen = blocks(workload, seed)
    payload = [next(gen) for _ in range(n_blocks)]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

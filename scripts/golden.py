#!/usr/bin/env python3
"""Golden CLI outputs: one committed record of what each command prints.

Usage: PYTHONPATH=src python3 scripts/golden.py [--update]

Runs a fixed list of `dpcomp` argvs in process through `dpcomp.cli.main`
and records, for each, its exit code, its stdout bytes, the last line of
its stderr and every `-o` file it wrote.  Without --update it compares
against tests/golden/cli.txt and prints each difference; with --update it
rewrites that file, so a deliberate output change is a visible diff.

The file's header names the Python, numpy and scipy versions and the
platform.  On a matching host the comparison is byte for byte; on any
other it compares each number within 4 ulps and every other character
exactly.  tests/test_golden.py runs the same comparison.
"""

from __future__ import annotations

import contextlib
import io
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from dpcomp import BoundedRange, Cdp, PureDP, SetwiseAccountant, Zcdp
from dpcomp.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
RECORD = GOLDEN / "cli.txt"
ULPS = 4

_COUNTS = "--input {golden}/counts.csv"
_TOPK = {
    "known-lap": "--k 5 --eps 0.5",
    "known-gauss": "--sigma 2 --k 10",
    "lsnoise": "--k 5 --eps 0.5 --sigma 2",
    "trunc-gauss": "--sigma 2 --delta 1e-6",
}

# every dpcomp call of the CI console-script step, with the same inputs
_CI = """
compose dp --k 10 --eps 1e8 --invert --delta 1e-6
compose br --k 20 --eps 0.3 --invert --delta 1e-6
compose br --k 1 --eps 0.037 --invert --delta 8.2e-9
compose dp --k 3 --eps 1e308 --eps-g 1
compose dp --k 1000000000 --eps 0.001 --eps-g 1
compose mixed --k 20000 --m 10000 --eps 0.001 --eps-g 1
compose br --k 20 --eps 3.7e7 --invert --delta 0.999
compose mixed --k 20 --m 10 --eps 0.1 --eps-g-grid 0:3:0.01 -o {tmp}/curve.csv
compose mixed --k 30 --m 20 --eps 0.09 --eps-g-grid 0:3:0.03 -o {tmp}/curve30.csv
compose mixed --k 12 --m 4 --eps 1000 --eps-g-grid 0:12000:120 -o {tmp}/curve_eps1000.csv
compose br --k 200 --eps 5 --eps-g-grid 0:1000:10 -o {tmp}/br200.csv
compose dp --k 200 --eps 0.05 --eps-g-grid=-1:20:0.2 -o {tmp}/dp200.csv
compose mixed --k 40 --m 10 --eps 1e6 --eps-g-grid 0:3e7:3e5 -o {tmp}/mixed_eps1e6.csv
compose mixed --k 20 --m 7 --eps 1e6 --invert --delta 1e-6
compose br --k 25 --eps 0.12 --eps-g-grid 0:3:0.03
calibrate --route analytic --eps 1 --delta 1e-6
calibrate --route analytic --eps 0 --delta 1e-30
calibrate --route analytic --eps 1e300 --delta 0.5
calibrate --route zcdp --eps 1 --delta 1e-6 -o {tmp}/x
calibrate --route analytic --eps 1 --delta 1e-6 --delta0 0
compose setwise --config {tmp}/accountant.json --delta 1e-6
compose setwise --config {tmp}/accountant.json --delta 1e-6 --k 3
compose dp --k 10 --eps 0.1 --eps-g 1 -o {tmp}/scalar.txt
compose setwise --config {tmp}/accountant4.json --delta 1e-6
compose setwise --config {tmp}/accountant4.json --delta 5e-324
calibrate --route zcdp --eps 1 --delta 5e-324 --delta0 5
compose setwise --config {tmp}/array.json --delta 1e-6
compose adaptive --slots br,br --eps 1 --eps-g 0.3
compose adaptive --slots br,dp,br,dp --eps 0.5 --eps-g -0.2
compose adaptive --slots br,dp,br --eps 1e308 --eps-g 0.3
calibrate --route analytic --eps 1.7e308 --delta 1e-6
calibrate --route zcdp --eps 1.7e308 --delta 1e-6 --delta0 5
calibrate --route zcdp --eps 5e-324 --delta 1e-6 --delta0 5
compare kfold --k 5 --delta0 10 --sigma 10 --delta 1e-6
compose dp --k 3 --eps 0.5 --eps-g-grid 0:inf:1
compose dp --k 3 --eps 0.5 --eps-g-grid 0:1:1e-300
compare single --delta0 0 --sigma 10 --delta 1e-6
compare single --delta0 10000 --sigma 1e-300 --delta 1e-6 --tau 1e6
topk --mode known-lap {counts} --k 5 --eps 0.5
topk --mode known-gauss {counts} --sigma 2 --k 5
topk --mode known-gauss {counts} --sigma 2
topk --mode known-gauss {counts} --sigma 2 --format json
topk --mode known-gauss {counts} --sigma 2 --k 51
topk --mode known-gauss {counts} --sigma 1e308 --tau 1
topk --mode known-gauss {counts} --sigma 2 --delta 1e-6
topk --mode trunc-gauss {counts} --sigma 2 --delta 1e-6 --k 51
topk --mode lsnoise {counts} --k 5 --eps 0.5 --sigma 2
topk --mode lsnoise {counts} --k 50 --eps 0.5 --sigma 2
topk --mode known-lap {counts} --k 5 --eps 1e-320
topk --mode trunc-gauss {counts} --sigma 2 --delta 1e-6 --d-bar 100
topk --mode known-gauss --input {golden}/dup.csv --sigma 2
audit composed-dp --k 12 --eps 0.1 --eps-g 0.5 --seed 1
audit trunc-gauss --sigma 2 --delta 1e-6
audit trunc-gauss --sigma 0.341 --delta 0.5 --tau 0.121
audit trunc-gauss --sigma 1e17 --delta 1e-6
audit trunc-gauss --sigma 1e-300 --tau 1e-300 --delta 0.999999 --delta0 25 --conversion-delta 1
audit trunc-gauss --sigma 5e-324 --delta 0.5 --tau 1
audit two-point --eps 800 --t 400 --eps-g 710
audit trunc-gauss --sigma 2 --delta 1e-6 --trials 1000000 --seed 3
"""

_MORE = """
audit two-point --eps 1 --t 0.5 --eps-g 0.5 --trials 100000 --seed 2
audit composed-dp --k 5 --eps 0.3 --eps-g 1 --trials 100000 --seed 2
audit trunc-gauss --sigma 1.5 --delta 1e-5 --delta0 3 --trials 100000 --seed 2
topk --mode known-gauss {counts} --sigma 1e-17 --seed 1
topk --mode known-lap {counts} --k 36 --eps 1e17 --seed 1
compare single --delta0 25 --sigma 5 --delta 1e-6
compare kfold --k 10 --delta0 25 --sigma 5 --delta 1e-6 --tau 0.5 --format json
calibrate --route zcdp --eps 1 --delta 1e-6 --delta0 5
calibrate --route analytic --eps 0.5 --delta 1e-9 --delta0 5
topk --mode trunc-gauss {counts} --sigma 1e-200 --delta 1e-6
audit trunc-gauss --sigma 1e-12 --delta 1e-6
compose dp --k 10 --eps 0.5 --invert --delta 1e-6
compare kfold --k 10 --delta0 50 --sigma 2 --delta 1e-9
audit trunc-gauss --sigma 1 --tau 100 --delta 1e-6 --seed 4
audit trunc-gauss --sigma 50 --tau 0.01 --delta 1e-9 --seed 5
"""


def cases() -> list[str]:
    """The recorded argvs, with {golden} and {tmp} for their directories."""
    out = _CI.strip().splitlines()
    out += [f"figures {n} --seed 0" for n in range(1, 8)]
    for source in ("{counts}", "--input {golden}/corpus.txt"):
        for mode, options in _TOPK.items():
            out += [f"topk --mode {mode} {source} {options} --seed {s}" for s in (1, 2, 3)]
    out = [line.replace("{counts}", _COUNTS) for line in out + _MORE.strip().splitlines()]
    assert len(set(out)) == len(out), "an argv is listed twice"
    return out


def _write_inputs(tmp: Path) -> None:
    # the accountant files the CI step writes, by the same library calls
    a = SetwiseAccountant()
    a.register(PureDP(0.5)).register(Cdp(0.1, 0.4)).consume(PureDP(0.5))
    (tmp / "accountant.json").write_text(a.to_json())
    a = SetwiseAccountant()
    a.register(PureDP(0.5)).register(BoundedRange(0.3)).register(Cdp(0.1, 0.4))
    a.register(Zcdp(1e-9, -0.01, 0.2)).consume(BoundedRange(0.3))
    (tmp / "accountant4.json").write_text(a.to_json())
    (tmp / "array.json").write_text("[]\n")


# one-line blocks; the others are a length in characters, then the text
_LINES = ("exit", "stderr")


def _run(template: str, tmp: Path) -> list[tuple[str, str]]:
    """(block name, text) pairs of one case, paths put back as placeholders."""
    argv = [word.format(golden=GOLDEN, tmp=tmp) for word in template.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    blocks = [("exit", str(code)), ("stdout", out.getvalue())]
    lines = err.getvalue().splitlines()
    blocks.append(("stderr", lines[-1] if lines else ""))
    if "-o" in argv:
        path = Path(argv[argv.index("-o") + 1])
        if path.exists():
            blocks.append((f"file {path.name}", path.read_text(encoding="utf-8")))
    placeholders = ((str(tmp), "{tmp}"), (str(GOLDEN), "{golden}"))
    for real, mark in placeholders:
        blocks = [(name, text.replace(real, mark)) for name, text in blocks]
    return blocks


def host() -> str:
    libc = "-".join(filter(None, platform.libc_ver())) or "no-libc"
    return (
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} {platform.system()} {platform.machine()} {libc}"
    )


def render() -> str:
    """The record of every case, as cli.txt holds it."""
    parts = [
        "# dpcomp golden CLI outputs; rewrite: PYTHONPATH=src python3 scripts/golden.py --update\n",
        f"# host: {host()}\n",
    ]
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name).resolve()
        _write_inputs(tmp)
        for template in cases():
            parts.append(f"$ dpcomp {template}\n")
            for block, text in _run(template, tmp):
                if block in _LINES:
                    parts.append(f"{block} {text}\n")
                else:
                    parts.append(f"{block} {len(text)}\n{text}\n")
    return "".join(parts)


def parse(text: str) -> tuple[str, dict[str, list[tuple[str, str]]]]:
    """(host, {argv: [(block name, text), ...]}) from a rendered record."""
    _, host_line, rest = text.split("\n", 2)
    cases_: dict[str, list[tuple[str, str]]] = {}
    pos = 0
    while pos < len(rest):
        end = rest.index("\n", pos)
        head, pos = rest[pos:end], end + 1
        if head.startswith("$ dpcomp "):
            blocks = cases_.setdefault(head.removeprefix("$ dpcomp "), [])
        elif head.partition(" ")[0] in _LINES:
            blocks.append(tuple(head.split(" ", 1)))
        else:
            name, size = head.rsplit(" ", 1)
            blocks.append((name, rest[pos : pos + int(size)]))
            pos += int(size) + 1
    return host_line.removeprefix("# host: "), cases_


_NUMBER = re.compile(r"[-+]?(?:inf(?:inity)?|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return True
    return abs(x - y) <= ULPS * math.ulp(max(abs(x), abs(y)))


def differences(expected: str, actual: str) -> tuple[list[str], str]:
    """(one line per case or block that differs, a count of differing numbers).

    Where both records come from the same host a block must match byte for
    byte; elsewhere its text outside numbers must match and each number
    must lie within ULPS ulps.
    """
    want_host, want = parse(expected)
    got_host, got = parse(actual)
    exact = want_host == got_host
    report, changed, off = [], 0, 0
    for argv in sorted(want.keys() | got.keys()):
        if argv not in got or argv not in want:
            report.append(f"{argv}: {'missing' if argv not in got else 'not recorded'}")
        elif [n for n, _ in want[argv]] != [n for n, _ in got[argv]]:
            report.append(f"{argv}: blocks {[n for n, _ in got[argv]]}")
        for (name, a), (_, b) in zip(want.get(argv, ()), got.get(argv, ())):
            if a == b:
                continue
            pairs = list(zip(_NUMBER.findall(a), _NUMBER.findall(b)))
            bad = sum(not _close(x, y) for x, y in pairs)
            changed += sum(x != y for x, y in pairs)
            off += bad
            if exact or bad or _NUMBER.split(a) != _NUMBER.split(b):
                report.append(f"{argv}: {name} differs ({bad} numbers past {ULPS} ulps)")
    return report, f"{changed} numbers differ, {off} by more than {ULPS} ulps"


def main() -> int:
    if sys.argv[1:] not in ([], ["--update"]):
        print(__doc__, file=sys.stderr)
        return 2
    fresh = render()
    if sys.argv[1:] == ["--update"]:
        RECORD.write_text(fresh, encoding="utf-8", newline="")
        print(f"wrote {RECORD} ({len(cases())} cases)")
        return 0
    report, summary = differences(RECORD.read_text(encoding="utf-8"), fresh)
    print("\n".join(report + [summary]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())

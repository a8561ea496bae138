#!/usr/bin/env python3
"""Golden CLI outputs: one committed record of what each command prints.

Usage: PYTHONPATH=src python3 scripts/golden.py [--update]

Runs each `dpcomp` argv of tests/golden/argv.txt, the one list of recorded
argvs, in process through `dpcomp.cli.main` and records, for each, its
exit code, its stdout bytes, the last line of its stderr and every `-o`
file it wrote.  Without --update it compares against tests/golden/cli.txt
and prints each difference; with --update it rewrites that file, so a
deliberate output change is a visible diff.  A new argv is appended to
argv.txt and recorded with --update before any change to src/, so the
record holds what the code printed before the change.

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
ARGVS = GOLDEN / "argv.txt"
RECORD = GOLDEN / "cli.txt"
ULPS = 4


def cases() -> list[str]:
    """The recorded argvs, with {golden} and {tmp} for their directories."""
    lines = ARGVS.read_text(encoding="utf-8").splitlines()
    out = [line for line in lines if line and not line.startswith("#")]
    assert len(set(out)) == len(out), "an argv is listed twice"
    return out


def _write_inputs(tmp: Path) -> None:
    # the accountant files that the setwise cases read
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

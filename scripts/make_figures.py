#!/usr/bin/env python3
"""Regenerate every figure's data file.

Usage: python3 scripts/make_figures.py [--output-dir DIR] [--seed N]

Each fig{N}.csv carries its parameters on a `# params:` line, so a file
can always be traced back to the exact invocation that produced it.
Rerunning with the same seed reproduces every file byte for byte.
"""

import argparse
import os
import sys

from dpcomp.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="figures")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.makedirs(args.output_dir, exist_ok=True)
    for figure in range(1, 8):
        code = cli_main(
            [
                "figures",
                str(figure),
                "-o",
                os.path.join(args.output_dir, f"fig{figure}.csv"),
                "--seed",
                str(args.seed),
            ]
        )
        if code != 0:
            print(f"figure {figure} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

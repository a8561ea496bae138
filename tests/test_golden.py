"""Every recorded CLI argv against tests/golden/cli.txt.

A deliberate output change rewrites the record with
`PYTHONPATH=src python3 scripts/golden.py --update`, so it shows as a diff.
"""

import importlib.util
import warnings
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_the_record():
    expected = golden.RECORD.read_text(encoding="utf-8")
    report, summary = golden.differences(expected, golden.render())
    assert not report, "\n".join(report[:20] + [summary])
    if golden.parse(expected)[0] != golden.host():
        warnings.warn(f"golden record from another host: {summary}")


def _record(host, stdout):
    return f"# golden\n# host: {host}\n$ dpcomp x\nexit 0\nstdout {len(stdout)}\n{stdout}\n"


def test_other_hosts_compare_numbers_within_ulps():
    base = _record("a", "k,delta\n3,0.10000000000000001\n")
    near = "k,delta\n3,0.10000000000000005\n"  # 3 ulps above
    far = "k,delta\n3,0.10000000000000007\n"  # 5 ulps above
    same_host = golden.differences(base, _record("a", near))[0]
    assert same_host == ["x: stdout differs (0 numbers past 4 ulps)"]
    assert golden.differences(base, _record("b", near)) == (
        [], "1 numbers differ, 0 by more than 4 ulps"
    )
    past = golden.differences(base, _record("b", far))[0]
    assert past == ["x: stdout differs (1 numbers past 4 ulps)"]
    assert golden.differences(base, _record("b", "k;delta\n3,0.10000000000000001\n"))[0]

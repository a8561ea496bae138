"""Every argv of tests/golden/argv.txt against tests/golden/cli.txt.

argv.txt is the one list of recorded CLI argvs; the CI workflow runs a few
of them through the installed console script, and each of those must be in
it.  A deliberate output change rewrites the record with
`PYTHONPATH=src python3 scripts/golden.py --update`, so it shows as a diff;
a new argv is recorded that way before any change to src/.
"""

import importlib.util
import re
import warnings
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPT = _ROOT / "scripts" / "golden.py"
_WORKFLOW = _ROOT / ".github" / "workflows" / "tests.yml"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_cli_outputs_match_the_record():
    expected = golden.RECORD.read_text(encoding="utf-8")
    report, summary = golden.differences(expected, golden.render())
    assert not report, "\n".join(report[:20] + [summary])
    if golden.parse(expected)[0] != golden.host():
        warnings.warn(f"golden record from another host: {summary}")


def test_ci_console_script_runs_recorded_argvs():
    recorded = golden.parse(golden.RECORD.read_text(encoding="utf-8"))[1]
    listed = golden.cases()
    runs = re.findall(r"(?:^|[\s;(])dpcomp (.+)$", _WORKFLOW.read_text(), re.M)
    assert runs
    for line in runs:
        argv = line.split(" || ")[0]
        assert argv in listed, f"{argv!r} is not in argv.txt"
        tested = re.findall(r"-eq (\d+)", line) or ["0"]
        assert tested == [dict(recorded[argv])["exit"]], argv


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

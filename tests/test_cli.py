"""End-to-end checks of the command-line surface.

Runs main() in process so exit codes, stdout, and written files are all
observable. The reproducibility tests compare full byte strings: the
same argv must give identical output.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import dpcomp
from dpcomp.adaptive import MechanismSequence, delta_opt_recursive
from dpcomp.calibration import HistogramSpec, analytic_gaussian_delta, solve_sigma_zcdp
from dpcomp.cli import _parse_grid, figure_data, load_histogram_counts, main, tokenize
from dpcomp.mechanisms import RngState, histogram_from_text, known_gauss, known_lap_topk
from dpcomp.nonadaptive import CompositionQuery, delta_opt_mixed, eps_inverse
from dpcomp.setwise import BoundedRange, Cdp, PureDP, SetwiseAccountant, Zcdp, convert_to_zcdp

CORPUS = "the quick brown fox jumps over the lazy dog the fox the dog\n"


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7"])
        assert code == 0
        assert float(out) > 0

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["compose", "wrongkind", "--k", "3", "--eps", "0.5"])
        assert code == 2

    def test_negative_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["compose", "dp", "--k", "-3", "--eps", "0.5", "--eps-g", "0.5"])
        assert code == 2
        assert "k" in err

    def test_malformed_grid_is_usage_error(self, capsys):
        for grid in ("0:1", "0:inf:1", "-inf:0:1", "0:1e400:1"):
            argv = ["compose", "dp", "--k", "3", "--eps", "0.5", f"--eps-g-grid={grid}"]
            code, _, _ = run(capsys, argv)
            assert code == 2, grid

    def test_oversized_grid_is_usage_error(self, capsys):
        # rejected from its size alone: "0:1:1e-300" would ask for ~1e300 points
        for grid in ("0:1:1e-300", "0:1e300:1e-300", "0:1:1e-6"):
            argv = ["compose", "dp", "--k", "3", "--eps", "0.5", f"--eps-g-grid={grid}"]
            code, out, err = run(capsys, argv)
            assert code == 2, grid
            assert out == "" and "more than 1000000 points" in err
        assert len(_parse_grid("0:0.999999:1e-6")) == 10**6

    def test_explicit_zero_or_low_cap_is_usage_error(self, capsys, tmp_path, corpus_file):
        four = tmp_path / "four.txt"
        four.write_text("a b c d")
        for argv in (
            ["compare", "single", "--delta0", "0", "--sigma", "10", "--delta", "1e-6"],
            ["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "2",
             "--eps", "1.0", "--delta0", "0"],
            ["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "2",
             "--eps", "1.0", "--d-bar", "0"],
            ["topk", "--mode", "known-gauss", "--input", corpus_file, "--sigma", "2.0",
             "--k", "0"],
            ["topk", "--mode", "known-gauss", "--input", corpus_file, "--sigma", "2.0",
             "--k", "-1", "--delta0", "1"],
            ["topk", "--mode", "trunc-gauss", "--input", str(four), "--sigma", "1.2",
             "--delta", "1e-3", "--delta0", "1", "--d-bar", "2"],
            ["calibrate", "--route", "analytic", "--eps", "1", "--delta", "1e-6",
             "--delta0", "0"],
            ["calibrate", "--route", "analytic", "--eps", "1", "--delta", "1e-6",
             "--delta0", "-4"],
        ):
            code, _, err = run(capsys, argv)
            assert code == 2, argv
            assert "invalid parameters" in err, argv

    def test_duplicate_element_is_usage_error(self, capsys, tmp_path):
        csv = tmp_path / "dup.csv"
        csv.write_text("element,count\na,5\nb,3\na,90\n")
        dup_json = tmp_path / "dup.json"
        dup_json.write_text('{"a": 5, "a": 90, "b": 3}')
        with pytest.raises(ValueError, match=r"line 4: element 'a'"):
            load_histogram_counts(str(csv))
        with pytest.raises(ValueError, match=r"element 'a'"):
            load_histogram_counts(str(dup_json))
        for path in (csv, dup_json):
            argv = ["topk", "--mode", "known-gauss", "--sigma", "0.001", "--input", str(path)]
            code, out, err = run(capsys, argv)
            assert code == 2, path
            assert out == ""
            assert "'a'" in err

    @pytest.mark.parametrize(
        "text, shown",
        [
            ('{"b": 3, "a": "7"}', '"7"'),
            ('{"b": 3, "a": true}', "true"),
            ('{"b": 3, "a": null}', "null"),
            ('{"b": 3, "a": [7]}', "[7]"),
            ('{"b": 3, "a": 1' + "0" * 400 + "}", "beyond the float range"),
        ],
        ids=["string", "bool", "null", "list", "400-digit-int"],
    )
    def test_json_count_that_is_not_a_float_is_usage_error(self, capsys, tmp_path, text, shown):
        path = tmp_path / "counts.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"count for 'a'"):
            load_histogram_counts(str(path))
        argv = ["topk", "--mode", "known-gauss", "--sigma", "1.0", "--input", str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "count for 'a'" in err and shown in err

    def test_k_above_d_is_usage_error(self, capsys, corpus_file):
        # the corpus has 8 distinct tokens
        for argv in (
            ["--mode", "known-gauss", "--sigma", "2.0", "--k", "9"],
            ["--mode", "known-lap", "--eps", "1.0", "--k", "9"],
        ):
            code, out, err = run(capsys, ["topk", "--input", corpus_file] + argv)
            assert code == 2, argv
            assert out == ""
            assert "k must be an integer in [1, 8], got 9" in err, argv

    def test_removed_grid_points_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys,
            ["compare", "kfold", "--k", "5", "--delta0", "10", "--sigma", "10",
             "--delta", "1e-6", "--grid-points", "5"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7", "--seed", "1"],
            ["compare", "single", "--delta0", "10", "--sigma", "10", "--delta", "1e-6",
             "--seed", "1"],
            ["compare", "single", "--delta0", "10", "--sigma", "10", "--delta", "1e-6",
             "--d", "20"],
            ["compare", "single", "--delta0", "10", "--sigma", "10", "--delta", "1e-6",
             "--d-bar", "30"],
            ["figures", "7", "--output-dir", "{tmp}"],
            ["audit", "two-point", "--eps", "1.0", "--t", "0.5", "--eps-g", "1.0",
             "--trials", "100000", "--format", "json"],
            ["calibrate", "--route", "zcdp", "--eps", "1", "--delta", "1e-6", "--seed", "1"],
            ["calibrate", "--route", "zcdp", "--eps", "1", "--delta", "1e-6",
             "--format", "json"],
            ["calibrate", "--route", "zcdp", "--eps", "1", "--delta", "1e-6",
             "-o", "{tmp}/sigma.txt"],
            ["calibrate", "--route", "analytic", "--eps", "1", "--delta", "1e-6",
             "--max-iter", "200"],
            ["compose", "setwise", "--config", "acc.json", "--delta", "1e-6", "--k", "3"],
            ["compose", "adaptive", "--slots", "dp,br", "--eps", "1.0", "--eps-g", "0.5",
             "--k", "3"],
            ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7", "--m", "2"],
            ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7", "--slots", "dp"],
            ["compare", "single", "--delta0", "10", "--sigma", "10", "--delta", "1e-6",
             "--k", "4"],
            ["audit", "two-point", "--eps", "1.0", "--t", "0.5", "--eps-g", "1.0",
             "--sigma", "3"],
            ["audit", "trunc-gauss", "--sigma", "2", "--delta", "1e-6", "--eps", "0.5"],
        ],
        ids=["compose-seed", "compare-seed", "compare-d", "compare-d-bar",
             "figures-output-dir", "audit-format", "calibrate-seed", "calibrate-format",
             "calibrate-output", "calibrate-max-iter", "setwise-k", "adaptive-k", "dp-m",
             "dp-slots", "single-k", "two-point-sigma", "trunc-gauss-eps"],
    )
    def test_option_the_command_does_not_read_is_usage_error(self, capsys, tmp_path, argv):
        # the option under test is the last but one word; argparse calls a
        # bare --d an ambiguous prefix of --delta0 and --delta
        code, out, err = run(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])
        assert code == 2
        assert out == ""
        assert f"option: {argv[-2]} " in err or f"arguments: {argv[-2]} " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"registered": [{"tag": "pure_dp"}], "consumed": [], "delta_slack": 1e-6}, "'eps'"),
            ({"registered": [{"tag": "pure_dp", "eps": 0.5}], "consumed": []}, "'delta_slack'"),
            ({"registered": [["pure_dp", 0.5]], "consumed": [], "delta_slack": 1e-6}, "object"),
            ([], "must be an object"),
            ({"registered": [], "consumed": 0, "delta_slack": 1e-6}, "'consumed' must be a list"),
        ],
        ids=["entry-field", "delta-slack", "entry-not-object", "top-level-array",
             "consumed-not-list"],
    )
    def test_malformed_accountant_is_usage_error(self, capsys, tmp_path, state, field):
        path = tmp_path / "acc.json"
        path.write_text(json.dumps(state))
        code, _, err = run(capsys, ["compose", "setwise", "--config", str(path), "--delta", "1e-6"])
        assert code == 2
        assert "invalid parameters" in err and field in err

    def test_invert_without_delta_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["compose", "dp", "--k", "3", "--eps", "0.5", "--invert"])
        assert code == 2

    def test_delta_without_invert_is_usage_error(self, capsys):
        for target in (["--eps-g", "0.7"], ["--eps-g-grid", "0:1:0.5"]):
            argv = ["compose", "dp", "--k", "3", "--eps", "0.5", "--delta", "1e-6"] + target
            code, out, err = run(capsys, argv)
            assert code == 2, target
            assert out == "" and "--invert and --delta go together" in err

    def test_eps_g_with_grid_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7",
             "--eps-g-grid", "0:1:0.5"],
        )
        assert code == 2
        assert out == "" and "not allowed with" in err

    def test_json_format_of_one_value_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "value.json"
        for target in (["--eps-g", "0.7"], ["--invert", "--delta", "1e-6"]):
            argv = ["compose", "br", "--k", "3", "--eps", "0.5", "--format", "json",
                    "-o", str(out_path)] + target
            code, out, err = run(capsys, argv)
            assert code == 2, target
            assert out == "" and "--eps-g-grid" in err
        assert list(tmp_path.iterdir()) == []

    def test_adaptive_invert_unsupported(self, capsys):
        code, _, _ = run(
            capsys,
            ["compose", "adaptive", "--slots", "dp,br", "--eps", "1.0", "--invert", "--delta", "1e-6"],
        )
        assert code == 2

    def test_exhausted_solver_is_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            ["calibrate", "--route", "analytic", "--eps", "0", "--delta", "1e-30"],
        )
        assert code == 3
        assert "converge" in err

    def test_bracket_error_names_the_last_point_tested(self, capsys):
        # 80 doublings from sigma = 1 test 2^0 .. 2^79, never 2^80
        code, _, err = run(
            capsys,
            ["calibrate", "--route", "analytic", "--eps", "0", "--delta", "1e-30"],
        )
        assert code == 3
        assert f"no point up to {2.0**79} passes after 80 doublings" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["compare", "single", "--delta0", "10000", "--sigma", "1e-300",
              "--delta", "1e-6", "--tau", "1e6"], "sigma^2"),
            (["audit", "trunc-gauss", "--sigma", "1e-300", "--tau", "1e-300",
              "--delta", "0.999999", "--delta0", "25", "--conversion-delta", "1"], "tau*sigma"),
            (["audit", "trunc-gauss", "--sigma", "5e-324", "--delta", "0.5", "--tau", "1"],
             "sigma^2"),
        ],
        ids=["compare-sigma-squared", "audit-tau-times-sigma", "audit-sigma-squared"],
    )
    def test_underflowing_noise_scale_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and f"invalid parameters: {name} underflows to 0" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "known-lap", "--k", "5", "--eps", "1e-320"],
             "tau/eps overflows to inf at tau = 1.0, eps = 1e-320"),
            (["--mode", "known-gauss", "--sigma", "1e308", "--tau", "10"],
             "tau*sigma overflows to inf at tau = 10.0, sigma = 1e+308"),
            (["--mode", "known-gauss", "--sigma", "1e-320", "--tau", "1e-10"],
             "tau*sigma underflows to 0 at tau = 1e-10, sigma = 1e-320"),
            (["--mode", "known-gauss", "--sigma", "1e308", "--tau", "1"],
             "tau*sigma times 9.08, its largest draw, overflows to inf at tau = 1.0, "
             "sigma = 1e+308"),
            (["--mode", "lsnoise", "--k", "5", "--eps", "0.5", "--sigma", "1e308", "--tau", "10"],
             "tau*sigma overflows to inf at tau = 10.0, sigma = 1e+308"),
            (["--mode", "trunc-gauss", "--sigma", "1e308", "--tau", "10", "--delta", "1e-6"],
             "tau*sigma overflows to inf at tau = 10.0, sigma = 1e+308"),
        ],
        ids=["known-lap-overflow", "known-gauss-overflow", "known-gauss-underflow",
             "known-gauss-draw-overflow", "lsnoise-overflow", "trunc-gauss-overflow"],
    )
    def test_noise_scale_out_of_range_names_its_operands(self, capsys, corpus_file, argv, message):
        # each operand is finite and positive, but the scale formed from
        # them is not; no option is called scale
        code, out, err = run(capsys, ["topk", "--input", corpus_file] + argv)
        assert code == 2
        assert out == "" and f"invalid parameters: {message}" in err

    def test_vanishing_window_mass_is_usage_error(self, capsys, corpus_file):
        # tau * sigma = 1e17 leaves the truncation window no float mass
        for argv in (
            ["audit", "trunc-gauss", "--sigma", "1e17", "--delta", "1e-6"],
            ["topk", "--mode", "trunc-gauss", "--input", corpus_file,
             "--sigma", "1e17", "--delta", "1e-6", "--delta0", "1"],
        ):
            code, out, err = run(capsys, argv)
            assert code == 2, argv
            assert out == ""
            assert "invalid parameters" in err and "rounds to 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "dp", "--k", "3", "--eps", "1e308", "--eps-g", "1"],
            ["compose", "br", "--k", "3", "--eps", "1e308", "--eps-g", "1"],
            ["compose", "mixed", "--k", "10", "--m", "3", "--eps", "1e308", "--eps-g", "inf"],
        ],
        ids=["dp", "br", "mixed"],
    )
    def test_overflowing_k_eps_is_usage_error(self, capsys, argv):
        # dp used to print nan and exit 0; br and mixed failed inside a sum
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and "invalid parameters: k*eps must be finite" in err

    def test_overflowing_adaptive_budget_is_usage_error(self, capsys):
        # 3 * 1e308 overflows; this used to print nan and exit 0
        argv = ["compose", "adaptive", "--slots", "br,dp,br", "--eps", "1e308", "--eps-g", "0.3"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and "invalid parameters: len(slots)*eps must be finite" in err

    def test_missing_input_is_exit_four(self, capsys):
        code, _, _ = run(capsys, ["compose", "setwise", "--config", "/does/not/exist.json"])
        assert code == 4

    def test_unwritable_output_is_exit_four(self, capsys):
        code, _, _ = run(
            capsys,
            ["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g-grid", "0:1:0.5",
             "--output", "/does/not/exist/out.csv"],
        )
        assert code == 4


class TestComposeCommand:
    def test_invert_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            ["compose", "dp", "--k", "25", "--eps", "0.1", "--invert", "--delta", "1e-6"],
        )
        assert code == 0
        want = eps_inverse(1e-6, "dp", 25, 0.1)
        assert float(out) == want
        assert float(out) == pytest.approx(2.08, abs=0.01)

    def test_invert_at_huge_eps_terminates(self):
        # a child process, so a hanging inversion fails the test instead of the run
        src = os.path.dirname(os.path.dirname(dpcomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "dpcomp", "compose", "dp", "--k", "10", "--eps", "1e8",
             "--invert", "--delta", "1e-6"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == eps_inverse(1e-6, "dp", 10, 1e8)

    def test_grid_csv_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            ["compose", "mixed", "--k", "4", "--m", "2", "--eps", "0.5", "--eps-g-grid", "0:1:0.5"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# params: ")
        assert lines[1] == "eps_g,delta"
        assert len(lines) == 5
        for line in lines[2:]:
            eg, delta = (float(x) for x in line.split(","))
            want = delta_opt_mixed(CompositionQuery(k=4, m=2, eps=0.5, eps_g=eg))
            assert delta == want  # 17g survives the round trip exactly

    def test_one_value_goes_to_output(self, capsys, tmp_path, corpus_file):
        # every leaf with -o: the file gets the bytes that stdout carries
        # without it, and stdout stays empty but for the path figures echoes
        for argv, value in (
            (["compose", "dp", "--k", "25", "--eps", "0.1", "--invert", "--delta", "1e-6"],
             eps_inverse(1e-6, "dp", 25, 0.1)),
            (["compose", "mixed", "--k", "20", "--m", "10", "--eps", "0.1", "--eps-g", "1"],
             delta_opt_mixed(CompositionQuery(k=20, m=10, eps=0.1, eps_g=1.0))),
            (["compose", "adaptive", "--slots", "br,br", "--eps", "1", "--eps-g", "0.3"],
             delta_opt_recursive(MechanismSequence(("br", "br"), 1.0), 0.3)),
            (["compose", "dp", "--k", "3", "--eps", "0.5", "--eps-g", "0.7"], None),
            (["compose", "br", "--k", "3", "--eps", "0.5", "--eps-g-grid", "0:1:0.25"], None),
            (["compose", "mixed", "--k", "4", "--m", "2", "--eps", "0.5",
              "--eps-g-grid", "0:1:0.5", "--format", "json"], None),
            (["compose", "adaptive", "--slots", "dp,br", "--eps", "1",
              "--eps-g-grid", "0:1:0.5"], None),
            (["compare", "single", "--delta0", "10", "--sigma", "10", "--delta", "1e-6"], None),
            (["compare", "kfold", "--delta0", "10", "--sigma", "10", "--delta", "1e-6",
              "--k", "3"], None),
            (["figures", "7"], None),
            (["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "3",
              "--eps", "1.0"], None),
            (["topk", "--mode", "known-gauss", "--input", corpus_file, "--sigma", "2",
              "--format", "json"], None),
            (["topk", "--mode", "lsnoise", "--input", corpus_file, "--k", "3",
              "--eps", "1.0", "--sigma", "2"], None),
            (["topk", "--mode", "trunc-gauss", "--input", corpus_file, "--sigma", "1.2",
              "--delta", "1e-3", "--delta0", "1"], None),
            (["audit", "two-point", "--eps", "1", "--t", "0.5", "--eps-g", "1"], None),
            (["audit", "composed-dp", "--k", "3", "--eps", "0.2", "--eps-g", "0.3"], None),
            (["audit", "trunc-gauss", "--sigma", "2", "--delta", "1e-6"], None),
        ):
            code, stdout, _ = run(capsys, argv)
            assert code == 0 and stdout, argv
            if value is not None:
                assert stdout == f"{value:.17g}\n"
            path = tmp_path / "value.txt"
            code, out, _ = run(capsys, argv + ["-o", str(path)])
            assert code == 0 and out == (f"{path}\n" if argv[0] == "figures" else ""), argv
            assert path.read_bytes() == stdout.encode(), argv

    def test_adaptive_single_point(self, capsys):
        code, out, _ = run(
            capsys,
            ["compose", "adaptive", "--slots", "dp,br,br", "--eps", "1.0", "--eps-g", "0.5"],
        )
        assert code == 0
        assert 0 < float(out) < 1

    def test_setwise_routes(self, capsys, tmp_path):
        acc = SetwiseAccountant()
        acc.register(PureDP(0.5)).register(Cdp(0.1, 0.4))
        cdp_path = tmp_path / "cdp.json"
        cdp_path.write_text(acc.to_json())
        code, out, _ = run(capsys, ["compose", "setwise", "--config", str(cdp_path), "--delta", "1e-6"])
        assert code == 0
        assert float(out) == acc.global_bound_cdp(1e-6)

        acc2 = SetwiseAccountant()
        acc2.register(PureDP(0.5)).register(Zcdp(1e-7, 0.0, 0.05))
        z_path = tmp_path / "z.json"
        z_path.write_text(acc2.to_json())
        code, out, _ = run(capsys, ["compose", "setwise", "--config", str(z_path), "--delta", "1e-6"])
        assert code == 0
        eps_g, total = (float(x) for x in out.split())
        want_eps, want_total = acc2.global_bound_zcdp(1e-6)
        assert (eps_g, total) == (want_eps, want_total)

    def test_setwise_delta_below_reciprocal_overflow_is_finite(self, capsys, tmp_path):
        # 1/5e-324 overflows a float, where -ln(5e-324) = 1074 ln 2; the
        # bound used to print inf
        acc = SetwiseAccountant()
        acc.register(PureDP(0.5)).register(BoundedRange(0.3)).register(Cdp(0.1, 0.4))
        acc.register(Zcdp(1e-9, -0.01, 0.2)).consume(BoundedRange(0.3))
        path = tmp_path / "accountant4.json"
        path.write_text(acc.to_json())
        code, out, _ = run(
            capsys, ["compose", "setwise", "--config", str(path), "--delta", "5e-324"]
        )
        assert code == 0
        eps_g, total = (float(x) for x in out.split())
        zs = [convert_to_zcdp(c) for c in acc.registered]
        xi_rho = sum(z.xi + z.rho for z in zs)
        rho = sum(z.rho for z in zs)
        want = xi_rho + 2.0 * math.sqrt(rho * 1074 * math.log(2.0))
        assert math.isfinite(eps_g) and eps_g == pytest.approx(want, rel=1e-14)
        assert total == 5e-324 + 1e-9

    @pytest.mark.parametrize(
        "entry, shown",
        [('{"tag": "pure_dp", "eps": "x"}', "field 'eps' must be a number"),
         ('{"tag": "br", "alpha": 1' + "0" * 400 + "}", "field 'alpha' must be a number")],
        ids=["string-eps", "400-digit-alpha"],
    )
    def test_setwise_field_that_is_not_a_float_is_usage_error(
        self, capsys, tmp_path, entry, shown
    ):
        # the 400-digit integer used to exit 1 with an OverflowError traceback
        path = tmp_path / "bad.json"
        path.write_text('{"registered": [' + entry + '], "consumed": [], "delta_slack": 1e-6}')
        code, out, err = run(capsys, ["compose", "setwise", "--config", str(path), "--delta", "1e-6"])
        assert code == 2 and out == ""
        assert shown in err


class TestCsvFormat:
    def test_provenance_line_and_precision(self, capsys):
        code, out, _ = run(
            capsys,
            ["compose", "dp", "--k", "3", "--eps", "0.1", "--eps-g-grid", "0:0.2:0.1"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# params: ")
        assert "eps=0.1" in lines[0]
        # every numeric cell must round-trip through float() exactly
        for line in lines[2:]:
            for cell in line.split(","):
                value = float(cell)
                assert f"{value:.17g}" == cell

    def test_json_format_parses(self, capsys):
        code, out, _ = run(
            capsys,
            ["compose", "dp", "--k", "3", "--eps", "0.1", "--eps-g-grid", "0:0.2:0.1",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["k"] == 3
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"eps_g", "delta"}


class TestReproducibility:
    def test_same_seed_same_bytes(self, capsys, corpus_file):
        argv = ["topk", "--mode", "lsnoise", "--input", corpus_file, "--k", "3",
                "--eps", "1.0", "--sigma", "2.0", "--seed", "11"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert first.strip()

    def test_figure_files_are_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["figures", "6", "--seed", "4", "--output", str(a)]) == 0
        assert main(["figures", "6", "--seed", "4", "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_is_zero(self, capsys, corpus_file):
        argv = ["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "2", "--eps", "1.0"]
        _, via_default, _ = run(capsys, argv)
        _, via_zero, _ = run(capsys, argv + ["--seed", "0"])
        _, via_seven, _ = run(capsys, argv + ["--seed", "7"])
        assert via_default == via_zero != via_seven

    def test_bad_seed_is_usage_error(self, capsys, corpus_file):
        argv = ["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "2", "--eps", "1.0"]
        for seed in ("-1", "not-a-number", "1.5"):
            code, out, err = run(capsys, argv + ["--seed", seed])
            assert code == 2, seed
            assert out == "" and "--seed" in err, seed


class TestTopkCommand:
    def test_known_lap_matches_library(self, capsys, corpus_file):
        code, out, _ = run(
            capsys,
            ["topk", "--mode", "known-lap", "--input", corpus_file, "--k", "3",
             "--eps", "1.0", "--seed", "7"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "rank,element,noisy_count"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]

        tokens = tokenize(CORPUS)
        d = len(set(tokens))
        spec = HistogramSpec(d=d, delta0=3, tau=1.0, d_bar=d)
        hist = histogram_from_text(tokens, spec=spec)
        want = known_lap_topk(hist, 3, 1.0, RngState(7))
        assert [(r[1], float(r[2])) for r in rows] == want

    def test_all_modes_run(self, capsys, corpus_file):
        for extra in (
            ["--mode", "known-lap", "--k", "2", "--eps", "1.0"],
            ["--mode", "known-gauss", "--sigma", "2.0", "--k", "2"],
            ["--mode", "lsnoise", "--k", "2", "--eps", "1.0", "--sigma", "2.0"],
            ["--mode", "trunc-gauss", "--sigma", "1.2", "--delta", "1e-3", "--delta0", "1"],
            ["--mode", "trunc-gauss", "--sigma", "1.2", "--delta", "1e-3", "--k", "1"],
        ):
            code, out, _ = run(capsys, ["topk", "--input", corpus_file, "--seed", "3"] + extra)
            assert code == 0
            assert out.splitlines()[1] == "rank,element,noisy_count"
        # trunc-gauss reads --k: it sets the default delta0 = min(k, d)
        assert " delta0=1 " in out.splitlines()[0] and " k=1 " in out.splitlines()[0]

    def test_known_gauss_writes_every_row_or_the_top_k(self, capsys, corpus_file):
        tokens = tokenize(CORPUS)
        d = len(set(tokens))
        spec = HistogramSpec(d=d, delta0=d, tau=1.0, d_bar=d)
        want = known_gauss(histogram_from_text(tokens, spec=spec), 2.0, RngState(5))
        argv = ["topk", "--mode", "known-gauss", "--input", corpus_file, "--sigma", "2.0",
                "--seed", "5", "--delta0", str(d)]
        for extra, n in (([], d), (["--k", "3"], 3), (["--k", str(d)], d)):
            code, out, _ = run(capsys, argv + extra)
            assert code == 0
            rows = [line.split(",") for line in out.strip().splitlines()[2:]]
            assert [(r[1], float(r[2])) for r in rows] == want[:n]
            code, out, _ = run(capsys, argv + extra + ["--format", "json"])
            rows = json.loads(out)["rows"]
            assert [(r["element"], r["noisy_count"]) for r in rows] == want[:n]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--mode", "known-lap", "--k", "2", "--eps", "0.5", "--sigma", "-3"],
            ["--mode", "known-lap", "--k", "2", "--eps", "0.5", "--delta", "1e-6"],
            ["--mode", "known-gauss", "--sigma", "2", "--eps", "0.5"],
            ["--mode", "known-gauss", "--sigma", "2", "--delta", "nan"],
            ["--mode", "lsnoise", "--k", "2", "--eps", "0.5", "--sigma", "2", "--delta", "1e-6"],
            ["--mode", "trunc-gauss", "--sigma", "2", "--delta", "1e-6", "--eps", "0.5"],
        ],
        ids=["known-lap-sigma", "known-lap-delta", "known-gauss-eps", "known-gauss-delta",
             "lsnoise-delta", "trunc-gauss-eps"],
    )
    def test_option_the_mode_does_not_read_is_usage_error(self, capsys, corpus_file, extra):
        # the option under test is the last but one word
        code, out, err = run(capsys, ["topk", "--input", corpus_file] + extra)
        assert code == 2
        assert out == ""
        assert f"topk --mode {extra[1]} does not read {extra[-2]}" in err

    @pytest.mark.parametrize("k", ["9", "0", "-5"])
    def test_trunc_gauss_k_is_range_checked(self, capsys, corpus_file, k):
        # --k only sets the default delta0 here, but is checked as in known-gauss
        argv = ["topk", "--mode", "trunc-gauss", "--input", corpus_file, "--sigma", "1.2",
                "--delta", "1e-3", "--k", k]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"k must be an integer in [1, 8], got {k}" in err

    def test_missing_mode_flags_are_usage_errors(self, capsys, corpus_file):
        code, _, _ = run(capsys, ["topk", "--mode", "lsnoise", "--input", corpus_file, "--k", "2"])
        assert code == 2

    def test_json_counts_input(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"a": 50, "b": 30, "c": 5}))
        code, out, _ = run(
            capsys,
            ["topk", "--mode", "known-lap", "--input", str(path), "--k", "2",
             "--eps", "2.0", "--seed", "1"],
        )
        assert code == 0
        elements = {line.split(",")[1] for line in out.strip().splitlines()[2:]}
        assert elements <= {"a", "b", "c"}

    def test_csv_counts_input(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("# a comment\nelement,count\na,50\nb,30\nc,5\n")
        assert load_histogram_counts(str(path)) == {"a": 50.0, "b": 30.0, "c": 5.0}

    def test_csv_bad_count_row_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("element,count\na,5\nb,x\nc,9\n")
        with pytest.raises(ValueError, match="line 3"):
            load_histogram_counts(str(path))
        code, _, err = run(
            capsys,
            ["topk", "--mode", "known-lap", "--input", str(path), "--k", "1", "--eps", "1.0"],
        )
        assert code == 2
        assert "b,x" in err

    def test_text_input_tokenizes_lowercase(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("Dog, dog; CAT!\ncat cat")
        assert load_histogram_counts(str(path)) == {"dog": 2.0, "cat": 3.0}


class TestAuditCommand:
    def test_report_json_has_verdict(self, capsys):
        code, out, _ = run(
            capsys,
            ["audit", "two-point", "--eps", "1.0", "--t", "0.5", "--eps-g", "1.0",
             "--trials", "100000", "--seed", "3"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] in ("consistent", "violation")
        assert report["empirical_delta"] <= report["bound_delta"] + 3 * report["std_error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["two-point", "--eps", "800", "--t", "400", "--eps-g", "710"],
            ["composed-dp", "--k", "800", "--eps", "1", "--eps-g", "720"],
        ],
        ids=["two-point", "composed-dp"],
    )
    def test_eps_g_past_the_exp_overflow(self, capsys, argv):
        # e^eps_g overflows a float above eps_g = 709.78
        code, out, _ = run(capsys, ["audit"] + argv)
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["bound_delta"] < 1e-50
        assert 0.0 <= report["empirical_delta"] <= 1.0

    def test_trunc_gauss_audit_runs(self, capsys):
        code, out, _ = run(
            capsys,
            ["audit", "trunc-gauss", "--sigma", "2.0", "--delta", "1e-4",
             "--trials", "100000", "--seed", "1"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "consistent"
        assert report["metadata"]["conversion_delta"] == 1e-6

    def test_trunc_gauss_audit_at_half_slack(self, capsys):
        # delta = delta0 / 2, where the slack at T = tau rounds above delta
        code, out, _ = run(
            capsys,
            ["audit", "trunc-gauss", "--sigma", "0.341", "--delta", "0.5",
             "--tau", "0.121", "--trials", "100000", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent"


class TestCalibrateCommand:
    def test_zcdp_route_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            ["calibrate", "--route", "zcdp", "--eps", "2.0790564717026427",
             "--delta", "1e-6", "--delta0", "25"],
        )
        assert code == 0
        assert float(out) == solve_sigma_zcdp(2.0790564717026427, 25, 1e-6)
        assert float(out) == pytest.approx(13.1, abs=0.05)

    def test_zcdp_route_delta_below_reciprocal_overflow_is_finite(self, capsys):
        # b = sqrt(2 delta0 ln(1/delta)) used to overflow to inf at 5e-324
        code, out, _ = run(
            capsys,
            ["calibrate", "--route", "zcdp", "--eps", "1", "--delta", "5e-324", "--delta0", "5"],
        )
        assert code == 0
        a, b = 2.5, math.sqrt(2.0 * 5 * 1074 * math.log(2.0))
        want = (b + math.sqrt(b * b + 4.0 * a)) / 2.0
        assert math.isfinite(float(out)) and float(out) == pytest.approx(want, rel=1e-14)

    def test_analytic_route_at_largest_eps_answers(self, capsys):
        # the curve's tilted tail e^tail overflowed math.exp at eps = 1.7e308
        code, out, _ = run(
            capsys, ["calibrate", "--route", "analytic", "--eps", "1.7e308", "--delta", "1e-6"]
        )
        assert code == 0
        sigma = float(out)
        assert 0.0 < sigma < 1e-150
        assert analytic_gaussian_delta(sigma, 1.7e308) <= 1e-6

    def test_zcdp_route_at_largest_eps_is_finite(self, capsys):
        # 4 a eps and 2 eps overflowed to inf, and inf / inf printed nan
        code, out, _ = run(
            capsys,
            ["calibrate", "--route", "zcdp", "--eps", "1.7e308", "--delta", "1e-6",
             "--delta0", "5"],
        )
        assert code == 0
        sigma = float(out)
        # eps = a / sigma^2 + b / sigma is a / sigma^2 to within 1e-150 here
        assert sigma == pytest.approx(math.sqrt(2.5 / 1.7e308), rel=1e-14)

    def test_zcdp_route_sigma_beyond_float_range_is_usage_error(self, capsys):
        # the true sigma, about 2e324, used to print as inf
        code, out, err = run(
            capsys,
            ["calibrate", "--route", "zcdp", "--eps", "5e-324", "--delta", "1e-6",
             "--delta0", "5"],
        )
        assert code == 2 and out == ""
        assert "eps = 5e-324" in err

    def test_analytic_route_at_huge_eps(self, capsys):
        # from [0, 2^80] the halving needs about 1,150 steps to reach adjacent floats
        code, out, _ = run(
            capsys, ["calibrate", "--route", "analytic", "--eps", "1e300", "--delta", "0.5"]
        )
        assert code == 0
        assert float(out) == 7.071067811870596e-151

    def test_analytic_route_scales_by_sqrt_delta0(self, capsys):
        _, unit, _ = run(
            capsys, ["calibrate", "--route", "analytic", "--eps", "1.0", "--delta", "1e-6"]
        )
        _, scaled, _ = run(
            capsys,
            ["calibrate", "--route", "analytic", "--eps", "1.0", "--delta", "1e-6",
             "--delta0", "4"],
        )
        assert float(scaled) == pytest.approx(2.0 * float(unit), rel=1e-12)


class TestFigureData:
    def test_all_figures_have_rows(self):
        for n in range(1, 8):
            params, header, rows = figure_data(n, seed=0)
            assert params["figure"] == n
            assert rows and all(len(row) == len(header) for row in rows)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            figure_data(8)

    def test_figures_command_writes_file(self, capsys, tmp_path):
        path = tmp_path / "fig7.csv"
        code, out, _ = run(capsys, ["figures", "7", "-o", str(path)])
        assert code == 0
        assert str(path) in out
        lines = path.read_text().splitlines()
        assert lines[1] == "delta0,sigma,t_level"
        assert len(lines) == 52

    def test_figure_three_ratio_at_least_one(self):
        _, header, rows = figure_data(3, seed=0)
        ratio_col = header.index("ratio")
        assert all(row[ratio_col] >= 1.0 for row in rows)

"""Command-line surface: reports, round trips, determinism, exit codes."""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction as Q

import mpmath
import pytest

from palinlace.cli import _scan_row, analysis_report, canonical_json, main
from palinlace.polycore import make_polynomial, parse_coeff_text


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestAnalyze:
    def test_darga3_fixture(self):
        code, out = run_cli(["analyze", "--coeffs", "2,2"])
        assert code == 0
        report = json.loads(out)
        assert report["il"]["rational"] == "1"
        assert report["cn"]["rational"] == "2/3"
        assert report["be"]["rational"] == "1/2"

    def test_d6_bounding_error(self):
        code, out = run_cli(["analyze", "--coeffs", "50,86,99,86,50"])
        assert code == 0
        report = json.loads(out)
        assert report["be"]["rational"] == "4"
        assert report["il"]["rational"] == "135/2"
        assert report["cn"]["rational"] == "27/2"

    def test_sigma_input(self):
        code, out = run_cli(["analyze", "--sigma", "1", "--darga", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["il"]["rational"] == "1/2"

    def test_empty_is_input_error(self):
        code, out = run_cli(["analyze", "--coeffs", "0"])
        assert code == 2
        err = json.loads(out)
        assert err["error"] == "EmptyPolynomial"

    def test_missing_input_is_error(self):
        code, out = run_cli(["analyze"])
        assert code == 2

    def test_mixed_tokens_match_float_tokens(self):
        inner = "-1.2360679774997896964"  # 1 - sqrt(5) to 20 digits
        code, mixed = run_cli(["analyze", f"--coeffs={inner},6,6,{inner}"])
        assert code == 0
        code, floats = run_cli(["analyze", f"--coeffs={inner},6.0,6.0,{inner}"])
        assert code == 0
        got = json.loads(mixed)["bounds"]["monotonic_lower"]
        assert got is not None
        assert got == json.loads(floats)["bounds"]["monotonic_lower"]

    @pytest.mark.parametrize("coeffs, pinned", [
        # gcd(p, x^3 + 1) = x + 1, so the float division by it runs
        ("1.0,1.0", {
            "il": {"float": 0.5, "repr": "0.5", "rational": None},
            "cn": {"float": 0.3333333333333333,
                   "repr": "0.333333333333333333333333333333", "rational": None},
            "circle_certs": [{"re": -1.0, "im": 0.0, "repr": "(-1.0 + 0.0j)"}],
            "exact": {"exact": False, "route": "double_root_test", "witness": None}}),
        ("50.0,86.0,99.0,86.0,50.0", {
            "il": {"float": 67.5, "repr": "67.5", "rational": None},
            "cn": {"float": 13.5, "repr": "13.5", "rational": None},
            "circle_certs": [{"re": -1.0, "im": 1.245899368887196e-205,
                              "repr": "(-1.0 + 1.245899368887195941938838e-205j)"}],
            "exact": {"exact": False, "route": "double_root_test", "witness": None}}),
        ("-1.2360679774997896964,6,6,-1.2360679774997896964", {
            "il": {"float": 5.23606797749979,
                   "repr": "5.23606797749978972998149193554", "rational": None},
            "cn": {"float": 5.23606797749979,
                   "repr": "5.23606797749978972998149193554", "rational": None},
            "circle_certs": [{"re": 0.30901699437494745, "im": 0.9510565162951535,
                              "repr": "(0.3090169943749474289111001 + "
                                      "0.9510565162951535705539633j)"}],
            "exact": {"exact": True, "route": "double_root_test", "witness": 1}}),
    ])
    def test_float_track_answers_pinned(self, coeffs, pinned):
        code, out = run_cli(["analyze", "--canonical", f"--coeffs={coeffs}"])
        assert code == 0
        report = json.loads(out)
        assert {key: report[key] for key in pinned} == pinned

    def test_small_scale_keeps_the_interlace_certs(self):
        # at scale 1 the certs are [3] and il is irrational; an absolute tie
        # width once made every value a cert at this scale
        coeffs = ",".join(f"{c}/1000000000000" for c in (17, 12, -18, 7, -18, 12, 17))
        code, out = run_cli(["analyze", f"--coeffs={coeffs}"])
        assert code == 0
        report = json.loads(out)
        assert report["interlace_certs"] == [3]
        assert report["il"]["rational"] is None
        assert report["il"]["float"] >= report["cn"]["float"]

    def test_unexpected_exception_is_error_object(self, monkeypatch):
        import palinlace.cli as cli

        def fault(p):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "interlace_number", fault)
        code, out = run_cli(["analyze", "--coeffs", "2,2"])
        assert code == 3
        assert json.loads(out) == {"error": "RuntimeError", "message": "injected fault"}


def count_unity_evaluations(monkeypatch):
    import palinlace.interlace as il_mod
    calls = []
    inner = il_mod.unity_values_raw

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(il_mod, "unity_values_raw", counted)
    return calls


class TestOneAnalysisPerPolynomial:
    """il is computed once per report and per row: one escalation, two passes."""

    def test_scan_row(self, monkeypatch):
        calls = count_unity_evaluations(monkeypatch)
        _scan_row(0, parse_coeff_text("17,12,-18,7,-18,12,17"))
        assert len(calls) == 2

    def test_analysis_report(self, monkeypatch):
        calls = count_unity_evaluations(monkeypatch)
        analysis_report(parse_coeff_text("50,86,99,86,50"))
        assert len(calls) == 2

    @pytest.mark.parametrize("analyse", [lambda p: _scan_row(0, p), analysis_report])
    def test_one_gcd_with_x_n_plus_1(self, monkeypatch, analyse):
        # exactness reads the halved route's discriminant; it builds no second one
        import palinlace.circle as ci
        calls = []
        inner = ci.gcd_xn1
        monkeypatch.setattr(ci, "gcd_xn1", lambda p: calls.append(p) or inner(p))
        analyse(parse_coeff_text("17,12,-18,7,-18,12,17"))
        assert len(calls) == 1


class TestFamilyRoundTrip:
    def test_family_prints_parseable_text(self):
        code, out = run_cli(["family", "gcd", "--n", "6", "--k", "1"])
        assert code == 0
        p = parse_coeff_text(out.strip())
        assert [int(c) for c in p.re] == [0, 1, 2, 3, 2, 1]

    def test_pipe_equals_library(self):
        code, text = run_cli(["family", "geometric", "--n", "7"])
        assert code == 0
        code, out1 = run_cli(["analyze", "--coeffs", text.strip(), "--canonical"])
        assert code == 0
        report = analysis_report(make_polynomial([1] * 6, offset=1))
        assert out1.strip() == canonical_json(report)

    def test_canonical_form_is_deterministic(self):
        _, a = run_cli(["analyze", "--coeffs", "1,2,3,2,1", "--canonical"])
        _, b = run_cli(["analyze", "--coeffs", "1,2,3,2,1", "--canonical"])
        assert a == b


class TestFoic:
    def test_json_payload(self):
        code, out = run_cli(["foic", "--n", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["isometry_group"]["order"] == 2
        assert data["colored_automorphisms"] == 2
        rows = data["cones"][0]["halfspaces"]
        assert rows == [["-1", "-3", "-4"], ["-1", "-1", "0"], ["-1", "0", "-1"]]


class TestDynamics:
    def test_profile_json(self):
        code, out = run_cli(["dynamics", "--coeffs", "-2"])
        assert code == 0
        data = json.loads(out)
        values = [bp["value"]["rational"] for bp in data["breakpoints"]
                  if bp["exact"]]
        assert "1" in values and "-1" in values

    def test_grid_appends_tsv(self):
        code, out = run_cli(["dynamics", "--coeffs", "-2", "--grid", "0.5:2:4"])
        assert code == 0
        assert "alpha\troot_index\tre\tim" in out
        tail = out.split("alpha\troot_index\tre\tim\n", 1)[1]
        rows = [line for line in tail.strip().splitlines()]
        assert len(rows) == 4 * 2  # four grid values, two roots each


class TestScan:
    def test_reproducible(self):
        args = ["scan", "--darga", "5", "--count", "6", "--seed", "11",
                "--workers", "2"]
        _, a = run_cli(args)
        _, b = run_cli(args)
        assert a == b
        header = a.splitlines()[1]
        assert header.startswith("index,darga,coeffs,il")

    def test_inject_fixture_dominates(self):
        import csv
        code, out = run_cli(["scan", "--darga", "6", "--count", "3", "--seed", "7",
                             "--inject", "50,86,99,86,50"])
        assert code == 0
        rows = list(csv.reader(out.splitlines()[2:]))
        be_values = [float(r[7]) for r in rows]
        assert max(be_values) >= 4 - 1e-12
        assert abs(be_values[0] - 4) < 1e-12

    def test_row_ignores_ambient_precision(self):
        # a pool thread sees whatever precision the other thread has set
        p = parse_coeff_text("17,12,-18,7,-18,12,17")
        at_53 = _scan_row(0, p)
        with mpmath.workprec(768):
            at_768 = _scan_row(0, p)
        assert at_53 == at_768
        assert at_53[5] == "28.248068182871763275"


class TestPlotdata:
    def test_darga4_ray_near_discontinuity(self):
        code, out = run_cli(["plotdata", "--darga", "4", "--steps", "64"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("angle_over_2pi")
        assert len(lines) > 30

    def test_darga5_exact_ray(self):
        from palinlace.smalldarga import darga5_numbers
        import mpmath
        with mpmath.workprec(128):
            b = (1 - mpmath.sqrt(5)) / 6
            il, cn, be = darga5_numbers(b, 1)
            assert abs(be) < mpmath.mpf("1e-25")

    def test_darga4_be_limit(self):
        from palinlace.smalldarga import darga4_numbers
        import mpmath
        with mpmath.workprec(128):
            b = mpmath.sqrt(2) + mpmath.mpf("1e-9")
            il, cn, be = darga4_numbers(b, 1)
            assert abs(cn - (mpmath.sqrt(2) - 1)) < mpmath.mpf("1e-8")
            assert be < mpmath.sqrt(2)

    def test_invalid_darga(self):
        code, out = run_cli(["plotdata", "--darga", "6"])
        assert code == 2

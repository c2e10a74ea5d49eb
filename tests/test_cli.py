"""Command-line harness: subcommands, exit codes, deterministic reports."""

import json
from fractions import Fraction

import pytest

from packbound import clcbp, cli
from packbound.algebra import check_threshold
from packbound.algorithms import register_algorithm
from packbound.cli import main
from packbound.model import Placement

class _Flaky:
    """Every fork packs differently from the last: not a deterministic algorithm."""

    forks = 0

    def __init__(self, per_bin=1):
        self.per_bin = per_bin

    def fork(self):
        _Flaky.forks += 1
        return _Flaky(1 + _Flaky.forks % 2)

    def __call__(self, packing, item):
        if packing.cost and len(packing.bins[-1]) < self.per_bin:
            return Placement(packing.cost - 1)
        return Placement(packing.cost)


register_algorithm("flaky-test", _Flaky())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_table_passes(self, capsys):
        code, out, _ = run_cli(capsys, "bounds")
        assert code == 0
        assert "87/62" in out and "17/12" in out
        assert "1.751544578513" in out
        assert out.count("OK") == 10  # 7 programs + 3 certificates
        assert "MISMATCH" not in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--json")
        assert code == 0
        payload = json.loads(out)
        programs = {row["program"]: row["status"] for row in payload["bounds"]}
        assert programs["ko-case1"] == "OK"
        assert programs["certificate:ko-case2-bound"] == "OK"

    def test_json_gives_each_bisected_program_its_exact_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--json")
        assert code == 0
        rows = {row["program"]: row for row in json.loads(out)["bounds"]}
        bisected = {"sp", "clcbp2-case1", "clcbp2-case2", "clcbp3-case1", "clcbp3-case2"}
        assert {pid for pid, row in rows.items() if "threshold" in row} == bisected
        for pid in bisected:
            threshold = rows[pid]["threshold"]
            assert threshold["proven"]
            assert check_threshold(threshold["polynomial"], threshold["interval"])
            lo, hi = (Fraction(x) for x in rows[pid]["computed"].strip("[]").split(", "))
            a, b = (Fraction(x) for x in threshold["interval"])
            assert lo <= a < b <= hi
        sp = rows["sp"]["threshold"]
        assert sp["polynomial"] == [256, 9264, 78669, -167589]
        # the printed digits lie above the encoded program's min R
        assert Fraction(15, 10**11) < Fraction(sp["reference_offset"]) < Fraction(17, 10**11)
        assert Fraction(rows["clcbp2-case1"]["threshold"]["reference_offset"]) < 0

    @pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
    def test_json_reuses_the_bisections_solves_and_proofs(self, capsys, monkeypatch, json_mode):
        # exact_threshold reads the pieces that bisect_min_r left on each
        # program and its cached monotonicity proof: --json adds no LP solve
        # to plain bounds' 28 and no second proof to the five bisected programs
        counts = {"feasible_at": 0, "_unproven_row": 0}

        def counted(name):
            inner = getattr(cli.mathprog, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)
            monkeypatch.setattr(cli.mathprog, name, wrapper)

        counted("feasible_at")
        counted("_unproven_row")
        code, _, _ = run_cli(capsys, "bounds", *(["--json"] if json_mode else []))
        assert code == 0
        assert counts == {"feasible_at": 28, "_unproven_row": 5}

    @pytest.mark.parametrize("tol,reason", [
        ("abc", "not a rational number"),
        ("1/0", "not a rational number"),
        ("-1", "must be positive"),
        ("0", "must be positive"),
    ])
    def test_bad_tolerance_is_a_config_error(self, capsys, tol, reason):
        code, out, err = run_cli(capsys, "bounds", "--tol", tol)
        assert code == 3 and out == ""
        assert err.startswith("error: --tol") and reason in err

    def test_tolerance_is_checked_before_any_solve(self, capsys, monkeypatch):
        def no_solve(program):
            raise AssertionError(f"solved {program.program_id}")

        monkeypatch.setattr(cli.mathprog, "solve_min_r_exact", no_solve)
        code, _, err = run_cli(capsys, "bounds", "--tol", "0")
        assert code == 3 and "must be positive" in err

    def test_a_solver_value_error_is_not_a_tolerance_error(self, capsys, monkeypatch):
        def broken(program, tol):
            raise ValueError("broken solver")

        monkeypatch.setattr(cli.mathprog, "bisect_min_r", broken)
        with pytest.raises(ValueError, match="broken solver"):
            main(["bounds"])

    def test_a_certificate_off_its_target_is_a_mismatch(self, capsys, monkeypatch):
        # one weight of ko-case1-bound raised by one: its derived row misses
        # the target, that row alone reads MISMATCH and bounds exits 2
        suite = cli.mathprog.ko_certificate_suite

        def one_weight_off():
            certs = suite()
            (row, weight), *rest = certs[1].ingredients
            certs[1] = certs[1]._replace(ingredients=((row, weight + 1), *rest))
            return certs

        monkeypatch.setattr(cli.mathprog, "ko_certificate_suite", one_weight_off)
        code, out, _ = run_cli(capsys, "bounds", "--json")
        assert code == 2
        status = {row["program"]: row["status"] for row in json.loads(out)["bounds"]}
        assert status.pop("certificate:ko-case1-bound") == "MISMATCH"
        assert len(status) == 9 and set(status.values()) == {"OK"}

    @pytest.mark.parametrize("tol", ["3", "1/1000"])
    def test_coarse_tolerance_is_a_mismatch(self, capsys, tol):
        # the brackets still contain or come near every reference, but are
        # wider than the 1e-6 agreement the rows claim
        code, out, _ = run_cli(capsys, "bounds", "--tol", tol, "--json")
        assert code == 2
        status = {row["program"]: row["status"] for row in json.loads(out)["bounds"]}
        bisected = {"sp", "clcbp2-case1", "clcbp2-case2", "clcbp3-case1", "clcbp3-case2"}
        assert {pid for pid, s in status.items() if s == "MISMATCH"} == bisected


class TestDuel:
    def test_ko_duel_report(self, capsys):
        code, out, _ = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "first-fit", "--m", "8")
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 8
        assert len(report["scenarios"]) == 5
        assert all(sc["optCost"] == 8 for sc in report["scenarios"])
        assert all(c["pass"] for c in report["crossChecks"])

    def test_sp_duel_includes_coordinates(self, capsys):
        code, out, _ = run_cli(capsys, "duel", "--variant", "sp",
                               "--algorithm", "shelf-first-fit", "--m", "10")
        assert code == 0
        report = json.loads(out)
        packing = report["scenarios"][0]["optPacking"]
        assert packing and packing[0][0]["x"] is not None

    def test_clcbp_duel(self, capsys):
        code, out, _ = run_cli(capsys, "duel", "--variant", "clcbp", "--t", "3",
                               "--algorithm", "ccff", "--m", "6")
        assert code == 0
        report = json.loads(out)
        assert report["closedFormBounds"]["tiny-wave"]["exact"] == "5/3"
        assert len(report["scenarios"]) == 3

    @pytest.mark.parametrize("variant,algorithm", [("ko", "first-fit"),
                                                   ("sp", "shelf-first-fit")])
    def test_colors_per_bin_is_a_clcbp_option(self, capsys, variant, algorithm):
        code, out, err = run_cli(capsys, "duel", "--variant", variant, "--t", "3",
                                 "--algorithm", algorithm, "--m", "8")
        assert code == 3 and out == ""
        assert err == f"error: --t applies to --variant clcbp only, not {variant}\n"

    def test_clcbp_defaults_to_two_colors(self, capsys):
        argv = ["duel", "--variant", "clcbp", "--algorithm", "ccff", "--m", "6"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["t"] == 2
        assert run_cli(capsys, *argv[:3], "--t", "2", *argv[3:]) == (0, out, "")
        assert run_cli(capsys, *argv[:3], "--t", "0", *argv[3:]) == (
            3, "", "error: t must be 2 or 3\n")

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "duel", "--variant", "ko",
                             "--algorithm", "best-fit", "--m", "8")
        _, out2, _ = run_cli(capsys, "duel", "--variant", "ko",
                             "--algorithm", "best-fit", "--m", "8")
        assert out1 == out2

    def test_invalid_m_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "first-fit", "--m", "7")
        assert code == 3 and "divisible" in err

    def test_unknown_algorithm_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "quantum-fit", "--m", "8")
        assert code == 3 and "unknown algorithm" in err

    def test_an_algorithm_failure_names_its_item_and_bin(self, capsys):
        # first-fit places without coordinates, which squares bins refuse
        code, out, err = run_cli(capsys, "duel", "--variant", "sp",
                                 "--algorithm", "first-fit", "--m", "4")
        assert code == 2 and out == ""
        assert "on item 0 in bin 0: squares require coordinates" in err

    def test_offline_packing_missing_an_item_fails_the_duel(self, capsys, monkeypatch):
        groups = clcbp._two_thirds_groups

        def drop_a_tiny(*args):
            bins = groups(*args)
            for contents in bins:
                for it in contents:
                    if it.label == "tiny":
                        contents.remove(it)
                        return [c for c in bins if c]
            raise AssertionError("no tiny to drop")

        monkeypatch.setattr(clcbp, "_two_thirds_groups", drop_a_tiny)
        code, out, err = run_cli(capsys, "duel", "--variant", "clcbp",
                                 "--algorithm", "ccff", "--t", "2", "--m", "48")
        assert code == 2 and out == ""
        assert "cross-check failure: short-two-thirds: offline packing" in err
        assert "Traceback" not in err

    def test_an_exhausted_value_sequence_fails_the_duel(self, capsys, monkeypatch):
        from packbound.oracle import AdaptiveOracle

        # no stop rule fires, so wave two asks its oracle for more values than it holds
        monkeypatch.setattr(AdaptiveOracle, "stop_check", lambda self, predicate: False)
        code, out, err = run_cli(capsys, "duel", "--variant", "sp",
                                 "--algorithm", "shelf-first-fit", "--m", "12")
        assert code == 2 and out == ""
        assert err == "cross-check failure: no more values in this sequence\n"


class TestVerify:
    def test_only_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["suites"][0]["suite"] == "oracle"

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
        assert code == 3

    def test_an_empty_suite_name_is_unknown(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--only", "")
        assert code == 3 and out == ""
        assert err.startswith("error: unknown suite; choose from oracle, ")

    def test_failing_suite_is_reported_not_raised(self, capsys, monkeypatch):
        from packbound import squares
        from packbound.algorithms import IllegalPlacement

        def broken(*args, **kwargs):
            raise IllegalPlacement("shelf-first-fit broke the rules on item 3")

        monkeypatch.setattr(squares, "run_full", broken)
        code, out, err = run_cli(capsys, "verify", "--only", "geometry")
        assert code == 2 and "Traceback" not in err
        payload = json.loads(out)
        assert payload["pass"] is False
        [check] = payload["suites"][0]["checks"]
        assert check["pass"] is False
        assert check["detail"] == "algorithm failure: shelf-first-fit broke the rules on item 3"

    def test_an_exhausted_value_sequence_fails_its_suite(self, capsys, monkeypatch):
        from packbound.oracle import AdaptiveOracle

        monkeypatch.setattr(AdaptiveOracle, "stop_check", lambda self, predicate: False)
        code, out, err = run_cli(capsys, "verify", "--only", "geometry")
        assert code == 2 and "Traceback" not in err
        [check] = json.loads(out)["suites"][0]["checks"]
        assert check == {"name": "geometry-completes", "pass": False,
                         "detail": "cross-check failure: no more values in this sequence"}

    def test_other_suites_run_after_a_failing_one(self, capsys, monkeypatch):
        from packbound import knownopt
        from packbound.reports import CrossCheckFailure

        def broken(*args, **kwargs):
            raise CrossCheckFailure("prefix replay diverged from the recorded run")

        monkeypatch.setattr(knownopt, "run_full", broken)
        code, out, err = run_cli(capsys, "verify")
        assert code == 2 and "Traceback" not in err
        suites = {s["suite"]: s["checks"] for s in json.loads(out)["suites"]}
        assert set(suites) == {"oracle", "geometry", "census", "certificates", "determinism"}
        for name in ("census", "determinism"):
            assert [c["pass"] for c in suites[name]] == [False]
            assert suites[name][0]["detail"].startswith("cross-check failure: prefix replay")
        for name in ("oracle", "geometry", "certificates"):
            assert all(c["pass"] for c in suites[name])

    def test_full_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert {s["suite"] for s in payload["suites"]} == {
            "oracle", "geometry", "census", "certificates", "determinism",
        }
        assert payload["pass"] is True


class TestOracle:
    def test_instance_file(self, capsys, tmp_path):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "one-d"},
            "items": [{"size": "3/5"}, {"size": "2/5"}, {"size": "1/2"}],
        }))
        code, out, _ = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 0
        payload = json.loads(out)
        assert payload["minBins"] == 2 and payload["proven"]

    SEARCHED = ["5/12", "4/12", "3/12", "5/13", "4/13", "3/13", "6/13", "7/24", "5/24"]

    def searched_instance(self, tmp_path):
        instance = tmp_path / "searched.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "one-d"},
            "items": [{"size": s} for s in self.SEARCHED],
        }))
        return str(instance)

    def test_explicit_budget(self, capsys, tmp_path):
        path = self.searched_instance(tmp_path)
        code, out, _ = run_cli(capsys, "oracle", "--instance", path, "--budget", "1")
        assert code == 2 and json.loads(out)["proven"] is False
        code, out, _ = run_cli(capsys, "oracle", "--instance", path, "--budget", "10000")
        assert code == 0
        payload = json.loads(out)
        assert payload["proven"] is True and payload["minBins"] == 3

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_is_a_config_error(self, capsys, tmp_path, budget):
        code, out, err = run_cli(capsys, "oracle", "--instance",
                                 self.searched_instance(tmp_path), "--budget", budget)
        assert code == 3 and out == ""
        assert err == f"error: the node budget must be at least 1, got {budget}\n"

    def test_invalid_witness_exits_solver_failure(self, capsys, tmp_path, monkeypatch):
        from packbound import optoracle
        from packbound.model import Violation

        bad = Violation(0, "overfull", (0,), "load exceeds 1")
        monkeypatch.setattr(optoracle, "validate_packing", lambda packing: [bad])
        code, out, err = run_cli(capsys, "oracle", "--instance", self.searched_instance(tmp_path))
        assert code == 4 and out == ""
        assert "witness packing invalid" in err

    @pytest.mark.parametrize("advice,code,err", [
        (1, 2, "cross-check failure: proven 2 bins, advice 1\n"),
        (2, 0, ""),
        (3, 2, "cross-check failure: proven 2 bins, advice 3\n"),
    ])
    def test_known_opt_advice_is_checked(self, capsys, tmp_path, advice, code, err):
        instance = tmp_path / "advice.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "known-opt", "advice": advice},
            "items": [{"size": "1/2"}] * 3,
        }))
        got = run_cli(capsys, "oracle", "--instance", str(instance))
        assert got[0] == code and got[2] == err
        payload = json.loads(got[1])  # the report is printed either way
        assert payload["minBins"] == 2 and payload["proven"]

    def test_a_count_below_the_advice_fails_unproven(self, capsys, tmp_path):
        instance = tmp_path / "advice.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "known-opt", "advice": 5},
            "items": [{"size": s} for s in TestOracle.SEARCHED],
        }))
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance), "--budget", "1")
        assert code == 2 and json.loads(out)["proven"] is False
        assert err == "cross-check failure: found 4 bins, advice 5\n"

    def test_bad_perturbation_base(self, capsys, tmp_path):
        instance = tmp_path / "base.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "one-d"},
            "items": [{"size": {"rational": "1/2", "tiny": [{"base": 100, "exp": 3, "coef": "1"}]}}],
        }))
        code, _, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 3 and "10 or 20" in err

    def test_geometric_instance(self, capsys, tmp_path):
        instance = tmp_path / "squares.json"
        instance.write_text(json.dumps({
            "rules": {"kind": "squares"},
            "items": [{"size": "1/2"}, {"size": "1/3"}],
        }))
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 3 and out == ""
        assert err == "error: exact search covers one-dimensional variants only\n"

    def test_bad_instance(self, capsys, tmp_path):
        instance = tmp_path / "bad.json"
        instance.write_text("{}")
        code, _, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 3

    ONE_D = {"kind": "one-d"}

    @pytest.mark.parametrize("payload", [
        [1, 2],
        None,
        "x",
        {"rules": "one-d", "items": []},
        {"rules": ONE_D, "items": 5},
        {"rules": ONE_D, "items": [5]},
        {"rules": ONE_D, "items": [{"size": 3}]},
        {"rules": ONE_D, "items": [{"size": {"rational": "1/2", "tiny": 5}}]},
        {"rules": {"kind": "known-opt", "advice": "x"}, "items": [{"size": "1/2"}]},
        {"rules": {"kind": "class-constrained", "t": 2},
         "items": [{"size": "1/2", "color": [1]}]},
        {"rules": ONE_D, "items": [{"size": "1/0"}]},
        {"rules": ONE_D, "items": [{"size": "1/2", "color": 1}]},
        {"rules": {"kind": "class-constrained", "t": 2}, "items": [{"size": "1/2"}]},
    ], ids=repr)
    def test_malformed_instance_is_a_config_error(self, capsys, tmp_path, payload):
        instance = tmp_path / "malformed.json"
        instance.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 3 and out == ""
        assert err.startswith("error: bad instance file: ") and "Traceback" not in err

    def test_a_deeply_nested_instance_is_a_config_error(self, capsys, tmp_path):
        instance = tmp_path / "nested.json"
        instance.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert code == 3 and out == ""
        assert err.startswith("error: bad instance file: ") and "Traceback" not in err

    @pytest.mark.parametrize("term,reason", [
        ({"base": 7, "exp": 5, "coef": "0"}, "perturbation base must be 10 or 20, got 7"),
        ({"base": 10, "exp": 0, "coef": "0"}, "perturbation exponents must be >= 1"),
    ])
    def test_a_zero_term_is_still_checked(self, capsys, tmp_path, term, reason):
        instance = tmp_path / "zero-term.json"
        size = {"rational": "1/2", "tiny": [term]}
        instance.write_text(json.dumps({"rules": self.ONE_D, "items": [{"size": size}]}))
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert (code, out, err) == (3, "", f"error: bad instance file: {reason}\n")

    def test_unorderable_sizes_are_a_config_error(self, capsys, tmp_path):
        # 20^-1000000 and 10^-1301025 agree too deeply to be ordered exactly
        tiny = [{"base": 20, "exp": 1000000, "coef": "1"},
                {"base": 10, "exp": 1301025, "coef": "1"}]
        instance = tmp_path / "unorderable.json"
        instance.write_text(json.dumps(
            {"rules": self.ONE_D, "items": [{"size": {"rational": "1/3", "tiny": tiny}}]}))
        code, out, err = run_cli(capsys, "oracle", "--instance", str(instance))
        assert (code, out) == (3, "")
        assert err == ("error: bad instance file: cannot order 20^-1000000 "
                       "against 10^-1301025\n")

    def test_rule_breaking_algorithm_reported_as_algorithm_failure(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--variant", "sp",
                               "--algorithm", "first-fit", "--m", "4")
        assert code == 2 and "algorithm failure" in err

    def test_nondeterministic_algorithm_fails_the_replay_check(self, capsys):
        code, out, err = run_cli(capsys, "duel", "--variant", "ko",
                                 "--algorithm", "flaky-test", "--m", "8")
        assert code == 2
        assert "cross-check failure: prefix replay diverged" in err
        assert "Traceback" not in err and out == ""

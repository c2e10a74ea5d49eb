"""Command-line harness: subcommands, exit codes, deterministic reports."""

import json

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

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "duel", "--variant", "ko",
                             "--algorithm", "best-fit", "--m", "8")
        _, out2, _ = run_cli(capsys, "duel", "--variant", "ko",
                             "--algorithm", "best-fit", "--m", "8")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "next-fit", "--m", "4",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["algorithm"] == "next-fit"

    def test_invalid_m_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "first-fit", "--m", "7")
        assert code == 3 and "divisible" in err

    def test_unknown_algorithm_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "duel", "--variant", "ko",
                               "--algorithm", "quantum-fit", "--m", "8")
        assert code == 3 and "unknown algorithm" in err


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

    def test_invalid_witness_exits_solver_failure(self, capsys, tmp_path, monkeypatch):
        from packbound import optoracle
        from packbound.model import Violation

        bad = Violation(0, "overfull", (0,), "load exceeds 1")
        monkeypatch.setattr(optoracle, "validate_packing", lambda packing: [bad])
        code, out, err = run_cli(capsys, "oracle", "--instance", self.searched_instance(tmp_path))
        assert code == 4 and out == ""
        assert "witness packing invalid" in err

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

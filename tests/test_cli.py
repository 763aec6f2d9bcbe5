import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forbidposet import Family, kt_construction, serialize_config, build_named
from forbidposet.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, family, name="family.txt", as_json=False):
    path = tmp_path / name
    if as_json:
        path.write_text(json.dumps(family.to_json_obj()))
    else:
        path.write_text(family.to_text())
    return str(path)


class TestBoundCommand:
    def test_kt_example(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "kt", "--n", "9")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "140"
        assert obj["exactness"] == "exact"
        assert obj["validity"] == "ok"
        assert obj["run"]["version"]

    def test_rational_serialization(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "fork_main", "--n", "10", "--s", "3")
        assert code == 0
        assert json.loads(out)["value"] == "1764/5"

    def test_missing_param_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "kt")
        assert code == 2

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bound", "nope", "--n", "4")
        assert code == 1  # domain error from the bound table

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "kt", "--n", "9", "--format", "text")
        assert code == 0 and "140" in out

    def test_h_parameter(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "baton_main", "--n", "8", "--h", "3", "--s", "2", "--t", "2"
        )
        assert code == 0
        assert json.loads(out)["value"] == "154"


class TestConstructCommand:
    def test_kt_text_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "kt", "--n", "6")
        assert code == 0
        fam = Family.from_text(out)
        assert fam == kt_construction(6)

    def test_structured_output(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "middle", "--n", "4", "--r", "2",
                               "--format", "structured")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"]["n"] == 4 and len(obj["family"]["sets"]) == 10

    def test_complement(self, capsys, tmp_path):
        fam = Family.from_sets(3, [[], [1, 2]])
        path = write_family(tmp_path, fam)
        code, out, _ = run_cli(capsys, "construct", "complement", "--family", path)
        assert code == 0
        assert Family.from_text(out) == Family.from_sets(3, [[1, 2, 3], [3]])

    def test_missing_required_param(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "middle", "--n", "4")
        assert code == 2

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "construct", "kt", "--n", "1")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "argv",
        (["kt", "--n", "65"], ["middle", "--n", "65", "--r", "1"], ["diamond", "--n", "66", "--m", "2"]),
        ids=("kt", "middle", "diamond"),
    )
    def test_ground_guard_before_enumeration(self, capsys, argv):
        # the ground set is checked before levels of about C(64, 32) sets
        # would be enumerated
        code, out, err = run_cli(capsys, "construct", *argv)
        assert (code, out) == (1, "")
        assert err == f"error: ground set size must be in [1, 64], got {argv[2]}\n"


class TestCheckCommand:
    def test_kt_construction_avoids(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(6))
        code, out, _ = run_cli(capsys, "check", "--family", path, "--config", "kt_pair")
        assert code == 0
        obj = json.loads(out)
        assert obj["avoiding"] is True and obj["violation"] is None

    def test_violation_reported_with_witness(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(2, [[], [1], [2]]))
        code, out, _ = run_cli(capsys, "check", "--family", path, "--config", "kt_pair")
        assert code == 0
        obj = json.loads(out)
        assert obj["avoiding"] is False
        assert obj["violation"]["poset_index"] == 0
        assert len(obj["violation"]["sets"]) == 3

    def test_config_file_and_json_family(self, capsys, tmp_path):
        fam_path = write_family(tmp_path, Family.from_sets(3, [[1], [1, 2]]), as_json=True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(serialize_config(build_named("chain", 2)))
        code, out, _ = run_cli(capsys, "check", "--family", fam_path, "--config", str(cfg_path))
        assert code == 0
        assert json.loads(out)["avoiding"] is False

    def test_induced_flag(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(2, [[1], [2]]))
        code, out, _ = run_cli(
            capsys, "check", "--family", path, "--config", "chain(2)", "--induced"
        )
        assert code == 0 and json.loads(out)["avoiding"] is True

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--family", "/nope.txt", "--config", "kt_pair")
        assert code == 1

    @pytest.mark.parametrize(
        "option, doc",
        [
            ("--family", {"n": 4, "sets": 5}),
            ("--family", {"n": None, "sets": []}),
            ("--family", {"n": 4, "sets": [1, 2]}),
            ("--config", {"configs": [{"elements": 3, "relations": 5, "colors": [1, 2, 2]}]}),
        ],
    )
    def test_malformed_json_input_is_domain_error(self, capsys, tmp_path, option, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = {"--family": write_family(tmp_path, kt_construction(4)), "--config": "kt_pair"}
        argv[option] = str(bad)
        code, out, err = run_cli(capsys, "check", *(x for kv in argv.items() for x in kv))
        assert code == 1 and out == ""
        assert err.startswith("error:")


class TestSearchCommand:
    def test_small_search(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "3", "--config", "kt_pair")
        assert code == 0
        obj = json.loads(out)
        assert obj["best_size"] == 4
        assert obj["status"] == "proven-optimal"
        assert len(obj["witness"]["sets"]) == 4
        assert obj["nodes"] > 0 and "wall_time" in obj

    def test_guard_requires_allow_slow(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--n", "7", "--config", "kt_pair")
        assert code == 2

    def test_allow_slow_with_time_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "7", "--config", "chain(10)", "--allow-slow",
            "--time-limit", "30",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["best_size"] == 128 and obj["status"] == "lower-bound-only"

    def test_theorem_bound_stop(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "4", "--config", "kt_pair", "--theorem-bound", "kt"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["best_size"] == 6 and obj["status"] == "optimal-assuming-theorem"

    def test_out_of_range_theorem_bound_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--n", "2", "--config", "kt_pair", "--theorem-bound", "kt"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "requires n >= 3" in err

    def test_inexact_theorem_bound_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--n", "4", "--config", "fork(2)",
            "--theorem-bound", "fork_main", "--s", "2",
        )
        assert code == 2

    def test_theorem_bound_rejects_unused_param(self, capsys):
        code, _, err = run_cli(
            capsys, "search", "--n", "3", "--config", "kt_pair", "--theorem-bound", "kt",
            "--m", "7",
        )
        assert code == 2 and "does not take --m" in err

    def test_bound_param_needs_theorem_bound(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n", "3", "--config", "kt_pair", "--s", "7")
        assert code == 2 and "does not take --s" in err

    def test_symmetry_off(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--n", "3", "--config", "j_config", "--symmetry", "off"
        )
        assert code == 0 and json.loads(out)["best_size"] == 6


class TestAuditCommand:
    def test_lubell_estimate_deterministic(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(6))
        code, out1, _ = run_cli(
            capsys, "audit", "lubell", "--family", path, "--trials", "2000", "--seed", "42"
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "audit", "lubell", "--family", path, "--trials", "2000", "--seed", "42"
        )
        a, b = json.loads(out1), json.loads(out2)
        a["run"].pop("wall_time"), b["run"].pop("wall_time")
        assert a == b
        assert a["within_5_sigma"] is True

    def test_workers_flag_rejected(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(6))
        code, _, err = run_cli(capsys, "audit", "lubell", "--family", path, "--workers", "2")
        assert code == 2 and "--workers" in err

    def test_weighted(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(5))
        code, out, _ = run_cli(capsys, "audit", "weighted", "--family", path)
        obj = json.loads(out)
        assert code == 0 and obj["identity_holds"] is True and obj["value"] == "12"

    def test_fork(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(8))
        code, out, _ = run_cli(capsys, "audit", "fork", "--family", path, "--s", "2")
        obj = json.loads(out)
        assert code == 0 and obj["passed"] is True and obj["lambda_band"] == "1"

    def test_fork_requires_s(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(8))
        code, _, _ = run_cli(capsys, "audit", "fork", "--family", path)
        assert code == 2

    def test_slemma(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(4, [[1, 2, 3]]))
        code, out, _ = run_cli(capsys, "audit", "slemma", "--family", path)
        obj = json.loads(out)
        assert code == 0 and obj["passed"] is True and obj["subsets_checked"] == 15

    def test_alpha(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(4))
        code, out, _ = run_cli(capsys, "audit", "alpha", "--family", path)
        obj = json.loads(out)
        assert code == 0
        assert obj["threshold"] == 4 and obj["unassigned"] == 0
        assert obj["exceptions"] == []

    def test_alpha_precondition_exit_1(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(4, [[], [1, 2]]))
        code, _, err = run_cli(capsys, "audit", "alpha", "--family", path)
        assert code == 1 and "error" in err


class TestLubellCommand:
    def test_exact_value(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(3, [[1], [1, 2]]))
        code, out, _ = run_cli(capsys, "lubell", "--family", path)
        obj = json.loads(out)
        assert code == 0 and obj["value"] == "2/3"


class TestReplayAndSchema:
    def test_replay_is_byte_identical_modulo_wall_time(self, capsys):
        argv = ["search", "--n", "3", "--config", "kt_pair"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        a, b = json.loads(out1), json.loads(out2)
        for obj in (a, b):
            obj.pop("wall_time")
            obj["run"].pop("wall_time")
        assert json.dumps(a) == json.dumps(b)

    def test_run_record_contains_digest(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(4))
        _, out, _ = run_cli(capsys, "lubell", "--family", path)
        record = json.loads(out)["run"]
        assert record["inputs"][0]["path"] == path
        assert len(record["inputs"][0]["sha256"]) == 64
        assert record["argv"][0] == "lubell"

    def test_usage_error_on_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_bound_schema_keys(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "j", "--n", "5")
        obj = json.loads(out)
        assert set(obj) == {
            "command", "id", "params", "value", "exactness", "validity", "source", "run",
        }
        assert set(obj["run"]) == {"argv", "version", "seed", "inputs", "wall_time"}

    def test_check_schema_keys(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(4))
        _, out, _ = run_cli(capsys, "check", "--family", path, "--config", "kt_pair")
        assert set(json.loads(out)) == {
            "command", "config", "mode", "family", "avoiding", "violation", "run",
        }

    def test_search_schema_keys(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--n", "2", "--config", "j_config")
        assert set(json.loads(out)) == {
            "command", "n", "config", "mode", "best_size", "status", "witness",
            "nodes", "prunes", "wall_time", "run",
        }

    def test_audit_lubell_schema_keys(self, capsys, tmp_path):
        path = write_family(tmp_path, kt_construction(4))
        _, out, _ = run_cli(
            capsys, "audit", "lubell", "--family", path, "--trials", "100", "--seed", "7"
        )
        obj = json.loads(out)
        assert set(obj) == {
            "command", "kind", "trials", "mean", "std_error", "exact_target",
            "within_5_sigma", "run",
        }
        assert obj["run"]["seed"] == 7

    def test_workers_env_does_not_change_output(self, capsys, tmp_path, monkeypatch):
        # the run record keeps argv but not the environment, so replaying an
        # argv must print the same result whatever FORBIDPOSET_WORKERS holds
        path = write_family(tmp_path, Family.from_sets(4, [[1, 2]]))
        argv = ["audit", "lubell", "--family", path, "--trials", "10", "--seed", "1"]
        outs = []
        for value in ("3", None):
            if value is None:
                monkeypatch.delenv("FORBIDPOSET_WORKERS", raising=False)
            else:
                monkeypatch.setenv("FORBIDPOSET_WORKERS", value)
            obj = json.loads(run_cli(capsys, *argv)[1])
            obj["run"].pop("wall_time")
            outs.append(obj)
        assert outs[0] == outs[1]


class TestModuleEntry:
    def test_python_dash_m_from_checkout(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "forbidposet", "bound", "kt", "--n", "9"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == "140"

    def test_closed_stdout_pipe_is_not_an_error(self):
        # middle(16, 4) prints 43,758 lines, more than a pipe buffer holds, so
        # the writer is still printing when the reader goes away
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "forbidposet", "construct", "middle", "--n", "16", "--r", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"n=16\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "error:" not in err and "Traceback" not in err, err

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from forbidposet import Family, kt_construction, middle_levels, serialize_config, build_named
from forbidposet.cli import main
from forbidposet.constructions import CONSTRUCTION_GUARD
from forbidposet.lattice import mask_of


# full levels 4 and 5 of [10] with partial levels below and above them and
# [10] itself, and a random family at the audit benchmark's n
LEVELS_AND_STRAYS = Family(10, [
    *middle_levels(10, 2),
    *(mask_of(s, 10) for s in ([1, 2], [3, 4, 5], range(1, 8), range(2, 10), range(1, 11))),
])
RANDOM12 = Family(12, random.Random(16).sample(range(1 << 12), 300))
LUBELL_ARGV = ["audit", "lubell", "--family", "family.txt", "--trials", "20000", "--seed", "5"]
# the audit benchmark's first family at its seed 1, with its trial count
BENCH_RANDOM12 = Family(12, random.Random(1).sample(range(1 << 12), 300))
BENCH_LUBELL_ARGV = ["audit", "lubell", "--family", "family.txt", "--trials", "100000", "--seed", "41"]


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

    def test_n_out_of_range_names_the_given_value(self, capsys):
        code, _, err = run_cli(capsys, "bound", "kt", "--n", "100000")
        assert code == 1
        assert "got 100000" in err

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

    @pytest.mark.parametrize(
        "argv, family, digest",
        [
            (["construct", "middle", "--n", "16", "--r", "4"], None,
             "264adf8118b58b29406b57f630784ab4d75de9350a06715e09bf3bd678c97feb"),
            (["construct", "middle", "--n", "10", "--r", "4"], None,
             "c7eeedb7ee8abe172c2b46d4744bee7946506ab605c7408e1633cdd0aea0016d"),
            (["construct", "kt", "--n", "8"], None,
             "5299a857f88ccafc4679cb3fa5fd41999d57297b28484a35f3ab7084df03ab0d"),
            (LUBELL_ARGV, LEVELS_AND_STRAYS,
             "24ea20dc06880225ef5093edf7aecf7d227b3a8c6dccdff016081889072b6306"),
            (LUBELL_ARGV, RANDOM12,
             "9513863dfe06c81c518eb92b69fd3d7841c598a5152221b904ec26d5fca77f12"),
            (BENCH_LUBELL_ARGV, BENCH_RANDOM12,
             "6c475324858312d96013576fdcf79ac92b6730a9d60e796f5ceda20f9f08c1ef"),
        ],
        ids=["middle16_4", "middle10_4", "kt8", "lubell_levels_and_strays", "lubell_random12",
             "lubell_bench_random12"],
    )
    def test_text_output_is_pinned(self, capsys, tmp_path, monkeypatch, argv, family, digest):
        # digests of the output of the per-element constructions and writer
        # that the bit sums and byte tables replaced, and of the chain sampler
        # that decoded every chain: order, text and samples are fixed
        if family is not None:
            monkeypatch.chdir(tmp_path)
            write_family(tmp_path, family)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        out = re.sub(r', "wall_time": [^}]*', "", out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_output_peak(self, capsys):
        # middle(16, 4) printed as one string peaks below 7.5 MB; split
        # into lines and printed one by one it peaked at 9.2 MB
        tracemalloc.start()
        try:
            code = main(["construct", "middle", "--n", "16", "--r", "4"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().out.count("\n") == 43759
        assert peak < 7.5 * 2**20, peak

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

    @pytest.mark.parametrize(
        "argv, sets",
        (
            (["kt", "--n", "40"], "kt_construction(40) has 137846528820 sets"),
            (["middle", "--n", "40", "--r", "1"], "middle_levels(40, 1) has 137846528820 sets"),
            (["diamond", "--n", "40", "--m", "2"], "middle_levels(40, 1) has 137846528820 sets"),
        ),
        ids=("kt", "middle", "diamond"),
    )
    def test_size_guard_before_enumeration(self, capsys, argv, sets):
        # inside the ground guard, a family of about C(40, 20) sets is
        # refused from its binomial count before any set is listed
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "construct", *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == f"error: {sets}; constructions are limited to {CONSTRUCTION_GUARD}\n"


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

    def test_config_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # read as without the UTF-8 BOM; the digest stays that of the file's bytes
        fam_path = write_family(tmp_path, Family.from_sets(3, [[1], [1, 2]]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xef\xbb\xbf" + serialize_config(build_named("chain", 2)).encode())
        code, out, err = run_cli(capsys, "check", "--family", fam_path, "--config", str(cfg_path))
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["avoiding"] is False
        assert obj["run"]["inputs"][1]["sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()

    def test_induced_flag(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(2, [[1], [2]]))
        code, out, _ = run_cli(
            capsys, "check", "--family", path, "--config", "chain(2)", "--induced"
        )
        assert code == 0 and json.loads(out)["avoiding"] is True

    def test_empty_config_parameter_is_domain_error(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(2, [[1]]))
        code, out, err = run_cli(capsys, "check", "--family", path, "--config", "fork(,)")
        assert code == 1 and out == ""
        assert err == "error: bad config id 'fork(,)'\n"

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--family", "/nope.txt", "--config", "kt_pair")
        assert code == 1

    @pytest.mark.parametrize(
        "text, line",
        [("n=3\n\n\n2,1\n", "line 4: elements"), ("n=3\n1\n\n1,4\n", "line 4: element 4")],
        ids=["unsorted", "out_of_range"],
    )
    def test_bad_family_text_names_its_line(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "check", "--family", str(bad), "--config", "kt_pair")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {line}")

    @pytest.mark.parametrize(
        "option, doc",
        [
            ("--family", {"n": 4, "sets": 5}),
            ("--family", {"n": None, "sets": []}),
            ("--family", {"n": 4, "sets": [1, 2]}),
            ("--config", {"configs": [{"elements": 3, "relations": 5, "colors": [1, 2, 2]}]}),
            ("--config", {"elements": 2, "relations": [[0, 1]], "colors": [1, 2], "name": [1]}),
            ("--config", {"elements": 2, "relations": [[0, 1]], "colors": [1, 2], "name": 7}),
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


    @pytest.mark.parametrize("config", ["diamond(4094)", "fork(4095)", "chain(4096)"])
    def test_large_poset_with_no_size_choice_builds_no_plan(
        self, capsys, tmp_path, monkeypatch, config
    ):
        # middle_levels(13, 3) has 4,719 sets in three levels, so each poset
        # fits by count, but no level holds its largest color class (diamond,
        # fork) or there are too few levels for its colors (chain); the plan,
        # quadratic in the poset's size, is never needed
        def no_plan(poset):
            raise AssertionError("no plan is needed when no size choice exists")

        monkeypatch.setattr("forbidposet.detector._plan", no_plan)
        path = write_family(tmp_path, middle_levels(13, 3))
        code, out, _ = run_cli(capsys, "check", "--family", path, "--config", config)
        assert code == 0 and json.loads(out)["avoiding"] is True

    def test_memory_error_is_domain_error(self, capsys, tmp_path, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("forbidposet.cli.find_violation", exhausted)
        path = write_family(tmp_path, kt_construction(4))
        code, out, err = run_cli(capsys, "check", "--family", path, "--config", "kt_pair")
        assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["check", "search"])
def test_poset_guard_exits_at_once(capsys, tmp_path, command):
    # diamond(10^6) needs about 125 GB of rows; the guard refuses it from
    # its parameter
    source = ["--n", "3"]
    if command == "check":
        source = ["--family", write_family(tmp_path, kt_construction(4))]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, *source, "--config", "diamond(1000000)")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: posets are limited to 4096 elements, got 1000002\n"


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

    def test_theorem_bound_past_its_sigma_domain_error(self, capsys):
        # diamond_m4 is sigma(n, 4), which takes k <= n + 1 = 3 at n = 2
        code, out, err = run_cli(
            capsys, "search", "--n", "2", "--config", "diamond(4)", "--theorem-bound", "diamond_m4"
        )
        assert (code, out) == (1, "")
        assert err == "error: theorem bound cannot gate the search: outside stated range: requires n >= 3\n"

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

    def test_lubell_on_64_element_ground_set(self, capsys, tmp_path):
        path = write_family(tmp_path, Family(64, [1 << i for i in range(64)]))
        code, out, _ = run_cli(capsys, "audit", "lubell", "--family", path, "--trials", "500")
        obj = json.loads(out)
        assert code == 0 and (obj["mean"], obj["std_error"], obj["exact_target"]) == (1.0, 0.0, "1")
        assert obj["within_5_sigma"] is True

    def test_lubell_negative_seed_rejected(self, capsys, tmp_path):
        # random.Random seeds with the absolute value, so -5 would replay
        # --seed 5 under a run record that says -5
        path = write_family(tmp_path, kt_construction(6))
        code, out, err = run_cli(
            capsys, "audit", "lubell", "--family", path, "--trials", "100", "--seed", "-5"
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: seed must be >= 0, got -5"]

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
    def test_family_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # read as without the UTF-8 BOM; the digest stays that of the file's bytes
        path = tmp_path / "family.txt"
        path.write_bytes(b"\xef\xbb\xbf" + kt_construction(4).to_text().encode())
        code, out, err = run_cli(capsys, "lubell", "--family", str(path))
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert (obj["value"], obj["size"]) == ("1", 6)
        assert obj["run"]["inputs"][0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_exact_value(self, capsys, tmp_path):
        path = write_family(tmp_path, Family.from_sets(3, [[1], [1, 2]]))
        code, out, _ = run_cli(capsys, "lubell", "--family", path)
        obj = json.loads(out)
        assert code == 0 and obj["value"] == "2/3"


TEXT_FAMILIES = {
    "kt4": kt_construction(4),
    "kt5": kt_construction(5),
    "kt6": kt_construction(6),
    "kt8": kt_construction(8),
    "kt_up": Family.from_sets(2, [[], [1], [2]]),
    "top3": Family.from_sets(4, [[1, 2, 3]]),
    "pair": Family.from_sets(3, [[1], [1, 2]]),
}


class TestTextFormat:
    """Every text renderer, line for line; {name} is the path of
    TEXT_FAMILIES[name] and search's wall time is masked."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["check", "--family", "{kt6}", "--config", "kt_pair"], ["avoiding: true"]),
            (
                ["check", "--family", "{kt_up}", "--config", "kt_pair"],
                ["avoiding: false", "violation: poset #0 (kt_pair_up) -> -; 1; 2"],
            ),
            (
                ["search", "--n", "3", "--config", "kt_pair"],
                [
                    "best_size: 4 (proven-optimal)",
                    "nodes: 10, prunes: 6, wall_time: *",
                    "witness: 1 2 1,3 2,3",
                ],
            ),
            (
                ["audit", "lubell", "--family", "{pair}", "--trials", "1000", "--seed", "7"],
                [
                    "audit lubell:",
                    "  trials: 1000",
                    "  mean: 0.694",
                    "  std_error: 0.02364155077237792",
                    "  exact_target: 2/3",
                    "  within_5_sigma: True",
                ],
            ),
            (
                ["audit", "weighted", "--family", "{kt5}"],
                ["audit weighted:", "  value: 12", "  family_size: 12", "  identity_holds: True"],
            ),
            (
                ["audit", "fork", "--family", "{kt8}", "--s", "2"],
                [
                    "audit fork:",
                    "  s: 2",
                    "  k: 9",
                    "  band_size: 70",
                    "  lambda_band: 1",
                    "  main_bound: 5/4",
                    "  smallest_c: 0",
                    "  hard_bound: 5/2",
                    "  passed: True",
                ],
            ),
            (
                ["audit", "slemma", "--family", "{top3}"],
                [
                    "audit slemma:",
                    "  n: 4",
                    "  subsets_checked: 15",
                    "  passed: True",
                    "  failures: []",
                ],
            ),
            (
                ["audit", "alpha", "--family", "{kt4}"],
                [
                    "audit alpha:",
                    "  m: 2",
                    "  threshold: 4",
                    "  assigned_total: 24",
                    "  unassigned: 0",
                    "  exceptions: []",
                    "  unexpected_below: []",
                ],
            ),
            (["lubell", "--family", "{pair}"], ["lubell = 2/3  (n=3, size=2)"]),
        ],
        ids=[
            "check-avoiding",
            "check-violation",
            "search",
            "audit-lubell",
            "audit-weighted",
            "audit-fork",
            "audit-slemma",
            "audit-alpha",
            "lubell",
        ],
    )
    def test_golden_lines(self, capsys, tmp_path, argv, expected):
        paths = {
            name: write_family(tmp_path, fam, name=f"{name}.txt")
            for name, fam in TEXT_FAMILIES.items()
        }
        argv = [arg.format(**paths) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert (code, err) == (0, "")
        out = re.sub(r"wall_time: \d+\.\d{3}s", "wall_time: *", out)
        assert out.splitlines() == expected


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


class TestParserSurface:
    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["-h"], 0, "f7129b055484cd055eb30c474ea127cef5b3423e63aece9eb10772aded53e5b8"),
            (["--version"], 0, "a4ddf82221c32faebf9290a0e142c718401dbfa95423972e89b486406fc19f4f"),
            (["bound", "-h"], 0, "fc7ace536af84663d9e2b0e5e5aa2ee43cded5ffb3481588a743d678f655b648"),
            (["construct", "-h"], 0, "102c278ac6a6db94ca543f8fa6d3560f786faf8129c1f1104f42b3451ac99925"),
            (["check", "-h"], 0, "844b7694f612616ad1997e0617345190873e1eedeb96d8ad2c7d94422f1c1a6c"),
            (["search", "-h"], 0, "7587098490b7d40bf3bd2b4c6f33586cf3e21cbcf0f904b2d1b2db90919bbf01"),
            (["audit", "-h"], 0, "fae8e7eaf023c0335438e6eb8bd110aa2fa50a3f082d27e17fda05b6971223e2"),
            (["lubell", "-h"], 0, "570fce57b4b59e1a225f3b53de83d22ac0994420b7d30a4f396a9bad8f03bc2c"),
            ([], 2, "d7f4b6e13ced6b550b4a318cc88a742e7bf1ccdcffc9450dede73dd180085110"),
            (["nope"], 2, "0e550cb01ae8708c01c684e5620559beeb0f6e9591b8c5e6ce9bc458dcb7684a"),
            (["construct", "cube"], 2, "c2d66ee18ab294841e170873d134ccde026bcb2d9d015b09eb646c67730aa4f7"),
            (["check", "--family", "f.txt"], 2,
             "cb091169ed6e4da7262f9a5fa03c8848903df3d1eca1552c6b1194f618d608c2"),
            (["bound", "kt"], 2, "4a41510169eee587cfc3822d6c62794800fa546ad4701059c071fd6201076d91"),
            (["search", "--n", "4", "--config", "kt_pair", "--m", "3"], 2,
             "80bf88eff95aecb5cca648ba0a4b7df13028fa57f4fabd3662e0a5a570eba8ff"),
        ],
        ids=["help", "version", "bound_help", "construct_help", "check_help", "search_help",
             "audit_help", "lubell_help", "no_command", "unknown_command", "bad_choice",
             "missing_required", "bound_missing_param", "search_stray_param"],
    )
    def test_help_and_usage_errors_are_pinned(self, capsys, monkeypatch, argv, code, digest):
        # digests of stdout NUL stderr as the parser that built every
        # subcommand's arguments printed them, at an 80-column terminal;
        # construct_help since re-pinned, its --format help naming text as
        # construct's default
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == digest, out + err

    def test_only_the_invoked_subcommand_gets_arguments(self, capsys, monkeypatch):
        progs = set()
        add_argument = argparse.ArgumentParser.add_argument

        def recorded(self, *args, **kwargs):
            progs.add(self.prog)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recorded)
        assert run_cli(capsys, "bound", "kt", "--n", "5")[0] == 0
        assert progs == {"forbidposet", "forbidposet bound"}


def checkout_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestModuleEntry:
    def test_python_dash_m_from_checkout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "forbidposet", "bound", "kt", "--n", "9"],
            capture_output=True, text=True, env=checkout_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == "140"

    def test_hashlib_is_loaded_only_to_hash_an_input(self):
        # hashlib loads OpenSSL; a command that reads no file does not need it
        script = (
            "import sys\n"
            "from forbidposet.cli import main\n"
            "main(['bound', 'kt', '--n', '6'])\n"
            "print('hashlib' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=checkout_env(), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize(
        "argv",
        [("lubell", "--family", "DEEP"), ("check", "--family", "FAMILY", "--config", "DEEP")],
        ids=["family", "config"],
    )
    def test_deeply_nested_json_is_domain_error(self, tmp_path, argv):
        # the JSON decoder recurses once per bracket
        deep = tmp_path / "deep.json"
        deep.write_text('{"n": ' + "[" * 200_000 + "]" * 200_000 + "}")
        paths = {"DEEP": str(deep), "FAMILY": write_family(tmp_path, kt_construction(4))}
        proc = subprocess.run(
            [sys.executable, "-m", "forbidposet", *(paths.get(a, a) for a in argv)],
            capture_output=True, text=True, env=checkout_env(), timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_closed_stdout_pipe_is_not_an_error(self):
        # middle(16, 4) prints 43,758 lines, more than a pipe buffer holds, so
        # the writer is still printing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "forbidposet", "construct", "middle", "--n", "16", "--r", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
        )
        assert proc.stdout.readline() == b"n=16\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "error:" not in err and "Traceback" not in err, err

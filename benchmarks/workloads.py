"""The benchmark's workloads: the inputs set-up writes from the seed, the
CLI operations of one round, and the check every output must pass.

The program only ever sees the generated files and argv.  Expected answers
come from closed forms computed here, from facts about the generated
families (a subfamily of an avoiding family avoids), or from independent
re-checks of the witnesses the program returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from harness import Op, call_cli

WORKLOADS = ("search", "check", "audit")


def sigma(n: int, k: int) -> int:
    """Sum of the k largest binomial coefficients C(n, i)."""
    return sum(sorted((comb(n, i) for i in range(n + 1)), reverse=True)[:k])


# label, config id, n, proven optimum (closed form), construction attaining it.
# Left out: j_config n=5 (24-26 s per solve), kt_pair n=6 and butterfly_pair
# n=5 (not proven within minutes).
SEARCH_INSTANCES = (
    ("kt_pair_n5", "kt_pair", 5, 2 * comb(4, 2), ("kt", "--n", "5")),
    ("diamond4_n5", "diamond(4)", 5, sigma(5, 4), ("middle", "--n", "5", "--r", "4")),
    ("butterfly_pair_n4", "butterfly_pair", 4, sigma(4, 2), ("middle", "--n", "4", "--r", "2")),
    ("j_config_n4", "j_config", 4, sigma(4, 2), ("middle", "--n", "4", "--r", "2")),
)

SEARCH_LABELS = tuple(inst[0] for inst in SEARCH_INSTANCES)

# Share of an avoiding family kept in a seeded random subfamily.  A fixed
# share keeps the cost of a check nearly the same from seed to seed.
SUBFAMILY_SHARE = 0.6

# label, family file, config ("@diamond4" = the config JSON file), induced,
# expected verdict
CHECK_INSTANCES = (
    ("diamond4_mid10_4", "mid10_4", "diamond(4)", False, True),
    ("diamond4_mid10_4_induced", "mid10_4", "diamond(4)", True, True),
    ("diamond4_file_mid10_4", "mid10_4", "@diamond4", False, True),
    ("butterfly_pair_mid12_2", "mid12_2", "butterfly_pair", False, True),
    ("kt_pair_mid12_2", "mid12_2", "kt_pair", False, False),
    ("diamond4_sub10_4", "sub10_4", "diamond(4)", False, True),
    ("butterfly_pair_sub12_2", "sub12_2", "butterfly_pair", False, True),
)

CHECK_LABELS = tuple(inst[0] for inst in CHECK_INSTANCES)

AUDIT_RANDOM_FAMILIES = 4
AUDIT_RANDOM_N = 12
AUDIT_RANDOM_SIZE = 300
AUDIT_TRIALS = 100_000
BOUND_PARAMS = {"n": 14, "m": 4, "s": 3, "t": 2, "h": 3}


def expected_bounds(n: int, m: int, s: int, t: int, h: int) -> dict[str, Fraction]:
    """Every bound id at the fixed parameters, from the published formulas."""
    if m != 4:
        raise ValueError("the diamond entries below are worked out for m = 4")
    half = comb(n, n // 2)
    fork_main = (1 + Fraction(2 * (s - 1), n)) * half
    return {
        "kt": Fraction(2 * comb(n - 1, (n - 1) // 2)),
        "fork_explicit": half + Fraction(2, 3) * (s - 1) * comb(n, n // 2 + 1) + 1,
        "fork_main": fork_main,
        "dbk_fork_main": fork_main,
        "baton_main": sigma(n, h - 1) + comb(n, (n + h) // 2) * Fraction(2 * (s + t - 2), n),
        "glu_baton_main": sigma(n, h - 1) + comb(n, (n + h) // 2) * Fraction(2 * h * (s + t - 2), n),
        "butterfly": Fraction(sigma(n, 2)),
        "dks_butterfly": Fraction(sigma(n, 2)),
        "j": Fraction(sigma(n, 2)),
        "li_j": Fraction(sigma(n, 2)),
        # 3 * (ceil(log3(m - 1)) + 1) * C(n, n/2)
        "diamond_restricted": Fraction(6 * half),
        "diamond_m4": Fraction(sigma(n, 4)),
        # t = ceil(log2(m + 2)) = 3 and m <= 2^t - C(t, t/2) - 1, so sigma(n, t)
        "glu_diamond": Fraction(sigma(n, 3)),
    }


@dataclass
class Plan:
    """A workload after set-up: one round of operations, plus checks of the
    set-up's own outputs that run once, untimed."""

    ops: list[Op]
    checks: list


class SetupError(RuntimeError):
    pass


def _construct(fp, tracer, path: Path, argv):
    """Write a construction through the CLI; return it parsed."""
    rc, text, err = call_cli(fp.cli.main, ("construct", *argv), tracer)
    if rc != 0:
        raise SetupError(f"construct {' '.join(argv)} exited {rc}: {err.strip()}")
    path.write_text(text)
    return fp.Family.loads(text)


def _subfamily(fp, family, rng: random.Random):
    keep = sorted(rng.sample(range(len(family)), round(SUBFAMILY_SHARE * len(family))))
    return fp.Family(family.n, [family.members[i] for i in keep])


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _check_size(family, size: int, what: str):
    return lambda: _expect(len(family) == size, f"{what} has {len(family)} sets, expected {size}")


# -- search ------------------------------------------------------------------


def _search_verifier(fp, n, configs, optimum):
    def verify(out):
        if out["best_size"] != optimum:
            return f"best_size {out['best_size']}, expected {optimum}"
        if out["status"] != "proven-optimal":
            return f"status {out['status']}"
        witness = fp.Family.from_json_obj(out["witness"])
        if witness.n != n or len(witness) != optimum:
            return "witness does not match best_size"
        return _expect(fp.is_avoiding(witness, configs), "witness contains a forbidden configuration")

    return verify


def _setup_search(fp, seed, workdir, tracer) -> Plan:
    ops, checks = [], []
    for label, config, n, optimum, construction in SEARCH_INSTANCES:
        configs = fp.load_config(config)
        family = _construct(fp, tracer, workdir / f"{label}.txt", construction)
        checks.append(_check_size(family, optimum, f"construction for {label}"))
        checks.append(
            lambda family=family, configs=configs, label=label: _expect(
                fp.is_avoiding(family, configs), f"construction for {label} is not avoiding"
            )
        )
        argv = ("search", "--n", str(n), "--config", config)
        ops.append(Op(label, argv, _search_verifier(fp, n, configs, optimum)))
    return Plan(ops, checks)


# -- check -------------------------------------------------------------------


def _check_verifier(fp, family, configs, mode, expected):
    def verify(out):
        if out["avoiding"] is not expected:
            return f"avoiding={out['avoiding']}, expected {expected}"
        if out["family"]["size"] != len(family):
            return f"family size {out['family']['size']}, expected {len(family)}"
        if expected:
            return _expect(out["violation"] is None, "avoiding family reported with a violation")
        v = out["violation"]
        sets = [list(fp.lattice.elems_of(family.members[i])) for i in v["assignment"]]
        if sets != v["sets"]:
            return "violation sets do not match its assignment"
        poset = configs.configs[v["poset_index"]]
        return _expect(
            fp.verify_embedding(family, poset, mode, v["assignment"]),
            "reported violation is not an embedding",
        )

    return verify


def _setup_check(fp, seed, workdir, tracer) -> Plan:
    rng = random.Random(seed)
    families = {
        "mid10_4": _construct(fp, tracer, workdir / "mid10_4.txt", ("middle", "--n", "10", "--r", "4")),
        "mid12_2": _construct(fp, tracer, workdir / "mid12_2.txt", ("middle", "--n", "12", "--r", "2")),
    }
    families["sub10_4"] = _subfamily(fp, families["mid10_4"], rng)
    families["sub12_2"] = _subfamily(fp, families["mid12_2"], rng)
    for key in ("sub10_4", "sub12_2"):
        (workdir / f"{key}.txt").write_text(families[key].to_text())
    config_file = workdir / "diamond4.json"
    config_file.write_text(fp.serialize_config(fp.build_named("diamond", 4)))
    checks = [
        _check_size(families["mid10_4"], sum(comb(10, i) for i in range(3, 7)), "middle(10, 4)"),
        _check_size(families["mid12_2"], comb(12, 5) + comb(12, 6), "middle(12, 2)"),
    ]
    ops = []
    for label, key, config, induced, expected in CHECK_INSTANCES:
        from_file = config == "@diamond4"
        spec = str(config_file) if from_file else config
        configs = fp.load_config(config_file.read_text() if from_file else config)
        argv = ("check", "--family", str(workdir / f"{key}.txt"), "--config", spec)
        argv += ("--induced",) if induced else ()
        mode = "induced" if induced else "standard"
        ops.append(Op(label, argv, _check_verifier(fp, families[key], configs, mode, expected)))
    return Plan(ops, checks)


# -- audit -------------------------------------------------------------------


def _lubell_audit_verifier(fp, family):
    def verify(out):
        if out["trials"] != AUDIT_TRIALS:
            return f"trials {out['trials']}, expected {AUDIT_TRIALS}"
        target = fp.lubell(family)
        if Fraction(out["exact_target"]) != target:
            return f"exact_target {out['exact_target']}, expected {target}"
        return _expect(out["within_5_sigma"] is True, "sample mean is not within 5 sigma of the target")

    return verify


def _verify_lubell_value(value):
    def verify(out):
        return _expect(Fraction(out["value"]) == value, f"lubell {out['value']}, expected {value}")

    return verify


def _verify_weighted(size):
    def verify(out):
        if Fraction(out["value"]) != size or out["family_size"] != size:
            return f"weighted average {out['value']} over {out['family_size']} sets, expected {size}"
        return _expect(out["identity_holds"] is True, "identity_holds is not true")

    return verify


def _verify_slemma(n):
    def verify(out):
        if out["subsets_checked"] != 2 ** n - 1:
            return f"subsets_checked {out['subsets_checked']}, expected {2 ** n - 1}"
        return _expect(out["passed"] is True and out["failures"] == [], "S-lemma audit failed")

    return verify


def _verify_alpha(n):
    def verify(out):
        if out["exceptions"] or out["unexpected_below"]:
            return "alpha audit reported members below the threshold"
        if out["assigned_total"] + out["unassigned"] != factorial(n):
            return f"chains do not partition {n}!"
        return _expect(
            all(c["count"] >= out["threshold"] for c in out["counts"]), "a count is below the threshold"
        )

    return verify


def _verify_bound(value):
    def verify(out):
        if Fraction(out["value"]) != value:
            return f"bound {out['id']} = {out['value']}, expected {value}"
        return _expect(out["validity"] == "ok", f"bound {out['id']} validity {out['validity']}")

    return verify


def _setup_audit(fp, seed, workdir, tracer) -> Plan:
    rng = random.Random(seed)
    ops, checks = [], []
    for i in range(AUDIT_RANDOM_FAMILIES):
        family = fp.Family(AUDIT_RANDOM_N, rng.sample(range(1 << AUDIT_RANDOM_N), AUDIT_RANDOM_SIZE))
        path = workdir / f"random{i}.txt"
        path.write_text(family.to_text())
        argv = ("audit", "lubell", "--family", str(path), "--trials", str(AUDIT_TRIALS),
                "--seed", str(rng.randrange(1 << 31)))
        ops.append(Op(f"lubell_random{i}", argv, _lubell_audit_verifier(fp, family)))

    big_path = workdir / "mid16_4.txt"
    big = _construct(fp, tracer, big_path, ("middle", "--n", "16", "--r", "4"))
    checks.append(_check_size(big, sum(comb(16, i) for i in range(6, 10)), "middle(16, 4)"))
    big_arg = ("--family", str(big_path))
    ops += [
        Op("lubell_mid16_4", ("audit", "lubell", *big_arg, "--trials", str(AUDIT_TRIALS),
                              "--seed", str(rng.randrange(1 << 31))), _lubell_audit_verifier(fp, big)),
        # four full levels: every maximal chain meets exactly four members
        Op("exact_lubell_mid16_4", ("lubell", *big_arg), _verify_lubell_value(Fraction(4))),
        Op("weighted_mid16_4", ("audit", "weighted", *big_arg), _verify_weighted(len(big))),
    ]

    kt_path = workdir / "kt8.txt"
    kt = _construct(fp, tracer, kt_path, ("kt", "--n", "8"))
    checks.append(_check_size(kt, 2 * comb(7, 3), "kt construction n=8"))
    ops += [
        Op("slemma_kt8", ("audit", "slemma", "--family", str(kt_path)), _verify_slemma(8)),
        Op("alpha_kt8", ("audit", "alpha", "--family", str(kt_path)), _verify_alpha(8)),
    ]

    expected = expected_bounds(**BOUND_PARAMS)
    checks.append(lambda: _expect(
        set(fp.BOUND_IDS) == set(expected), f"bound ids changed: {sorted(fp.BOUND_IDS)}"
    ))
    for bid in fp.BOUND_IDS:
        params = []
        for key in fp.bounds.bound_params(bid):
            params += [f"--{key}", str(BOUND_PARAMS[key])]
        ops.append(Op(f"bound_{bid}", ("bound", bid, *params), _verify_bound(expected.get(bid))))
    return Plan(ops, checks)


_SETUPS = {"search": _setup_search, "check": _setup_check, "audit": _setup_audit}


def setup(workload: str, seed: int, workdir: Path, fp, tracer=None) -> Plan:
    """Write the workload's inputs under ``workdir`` and return its plan.
    ``fp`` is the imported package; construction calls go through the CLI
    (traced when ``tracer`` is given)."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _SETUPS[workload](fp, seed, workdir, tracer)

"""Command-line front-end: bound / construct / check / search / audit /
lubell subcommands with structured, reproducible output.

Structured output is one JSON object on stdout, with exact rationals printed
as "p/q" strings (never floats) and a run record (argv, version, seed, input
digests, wall time) attached; replaying a record reproduces byte-identical
output apart from wall_time.  Exit codes: 0 success, 1 domain errors
(validation, range), 2 usage errors.  Human-readable messages go to stderr.
A reader that closes stdout early ends the run with exit code 1 and no
message, as other Unix filters do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .audits import (
    alpha_audit,
    audit_S_lemma,
    audit_fork_lambda,
    estimate_lubell,
    estimate_matches_exact,
    weighted_chain_average,
)
from .bounds import EXACT, bound_params, evaluate_bound
from .configs import build_named, load_config, parse_config_id
from .constructions import complement_family, diamond_levels, kt_construction, middle_levels
from .detector import find_violation
from .lattice import Family, elems_of, lubell
from .search import EXACT_STATUS_GUARD, SearchProblem, exact_max_family

def _rat(x) -> str:
    return str(Fraction(x))


def _read_input(path: str) -> tuple[str, dict]:
    """File text plus its run-record digest."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_family(path: str) -> tuple[Family, dict]:
    text, digest = _read_input(path)
    return Family.loads(text), digest


def _load_configs(spec: str) -> tuple:
    """Named id like "diamond(4)", or a path to a JSON ConfigSet file."""
    if os.path.exists(spec):
        text, digest = _read_input(spec)
        return load_config(text), [digest]
    return build_named(parse_config_id(spec)), []


def _run_record(argv, seed, inputs, wall_time) -> dict:
    return {
        "argv": list(argv),
        "version": __version__,
        "seed": seed,
        "inputs": list(inputs),
        "wall_time": wall_time,
    }


# -- subcommand handlers -----------------------------------------------------


def _bound_args(args, parser, bound_id, what: str, keys=("n", "m", "s", "t", "h")) -> dict:
    """The parameters of ``bound_id`` (None: no bound) read from the --KEY
    flags; a missing parameter or a stray flag is a usage error."""
    names = bound_params(bound_id) if bound_id is not None else ()
    params = {}
    for key in keys:
        val = getattr(args, key)
        if key in names:
            if val is None:
                parser.error(f"{what} requires --{key}")
            params[key] = val
        elif val is not None:
            parser.error(f"{what} does not take --{key}")
    return params


def _cmd_bound(args, parser):
    params = _bound_args(args, parser, args.id, f"bound {args.id!r}")
    res = evaluate_bound(args.id, **params)
    obj = {
        "command": "bound",
        "id": args.id,
        "params": params,
        "value": _rat(res.value),
        "exactness": res.exactness,
        "validity": res.validity,
        "source": res.source,
    }
    return obj, [], None


def _bound_text(obj) -> list[str]:
    return [
        f"{obj['id']}({', '.join(f'{k}={v}' for k, v in obj['params'].items())}) "
        f"= {obj['value']}  [{obj['exactness']}; {obj['validity']}; {obj['source']}]"
    ]


def _cmd_construct(args, parser):
    """The family goes into the output as a Family: text output is its
    to_text(), structured output its to_json_obj()."""
    inputs = []
    if args.name == "kt":
        if args.n is None:
            parser.error("construct kt requires --n")
        family = kt_construction(args.n)
    elif args.name == "middle":
        if args.n is None or args.r is None:
            parser.error("construct middle requires --n and --r")
        family = middle_levels(args.n, args.r)
    elif args.name == "diamond":
        if args.n is None or args.m is None:
            parser.error("construct diamond requires --n and --m")
        family = diamond_levels(args.n, args.m)
    elif args.name == "complement":
        if args.family is None:
            parser.error("construct complement requires --family")
        base, digest = _load_family(args.family)
        inputs.append(digest)
        family = complement_family(base)
    else:  # pragma: no cover - argparse choices guard this
        parser.error(f"unknown construction {args.name!r}")
    return {"command": "construct", "name": args.name, "family": family}, inputs, None


def _construct_text(obj) -> list[str]:
    return obj["family"].to_text().splitlines()


def _cmd_check(args, parser):
    family, digest = _load_family(args.family)
    configs, cfg_inputs = _load_configs(args.config)
    mode = "induced" if args.induced else "standard"
    hit = find_violation(family, configs, mode)
    obj = {
        "command": "check",
        "config": args.config,
        "mode": mode,
        "family": {"n": family.n, "size": len(family)},
        "avoiding": hit is None,
        "violation": None,
    }
    if hit is not None:
        idx, emb = hit
        poset = configs.configs[idx]
        obj["violation"] = {
            "poset_index": idx,
            "poset_name": poset.name,
            "assignment": list(emb.assignment),
            "sets": [list(elems_of(m)) for m in emb.masks(family)],
        }
    return obj, [digest] + cfg_inputs, None


def _check_text(obj) -> list[str]:
    lines = [f"avoiding: {str(obj['avoiding']).lower()}"]
    if obj["violation"] is not None:
        v = obj["violation"]
        sets = "; ".join(",".join(map(str, s)) if s else "-" for s in v["sets"])
        lines.append(f"violation: poset #{v['poset_index']} ({v['poset_name']}) -> {sets}")
    return lines


def _cmd_search(args, parser):
    if args.n > EXACT_STATUS_GUARD and not args.allow_slow:
        parser.error(
            f"exact search beyond n={EXACT_STATUS_GUARD} needs --allow-slow "
            "(status will be a lower bound only)"
        )
    configs, cfg_inputs = _load_configs(args.config)
    what = (
        f"theorem bound {args.theorem_bound!r}"
        if args.theorem_bound is not None
        else "search without --theorem-bound"
    )
    # --n is the search's own ground size, so only the other flags are collected
    params = _bound_args(args, parser, args.theorem_bound, what, keys=("m", "s", "t", "h"))
    theorem_bound = None
    if args.theorem_bound is not None:
        theorem_bound = evaluate_bound(args.theorem_bound, n=args.n, **params)
        if theorem_bound.exactness != EXACT:
            parser.error(f"theorem bound {args.theorem_bound!r} is not exact")
    problem = SearchProblem(
        n=args.n,
        configs=configs,
        mode="induced" if args.induced else "standard",
        symmetry=args.symmetry == "on",
        theorem_bound=theorem_bound,
        time_limit=args.time_limit,
        include_empty_and_full=not args.exclude_empty_and_full,
    )
    start = time.monotonic()
    result = exact_max_family(problem)
    wall = time.monotonic() - start
    obj = {
        "command": "search",
        "n": args.n,
        "config": args.config,
        "mode": problem.mode,
        "best_size": result.best_size,
        "status": result.status,
        "witness": result.witness.to_json_obj(),
        "nodes": result.nodes_explored,
        "prunes": result.prunes,
        "wall_time": wall,
    }
    return obj, cfg_inputs, None


def _search_text(obj) -> list[str]:
    return [
        f"best_size: {obj['best_size']} ({obj['status']})",
        f"nodes: {obj['nodes']}, prunes: {obj['prunes']}, wall_time: {obj['wall_time']:.3f}s",
        "witness: " + " ".join(",".join(map(str, s)) if s else "-" for s in obj["witness"]["sets"]),
    ]


def _cmd_audit(args, parser):
    family, digest = _load_family(args.family)
    seed = None
    if args.kind == "lubell":
        seed = args.seed
        report = estimate_lubell(family, args.trials, args.seed)
        obj = {
            "command": "audit",
            "kind": "lubell",
            "trials": report.trials,
            "mean": report.mean,
            "std_error": report.std_error,
            "exact_target": _rat(report.exact_target),
            "within_5_sigma": estimate_matches_exact(report),
        }
    elif args.kind == "weighted":
        value = weighted_chain_average(family)
        obj = {
            "command": "audit",
            "kind": "weighted",
            "value": _rat(value),
            "family_size": len(family),
            "identity_holds": value == len(family),
        }
    elif args.kind == "fork":
        if args.s is None:
            parser.error("audit fork requires --s")
        report = audit_fork_lambda(family, args.s)
        obj = {
            "command": "audit",
            "kind": "fork",
            "s": report.s,
            "k": report.k,
            "band_size": report.band_size,
            "lambda_band": _rat(report.lambda_band),
            "main_bound": _rat(report.main_bound),
            "smallest_c": _rat(report.smallest_c),
            "hard_bound": _rat(report.hard_bound),
            "passed": report.passed,
        }
    elif args.kind == "slemma":
        report = audit_S_lemma(family)
        failures = [list(elems_of(e.mask)) for e in report.entries if not e.ok]
        obj = {
            "command": "audit",
            "kind": "slemma",
            "n": report.n,
            "subsets_checked": len(report.entries),
            "passed": report.passed,
            "failures": failures,
        }
    else:  # alpha
        report = alpha_audit(family)
        counts = [
            {"set": list(elems_of(mask)), "count": count} for mask, count in report.counts.items()
        ]
        obj = {
            "command": "audit",
            "kind": "alpha",
            "m": report.m,
            "threshold": report.threshold,
            "assigned_total": report.assigned_total,
            "unassigned": report.unassigned,
            "exceptions": [list(elems_of(m)) for m in report.exceptions],
            "unexpected_below": [list(elems_of(m)) for m in report.unexpected_below],
            "counts": counts,
        }
    return obj, [digest], seed


def _audit_text(obj) -> list[str]:
    skip = {"command", "kind", "counts"}
    lines = [f"audit {obj['kind']}:"]
    for key, val in obj.items():
        if key not in skip:
            lines.append(f"  {key}: {val}")
    return lines


def _cmd_lubell(args, parser):
    family, digest = _load_family(args.family)
    obj = {
        "command": "lubell",
        "n": family.n,
        "size": len(family),
        "value": _rat(lubell(family)),
    }
    return obj, [digest], None


def _lubell_text(obj) -> list[str]:
    return [f"lubell = {obj['value']}  (n={obj['n']}, size={obj['size']})"]


# command -> (handler, text renderer); a handler takes (args, parser) and
# returns (output object, input digests, seed)
_COMMANDS = {
    "bound": (_cmd_bound, _bound_text),
    "construct": (_cmd_construct, _construct_text),
    "check": (_cmd_check, _check_text),
    "search": (_cmd_search, _search_text),
    "audit": (_cmd_audit, _audit_text),
    "lubell": (_cmd_lubell, _lubell_text),
}


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forbidposet",
        description="Forbidden colored-poset patterns in the Boolean lattice.",
    )
    parser.add_argument("--version", action="version", version=f"forbidposet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("structured", "text"), default="structured",
            help="structured JSON (default) or human-readable text",
        )

    p_bound = sub.add_parser("bound", help="evaluate a closed-form bound")
    p_bound.add_argument("id", help="bound id, e.g. kt, butterfly, diamond_restricted")
    for key in ("n", "m", "s", "t", "h"):
        p_bound.add_argument(f"--{key}", type=int)
    add_format(p_bound)

    p_con = sub.add_parser("construct", help="emit an extremal construction")
    p_con.add_argument("name", choices=("kt", "middle", "diamond", "complement"))
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--r", type=int, help="band width for 'middle'")
    p_con.add_argument("--m", type=int, help="middle count for 'diamond'")
    p_con.add_argument("--family", help="input family file for 'complement'")
    add_format(p_con)
    p_con.set_defaults(format="text")  # the family text format is the native output

    p_check = sub.add_parser("check", help="test a family against a configuration")
    p_check.add_argument("--family", required=True)
    p_check.add_argument("--config", required=True, help="named id or config file")
    p_check.add_argument("--induced", action="store_true")
    add_format(p_check)

    p_search = sub.add_parser("search", help="exact maximum avoiding family")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--config", required=True, help="named id or config file")
    p_search.add_argument("--induced", action="store_true")
    p_search.add_argument("--time-limit", type=float, default=None)
    p_search.add_argument("--symmetry", choices=("on", "off"), default="on")
    p_search.add_argument("--theorem-bound", default=None, help="exact bound id for early stop")
    p_search.add_argument("--exclude-empty-and-full", action="store_true")
    p_search.add_argument("--allow-slow", action="store_true")
    for key in ("m", "s", "t", "h"):
        p_search.add_argument(f"--{key}", type=int, help="parameter for --theorem-bound")
    add_format(p_search)

    p_audit = sub.add_parser("audit", help="chain-counting audits")
    p_audit.add_argument("kind", choices=("lubell", "weighted", "fork", "slemma", "alpha"))
    p_audit.add_argument("--family", required=True)
    p_audit.add_argument("--trials", type=int, default=100000)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--s", type=int, help="fork width for 'fork'")
    add_format(p_audit)

    p_lub = sub.add_parser("lubell", help="exact Lubell function of a family")
    p_lub.add_argument("--family", required=True)
    add_format(p_lub)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler, text_lines = _COMMANDS[args.command]
    start = time.monotonic()
    try:
        obj, inputs, seed = handler(args, parser)
        obj["run"] = _run_record(argv, seed, inputs, time.monotonic() - start)
        if args.format == "structured":
            print(json.dumps(obj, default=Family.to_json_obj))
        else:
            for line in text_lines(obj):
                print(line)
        sys.stdout.flush()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does not
        # fail on the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

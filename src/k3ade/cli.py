"""Command-line interface.

Subcommands: enumerate (candidate ADE types), classify (torsion groups
per type), exists-lattice (even-lattice existence for a signature and
discriminant form), transform (closure under substitution rulesets),
verify (regenerate and diff against the shipped reference tables).

Exit codes: 0 success, 1 semantic negative (no lattice, nonempty
diff), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack

from . import refdata
from .ade_types import (ADEType, RULESETS, closure, enumerate_candidates,
                        parse_type)
from .classifier import (classify_all, classify_type, group_sets,
                         verify_reference)
from .fqf import is_nondegenerate, parse_form
from .genus import exists_even_lattice

_CLI_RULESETS = {"trivial": "trivial", "2": "[2]", "3": "[3]",
                 "4": "[4]", "22": "[2,2]"}

#: Types per task handed to a worker of classify --jobs.
_CHUNK = 16


def _parse_max_euler(value: str) -> int | None:
    if value.lower() == "none":
        return None
    return int(value)


def _bound_below_one(args) -> bool:
    """Report on stderr the first of --max-rank and --max-euler that is
    below 1, which is bad input (--max-euler none drops the bound)."""
    for flag, value in (("--max-rank", args.max_rank),
                        ("--max-euler", args.max_euler)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, got {value}",
                  file=sys.stderr)
            return True
    return False


def _type_row_json(sigma: ADEType, groups=None) -> str:
    row = {"type": str(sigma), "rank": sigma.rank, "euler": sigma.euler}
    if groups is not None:
        row["groups"] = [sorted(g, reverse=True) for g in groups]
    return json.dumps(row, sort_keys=True)


def cmd_enumerate(args) -> int:
    if _bound_below_one(args):
        return 2
    types = enumerate_candidates(args.max_rank, args.max_euler)
    if args.format == "tsv":
        print("rank\teuler\ttype")
        for t in types:
            print(f"{t.rank}\t{t.euler}\t{t}")
    else:
        for t in types:
            print(_type_row_json(t))
    return 0


def _ordered_groups(factor_sets) -> list:
    return sorted(factor_sets, key=refdata.group_sort_key, reverse=True)


def _emit_classified(sigma: ADEType, found, fmt: str) -> None:
    if fmt == "tsv":
        print(f"{sigma.rank}\t{sigma}\t{refdata.format_group_list(found)}")
    else:
        print(_type_row_json(sigma, _ordered_groups(found)))


def cmd_classify(args) -> int:
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return 2
    if args.type is not None:
        try:
            sigma = parse_type(args.type)
            found = classify_type(sigma)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _emit_classified(sigma, found, args.format)
        return 0

    if not 1 <= args.max_rank <= 18:
        print(f"error: --max-rank must be between 1 and 18, got "
              f"{args.max_rank}", file=sys.stderr)
        return 2
    if _bound_below_one(args):
        return 2
    types = enumerate_candidates(args.max_rank, args.max_euler)
    # A pool starts all its workers before the first task, so it gets no
    # more than there are cores or chunks of types.
    workers = min(args.jobs, os.cpu_count() or 1, -(-len(types) // _CHUNK))
    if args.format == "tsv":
        print("rank\ttype\tgroups")
    with ExitStack() as stack:
        results = map(classify_type, types)
        if workers > 1:
            # Imported here: it costs set-up time that a one-process
            # run never needs.
            import multiprocessing
            pool = stack.enter_context(
                multiprocessing.get_context("fork").Pool(workers))
            results = pool.imap(classify_type, types, chunksize=_CHUNK)
        for sigma, found in zip(types, results):
            if found:
                _emit_classified(sigma, found, args.format)
    return 0


def cmd_exists_lattice(args) -> int:
    try:
        parts = args.signature.split(",")
        if len(parts) != 2:
            raise ValueError(f"signature must be 'r,s', got "
                             f"{args.signature!r}")
        r, s = int(parts[0]), int(parts[1])
        if r < 0 or s < 0:
            raise ValueError("signature components must be nonnegative")
        if r + s == 0:
            raise ValueError("signature must have positive rank r + s")
        with open(args.form) as fh:
            form = parse_form(fh.read())
        if not is_nondegenerate(form):
            raise ValueError("the form is degenerate")
        # The decision factors the group order, which raises ValueError
        # past the range where that is exact.
        exists = exists_even_lattice(r, s, form)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if exists else 1


def _load_seed_file(path: str) -> list[ADEType]:
    with open(path) as fh:
        out = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "type":
                continue
            out.append(parse_type(line))
    return out


def cmd_transform(args) -> int:
    ruleset = _CLI_RULESETS[args.ruleset]
    try:
        if args.seeds == "builtin":
            seeds = refdata.load_seeds(ruleset)
        else:
            seeds = _load_seed_file(args.seeds)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = closure(frozenset(seeds), ruleset)
    for t in sorted(result, key=ADEType.sort_key):
        print(t)
    return 0


def _verify_counts(entries, by_type, failures: list[str]) -> None:
    group_counts = Counter(e.group for e in entries)
    if dict(group_counts) != refdata.GROUP_COUNTS:
        failures.append(
            f"per-group counts: computed {dict(sorted(group_counts.items()))}"
            f" != reference {refdata.GROUP_COUNTS}")
    per_rank = Counter(t.rank for t in by_type)
    got = tuple(per_rank.get(r, 0) for r in range(1, 19))
    if got != refdata.REALIZABLE_PER_RANK:
        failures.append(f"realizable types per rank: {got} != "
                        f"{refdata.REALIZABLE_PER_RANK}")
    trivial_only = Counter(t.rank for t, gs in by_type.items()
                           if gs == {()})
    got = tuple(trivial_only.get(r, 0) for r in range(1, 19))
    if got != refdata.TRIVIAL_ONLY_PER_RANK:
        failures.append(f"trivial-only types per rank: {got} != "
                        f"{refdata.TRIVIAL_ONLY_PER_RANK}")
    for group, row in refdata.GROUP_PER_RANK.items():
        admits = Counter(t.rank for t, gs in by_type.items()
                         if group in gs)
        got = tuple(admits.get(r, 0) for r in range(1, 19))
        if got != row:
            failures.append(
                f"types admitting {refdata.format_group(group)} per rank: "
                f"{got} != {row}")
    for max_euler, row, label in (
            (24, refdata.CANDIDATES_PER_RANK, "candidate"),
            (None, refdata.RANK_BOUND_PER_RANK, "rank-bounded")):
        per_rank = Counter(t.rank
                           for t in enumerate_candidates(18, max_euler))
        got = tuple(per_rank.get(r, 0) for r in range(1, 19))
        if got != row:
            failures.append(f"{label} types per rank: {got} != {row}")


def _verify_tables(entries, by_type, failures: list[str]) -> None:
    diff = verify_reference(entries, refdata.load_reference_pairs())
    for kind, sigma, detail in diff[:10]:
        failures.append(f"classification table: {kind} {sigma} {detail}")
    if len(diff) > 10:
        failures.append(f"classification table: {len(diff) - 10} more rows")

    computed_nt = {(g, t) for t, gs in by_type.items() for g in gs
                   if g not in ((), (2,))}
    reference_nt = set(refdata.load_nontrivial_pairs())
    for g, t in sorted(reference_nt - computed_nt,
                       key=lambda p: (p[1].sort_key(), p[0])):
        failures.append(
            f"nontrivial-torsion table: missing {refdata.format_group(g)} "
            f"{t}")
    for g, t in sorted(computed_nt - reference_nt,
                       key=lambda p: (p[1].sort_key(), p[0])):
        failures.append(
            f"nontrivial-torsion table: extra {refdata.format_group(g)} {t}")

    for ruleset in RULESETS:
        group = refdata.RULESET_GROUPS[ruleset]
        admits = {t for t, gs in by_type.items() if group in gs}
        rank18 = {t for t in admits if t.rank == 18}
        fixture = set(refdata.load_rank18(ruleset))
        if rank18 != fixture:
            failures.append(
                f"rank-18 list ({ruleset}): computed differs, e.g. "
                f"{sorted(rank18 ^ fixture, key=ADEType.sort_key)[:4]}")
        closed = closure(frozenset(refdata.load_seeds(ruleset)), ruleset)
        if closed != admits:
            extra = sorted(closed - admits, key=ADEType.sort_key)[:4]
            missing = sorted(admits - closed, key=ADEType.sort_key)[:4]
            failures.append(
                f"substitution closure ({ruleset}): closure minus computed "
                f"{extra}, computed minus closure {missing}")


def cmd_verify(args) -> int:
    entries = classify_all()
    by_type = group_sets((e.type, e.group) for e in entries)
    failures: list[str] = []
    _verify_counts(entries, by_type, failures)
    if args.only != "counts":
        _verify_tables(entries, by_type, failures)
    if failures:
        for line in failures:
            print(f"FAIL {line}")
        print(f"verification failed: {len(failures)} divergence(s)")
        return 1
    checked = "counts" if args.only == "counts" else "counts and tables"
    print(f"verification passed ({checked}; {len(entries)} pairs)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3ade",
        description="Classification of reducible-fiber configurations "
                    "and torsion groups of elliptic K3 surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="list candidate ADE types with rank and "
                            "Euler number")
    p.add_argument("--max-rank", type=int, default=18)
    p.add_argument("--max-euler", type=_parse_max_euler, default=24)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify",
                       help="compute realizable torsion groups per type")
    p.add_argument("--type", default=None,
                   help="single ADE type string; omit for the full run")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; at most the number of cores "
                        f"and of chunks of {_CHUNK} types are started")
    p.add_argument("--max-rank", type=int, default=18)
    p.add_argument("--max-euler", type=_parse_max_euler, default=24)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("exists-lattice",
                       help="decide existence of an even lattice with "
                            "given signature and discriminant form")
    p.add_argument("--signature", required=True, metavar="R,S")
    p.add_argument("--form", required=True,
                   help="file in the plain-text form format")
    p.set_defaults(func=cmd_exists_lattice)

    p = sub.add_parser("transform",
                       help="closure of seed types under a substitution "
                            "ruleset")
    p.add_argument("--ruleset", choices=tuple(_CLI_RULESETS), required=True)
    p.add_argument("--seeds", default="builtin",
                   help="seed file of type strings, or 'builtin'")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify",
                       help="regenerate the classification and diff "
                            "against the shipped reference tables")
    p.add_argument("--only", choices=("counts",), default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # argparse reads an attached "--" ("--type=--") as the end of the
    # options and gives the option an empty list, not a string.  No
    # option here takes a list, so that is bad input.
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{name.replace('_', '-')}: expected "
                  f"one argument", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

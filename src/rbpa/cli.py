"""Command line front end.

Subcommands: seq (tabulate a family), egf (dump series coefficients),
oracle (brute-force counts), cycle (last-digit periodicity check),
verify (run the identity registry).

seq and cycle read each family through one value function, value(n),
and tabulate it in one loop; where the output needs integers (bfile,
cycle) that loop refuses the family at its first proper fraction,
before any later value is computed.

Exit codes: 0 on success, 1 when a verification fails or rbpa itself
fails, 2 on usage errors. A usage error is raised as `UsageError` by the
argument checks here, as `identities.BindingError` by a binding an
identity refuses, or as `oracle.SizeLimitError`; any other exception is
a fault inside rbpa and exits 1 with one `rbpa:` line naming it. A
closed stdout (`rbpa seq ... | head -1`) exits 1 as Python's own tools
do, quietly: it is neither a usage error nor a fault.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction
from functools import partial

from . import bernoulli, counts, identities, oracle


class UsageError(Exception):
    pass


def _emit_values(family: str, params: dict, values, fmt: str, out) -> None:
    """values[i] is the sequence member at n = i."""
    if fmt == "json":
        payload = {"family": family, "params": params, "values": values}
        out.write(identities.canonical_json(identities.json_value(payload)))
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "value"])
        for n, v in enumerate(values):
            writer.writerow([n, str(identities.json_value(v))])
    else:
        for n, v in enumerate(values):
            out.write(f"{n} {identities.json_value(v)}\n")


# Bounds of --index (seq, cycle), checked before any value is computed.
# The weight table of a B index of weight w costs about w^2 big-int
# steps, so the entries' sizes are bounded one by one and in sum. A
# positive entry k puts lcm(1..n+1)^k into the values, so the sum is
# also bounded jointly with --n-max. U's chain rows take one pass per
# entry, so the length is bounded too. Every index in the tests, README
# and CI stays inside; the slowest allowed run takes about 10 s.
INDEX_LEN_MAX = 10
INDEX_ENTRY_MAX = 1200
INDEX_SUM_MAX = 2400
INDEX_WORK_MAX = 6000  # bound of (n_max + 1) * sum of |entries|


def _parse_index(text: str, n_max: int) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad index {text!r}; expected e.g. -2,0,0") from None
    if len(entries) > INDEX_LEN_MAX:
        raise UsageError(f"--index has at most {INDEX_LEN_MAX} entries")
    if max(map(abs, entries)) > INDEX_ENTRY_MAX:
        raise UsageError(
            f"--index entries must be between -{INDEX_ENTRY_MAX} and "
            f"{INDEX_ENTRY_MAX}"
        )
    weight = sum(map(abs, entries))
    if weight > INDEX_SUM_MAX:
        raise UsageError(
            f"the absolute values of the --index entries must sum to at "
            f"most {INDEX_SUM_MAX}"
        )
    if (n_max + 1) * weight > INDEX_WORK_MAX:
        raise UsageError(
            f"(n_max+1) times the sum of |--index entries| must be at most "
            f"{INDEX_WORK_MAX}; lower --index or --n-max"
        )
    return entries


def _negated(entries: tuple[int, ...]) -> tuple[int, ...]:
    if any(e > 0 for e in entries):
        raise UsageError(
            "this family needs non-positive index entries, e.g. -2,0"
        )
    return tuple(-e for e in entries)


# Upper bounds of --n-max (seq, cycle) and --order (egf), and of --r and
# --j (seq and cycle for families p and W, egf), so no input starts an
# unbounded run. Every use in the tests, demos, README and benchmark
# stays at or below 200 and 4; at the bounds the slowest runs take
# 3-7 s (see README).
SEQ_CLI_MAX = 500
J_CLI_MAX = 100
R_CLI_MAX = 100


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{flag} must be at most {cap}")


# Ceilings of the values `verify --set` binds, per parameter, and of
# the bindings one such run checks: the overridden lists and the
# profile's lists for the rest, after the identity's constraint. That
# count may reach SET_BINDINGS_MAX or the profile's own count, if
# larger (L1's full profile checks 1020 cheap bindings). Each value's
# least is its domain row's low, checked by `identities.bindings`. A
# parameter with no ceiling here is refused, and a --set list may not
# repeat a value, so no binding runs twice. Every --set run in the
# README, CI and the passing tests stays inside; the slowest allowed
# runs take 5-10 s (README).
SET_MAX = {"n": 60, "n_max": 60, "r": 8, "j": 8, "b": 8, "s": 1000}
SET_BINDINGS_MAX = 1000


def _check_overrides(spec, overrides: dict, profile: str) -> None:
    domain = spec.domain(profile)
    for name, values in overrides.items():
        if name not in domain or isinstance(domain[name][0], tuple):
            continue  # identities.bindings refuses these
        if name not in SET_MAX:
            raise UsageError(f"--set {name} has no ceiling")
        if max(values) > SET_MAX[name]:
            raise UsageError(f"--set {name} takes values up to {SET_MAX[name]}")
        if len(set(values)) < len(values):
            raise UsageError(f"--set {name} repeats a value")
    count = len(identities.bindings(spec.ident, overrides, profile))
    most = max(SET_BINDINGS_MAX, len(identities.bindings(spec.ident, None, profile)))
    if count > most:
        raise UsageError(
            f"{spec.ident} would check {count} bindings; --set allows at "
            f"most {most}"
        )


def _family(args, n_max: int):
    """(family tag, params dict, value) with value(n) the member at n."""
    family = args.family
    if family == "p":
        if args.r is None or args.j is None:
            raise UsageError("family p needs --r and --j")
        if args.r < 0 or args.j < 0:
            raise UsageError("r, j, n_max must be >= 0")
        _check_cap("--j", args.j, J_CLI_MAX)
        _check_cap("--r", args.r, R_CLI_MAX)
        row = counts.p_egf(args.r, args.j, n_max).values
        return family, {"r": args.r, "j": args.j}, row.__getitem__
    if family in ("B", "U"):
        if args.index is None:
            raise UsageError(f"family {family} needs --index")
        entries = _parse_index(args.index, n_max)
        if family == "U":
            value = partial(bernoulli.u_stirling_sum, entries)
        elif len(entries) == 1:
            value = partial(bernoulli.poly_bernoulli, entries[0])
        else:
            value = partial(bernoulli.multi_poly_bernoulli, _negated(entries))
        return family, {"index": list(entries)}, value
    if family == "W":
        if args.r is None:
            raise UsageError("family W needs --r")
        if args.r < 1:
            raise UsageError("family W needs --r >= 1")
        _check_cap("--r", args.r, R_CLI_MAX)
        return family, {"r": args.r}, partial(bernoulli.w_family, args.r)
    raise UsageError(f"unknown family {family!r}")


def _tabulate(value, n_max: int, refusal: str | None = None) -> list:
    """value(0..n_max); given a refusal, raise it at the first proper fraction."""
    values = []
    for n in range(n_max + 1):
        v = value(n)
        if refusal and isinstance(v, Fraction) and v.denominator != 1:
            raise UsageError(refusal)
        values.append(v)
    return values


def cmd_seq(args) -> int:
    if args.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    _check_cap("--n-max", args.n_max, SEQ_CLI_MAX)
    family, params, value = _family(args, args.n_max)
    refusal = "bfile output needs integer values; use json or csv"
    vals = _tabulate(value, args.n_max, refusal if args.format == "bfile" else None)
    _emit_values(family, params, vals, args.format, sys.stdout)
    return 0


def cmd_egf(args) -> int:
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    _check_cap("--order", args.order, SEQ_CLI_MAX)
    if args.r < 0 or args.j < 0:
        raise UsageError("--r and --j must be >= 0")
    _check_cap("--j", args.j, J_CLI_MAX)
    _check_cap("--r", args.r, R_CLI_MAX)
    if args.reciprocal:
        vals = counts.p_reciprocal_row(args.r, args.j, args.order)
    else:
        vals = counts.p_egf(args.r, args.j, args.order).values
    params = {"r": args.r, "j": args.j, "reciprocal": bool(args.reciprocal)}
    _emit_values("egf", params, vals, args.format, sys.stdout)
    return 0


# The oracle's work up to n_max is about (r+j)^(n_max+1), the bound
# `oracle.enumerate_rbpa` puts on its largest n; it is checked here as
# well so that an oversized run is a usage error with its own message.
# The slowest allowed runs take a few seconds.
ORACLE_CLI_MAX = 7


def cmd_oracle(args) -> int:
    if not 0 <= args.n_max <= ORACLE_CLI_MAX:
        raise UsageError(f"--n-max must be between 0 and {ORACLE_CLI_MAX}")
    if args.r < 0 or args.j < 0:
        raise UsageError("--r and --j must be >= 0")
    if (args.r + args.j) ** (args.n_max + 1) > oracle.ORACLE_WORK_MAX:
        raise UsageError(
            f"(r+j)^(n_max+1) must be at most {oracle.ORACLE_WORK_MAX}; "
            "lower --r, --j or --n-max"
        )
    vals = [oracle.enumerate_rbpa(n, args.r, args.j) for n in range(args.n_max + 1)]
    _emit_values(
        "p", {"r": args.r, "j": args.j, "oracle": True}, vals, args.format,
        sys.stdout,
    )
    return 0


def cmd_cycle(args) -> int:
    if args.n_max < 9:
        raise UsageError("--n-max must be >= 9 so every residue is checked")
    _check_cap("--n-max", args.n_max, SEQ_CLI_MAX)
    family, params, value = _family(args, args.n_max)
    vals = _tabulate(value, args.n_max, "cycle check needs an integer family")
    holds = counts.last_digit_cycle_check(vals[1:])
    payload = {
        "family": family,
        "params": params,
        "offset": 1,
        "n_max": args.n_max,
        "holds": holds,
    }
    sys.stdout.write(identities.canonical_json(identities.json_value(payload)))
    sys.stdout.write("\n")
    return 0 if holds else 1


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"bad override {pair!r}; expected name=v1,v2,...")
        name, _, raw = pair.partition("=")
        name = name.strip()
        if name in overrides:
            raise UsageError(f"--set names {name} twice")
        try:
            overrides[name] = [int(v) for v in raw.split(",")]
        except ValueError:
            raise UsageError(f"override values must be integers: {pair!r}") from None
    return overrides


def _print_coverage(out) -> None:
    rows = identities.REGISTRY.coverage_table()
    width = max(len(r["id"]) for r in rows)
    out.write(f"{'ID':<{width}}  MODE        LHS ROUTE / RHS ROUTE\n")
    for row in rows:
        mode = "diagnostic" if row["diagnostic"] else "check"
        out.write(f"{row['id']:<{width}}  {mode:<10}  {row['lhs']}\n")
        out.write(f"{'':<{width}}  {'':<10}  {row['rhs']}\n")
        out.write(f"{'':<{width}}  {'':<10}  [{row['anchor']}]\n")
    out.write(f"{len(rows)} identities registered\n")


def cmd_verify(args) -> int:
    if args.list:
        _print_coverage(sys.stdout)
        return 0
    if args.identity is None:
        if args.set:
            raise UsageError("--set needs a specific identity id")
        summary = identities.run_all(profile=args.profile)
        sys.stdout.write(summary.to_json())
        sys.stdout.write("\n")
        return summary.exit_code
    overrides = _parse_overrides(args.set)
    try:
        spec = identities.REGISTRY.get(args.identity)
        if overrides:
            _check_overrides(spec, overrides, args.profile)
        reports = identities.run_identity(
            args.identity, overrides=overrides or None, profile=args.profile
        )
    except identities.UnknownIdentityError:
        raise UsageError(
            f"unknown identity {args.identity!r}; see `rbpa verify --list`"
        ) from None
    except identities.BindingError as exc:
        raise UsageError(str(exc)) from None
    sys.stdout.write(identities.reports_to_json(reports))
    sys.stdout.write("\n")
    if not spec.diagnostic and any(not r.passed for r in reports):
        return 1
    return 0


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv", "bfile"),
        default="json",
        help="output format (default json)",
    )


def _add_family(parser) -> None:
    parser.add_argument(
        "--family", required=True, choices=["p", "B", "U", "W"],
        help="p: barred counts; B, U: the two number families; W: 2r^n-(r-1)^n",
    )
    parser.add_argument(
        "--r", type=int, default=None,
        help=f"restricted sections (p) or power base (W), at most {R_CLI_MAX}",
    )
    parser.add_argument(
        "--j", type=int, default=None,
        help=f"free sections for family p, at most {J_CLI_MAX}",
    )
    parser.add_argument(
        "--index", default=None,
        help=f"comma-separated signed upper index, e.g. -2,0,0; at most "
             f"{INDEX_LEN_MAX} entries of size at most {INDEX_ENTRY_MAX}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbpa",
        description="exact arrangement counts and their number families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="tabulate a family for n = 0..n_max")
    _add_family(p_seq)
    p_seq.add_argument(
        "--n-max", type=int, required=True,
        help=f"largest n to tabulate, at most {SEQ_CLI_MAX}",
    )
    _add_format(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_egf = sub.add_parser(
        "egf", help="dump coefficients of e^{rm}/(2-e^m)^j or its reciprocal"
    )
    p_egf.add_argument(
        "--r", type=int, required=True, help=f"at most {R_CLI_MAX}",
    )
    p_egf.add_argument(
        "--j", type=int, required=True, help=f"at most {J_CLI_MAX}",
    )
    p_egf.add_argument(
        "--order", type=int, required=True,
        help=f"largest coefficient to dump, at most {SEQ_CLI_MAX}",
    )
    p_egf.add_argument(
        "--reciprocal", action="store_true",
        help="dump the reciprocal series instead",
    )
    _add_format(p_egf)
    p_egf.set_defaults(func=cmd_egf)

    p_oracle = sub.add_parser(
        "oracle", help="brute-force the counts by direct enumeration"
    )
    p_oracle.add_argument("--r", type=int, required=True)
    p_oracle.add_argument("--j", type=int, required=True)
    p_oracle.add_argument(
        "--n-max", type=int, required=True,
        help=f"largest n to enumerate, at most {ORACLE_CLI_MAX}",
    )
    _add_format(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_cycle = sub.add_parser(
        "cycle", help="check the period-4 last-digit cycle from n = 1"
    )
    _add_family(p_cycle)
    p_cycle.add_argument(
        "--n-max", type=int, required=True,
        help=f"at least 9 and at most {SEQ_CLI_MAX}",
    )
    p_cycle.set_defaults(func=cmd_cycle)

    p_verify = sub.add_parser("verify", help="run the identity registry")
    p_verify.add_argument(
        "identity", nargs="?", default=None,
        help="single identity id; omit to run everything",
    )
    p_verify.add_argument(
        "--profile", choices=sorted(identities.PROFILES), default="quick",
    )
    p_verify.add_argument(
        "--set", action="append", metavar="NAME=V1,V2,...",
        help="override one parameter range (repeatable)",
    )
    p_verify.add_argument(
        "--list", action="store_true", help="print the coverage table and exit",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _glue_index(argv: list[str]) -> list[str]:
    # argparse reads "-2,0" as a flag, so fold `--index -2,0` into one token;
    # a following `--name` is an option, not a value, and is left for
    # argparse to report the missing index
    out = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (
            token == "--index"
            and pos + 1 < len(argv)
            and not argv[pos + 1].startswith("--")
        ):
            out.append(f"--index={argv[pos + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_glue_index(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at
        # devnull so that flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, oracle.SizeLimitError) as exc:
        print(f"rbpa: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault inside rbpa, not in the arguments
        print(f"rbpa: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

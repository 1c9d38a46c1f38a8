"""Command-line interface.

Subcommands: kloosterman, gauss, bilinear, count, region, sweep, verify,
plan.  Exit code 0 on success; failures print a machine-readable JSON error
on stderr and exit with a category-specific code (2 invalid input, 3
resource limit, 4 I/O, 5 verification, 1 anything else): a `KgsumsError`
carries its own, and bad arguments and I/O failures get 2 and 4.

The parser is the one definition of the commands: a JSON run plan names a
command other than ``plan`` and some of its long options, which take the
parser's defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .bilinear import _KLOOSTERMAN_METHODS, WEIGHT_KINDS, Interval, bilinear_kloosterman
from .bounds import improvement_region
from .counting import (
    _COUNT_METHODS,
    dyadic_average,
    jr_congruence,
    jr_equation,
    rr_congruence,
    rr_equation,
)
from .csvio import emit_csv
from .errors import ConfigError, DomainRestriction, KgsumsError, VerificationError
from .experiments import (
    FAMILIES,
    average_sweep,
    build_weight_vector,
    cross_check,
    exceptional_budget,
    run_experiment,
)
from .expsums import character_at, conductors, gauss, kloosterman
from .modmath import Modulus
from .verify import run_verify

class _Parser(argparse.ArgumentParser):
    """Raises on bad arguments, in its subparsers too, so `main` reports invalid_input."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    """The parser; its ``commands`` maps each subcommand to its own parser."""
    parser = _Parser(
        prog="kgsums",
        description="Kloosterman/Gauss sums, bilinear forms, and cancellation measurement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("kloosterman", help="one complete Kloosterman sum")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("gauss", help="one Gauss sum for a character index")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--chi", type=int, required=True, help="index in enumeration order")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bilinear", help="seeded weighted bilinear form experiment")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--M", type=int, required=True, help="weight support size")
    p.add_argument("--N", type=int, required=True, help="interval length")
    p.add_argument("--L", type=int, default=0, help="interval offset")
    p.add_argument("--weights", choices=WEIGHT_KINDS, default="const")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        default=None,
        help="comma-separated evaluation methods (default: the family's route)",
    )
    p.add_argument("--k", type=int, default=1, help="inverse-power kernel exponent")
    p.add_argument("--family", choices=FAMILIES, default="kloosterman")
    p.add_argument("--out", default=None, help="write records as CSV")

    p = sub.add_parser("count", help="congruence / equation solution counts")
    p.add_argument(
        "--kind",
        choices=("jr", "rr", "jr-eq", "rr-eq", "jr-avg", "rr-avg"),
        required=True,
    )
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--Q", type=int, default=None, help="dyadic range start for *-avg")
    p.add_argument(
        "--method",
        choices=_COUNT_METHODS,
        default=None,
        help="jr/rr route (default: fft where its rounding certificate holds, else convolution)",
    )

    p = sub.add_parser("region", help="classify exponents against the polygon")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)

    p = sub.add_parser("sweep", help="dyadic average sweep over q in [Q, 2Q]")
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--weights", choices=WEIGHT_KINDS, default="pm1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", choices=FAMILIES, default="kloosterman")
    p.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the condensed invariant suite")

    p = sub.add_parser("plan", help="run or emit a JSON run plan")
    p.add_argument("--config", default=None, help="path of the plan to execute")
    p.add_argument("--emit-defaults", default=None, help="write the default plan here")
    return parser


def _plan_defaults(command: str) -> dict:
    """The keys a run plan of ``command`` may set: its long options, with their defaults."""
    commands = _build_parser().commands
    # a JSON list or object is no command, and is unhashable besides
    if not isinstance(command, str) or command not in commands or command == "plan":
        raise ConfigError(f"unknown command {command!r}")
    return {
        opt[2:]: action.default
        for action in commands[command]._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    }


@dataclass(frozen=True)
class RunPlan:
    """A CLI invocation captured as structured data."""

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        allowed = _plan_defaults(self.command)
        for key in self.options:
            if key not in allowed:
                raise ConfigError(f"unknown config key {key!r} for command {self.command!r}")


def default_plan() -> RunPlan:
    """``bilinear`` at q = 101, M = N = 10 and seed 1, its other options at their defaults."""
    options = {**_plan_defaults("bilinear"), "q": 101, "M": 10, "N": 10, "seed": 1}
    return RunPlan("bilinear", options)


def save_config(plan: RunPlan, path: str | Path) -> None:
    payload = {"command": plan.command, **plan.options}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_config(path: str | Path) -> RunPlan:
    """Load a JSON run plan; unknown keys are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read config from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if "command" not in raw:
        raise ConfigError(f"config {path} is missing the 'command' key")
    command = raw.pop("command")
    return RunPlan(command=command, options=raw)


def _cmd_kloosterman(args) -> int:
    res = kloosterman(Modulus.of(args.q), args.m, args.n)
    print(f"K_{args.q}({args.m}, {args.n}) = {res.value.real:.15g} + {res.value.imag:.3g}i")
    print(f"terms = {res.terms}, error_bound = {res.error_bound:.3e}")
    return 0


def _cmd_gauss(args) -> int:
    mod = Modulus.of(args.q)
    chi = character_at(mod, args.chi)
    res = gauss(mod, chi, args.n)
    cond = int(conductors(mod, [chi])[0])
    kind = "primitive" if cond == mod.q else f"conductor {cond}"
    print(f"G_{args.q}(chi_{args.chi}, {args.n}) = {res.value:.15g}   [{kind}]")
    print(f"|G| = {abs(res.value):.15g}, error_bound = {res.error_bound:.3e}")
    return 0


def _cmd_bilinear(args) -> int:
    methods = tuple(m.strip() for m in (args.method or "").split(",") if m.strip())
    if args.k != 1:
        if args.family != "kloosterman":
            raise DomainRestriction("--k applies to the kloosterman family only")
        if args.out:
            raise DomainRestriction("--k other than 1 has no bound records to write to --out")
        if "naive" in methods:
            raise DomainRestriction(f"the naive route needs k = 1, got k = {args.k}")
        # the requested routes first (the first one is reported), then every
        # route the kernel has
        methods += tuple(m for m in _KLOOSTERMAN_METHODS if m != "naive" and m not in methods)
        mod = Modulus.of(args.q)
        weights = build_weight_vector(mod, args.M, args.weights, args.seed)
        J = Interval.of(mod, args.L, args.N)
        results = [bilinear_kloosterman(weights, J, m, k=args.k) for m in methods]
        cross_check(methods, results, mod.q)
        res = results[0]
        print(f"S_{{{args.k},{args.q}}} = {res.value:.15g}, |S| = {abs(res.value):.15g}")
        print(f"error_bound = {res.error_bound:.3e}")
        print(f"routes {', '.join(methods)} agree within their error budgets")
        return 0
    records = run_experiment(
        args.q,
        args.M,
        args.N,
        L=args.L,
        weight_kind=args.weights,
        seed=args.seed,
        methods=methods,
        family=args.family,
    )
    for rec in records:
        print(
            f"q={rec.q} M={rec.M} N={rec.N} |S|={rec.abs_sum:.6e} "
            f"{rec.bound_name}={rec.bound_value:.6e} ratio={rec.ratio:.4f}"
        )
    if args.out:
        emit_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_count(args) -> int:
    if args.kind in ("jr", "rr"):
        if args.q is None:
            raise ConfigError("--q is required for congruence counts")
        fn = jr_congruence if args.kind == "jr" else rr_congruence
        value = fn(args.q, args.K, args.r, method=args.method)
        print(f"{args.kind}(q={args.q}, K={args.K}, r={args.r}) = {value}")
    elif args.kind in ("jr-eq", "rr-eq"):
        fn = jr_equation if args.kind == "jr-eq" else rr_equation
        value = fn(args.K, args.r)
        print(f"{args.kind}(K={args.K}, r={args.r}) = {value}")
    else:
        if args.Q is None:
            raise ConfigError("--Q is required for dyadic averages")
        kind = "reciprocal" if args.kind == "jr-avg" else "product"
        mean, per_q = dyadic_average(args.Q, args.K, args.r, kind=kind)
        print(f"mean over q in [{args.Q}, {2 * args.Q}] = {mean} ({float(mean):.6g})")
        print(f"max per-q count = {max(per_q.values())} at q = {max(per_q, key=per_q.get)}")
    return 0


def _cmd_region(args) -> int:
    print(improvement_region(args.mu, args.nu))
    return 0


def _cmd_sweep(args) -> int:
    records, exceptional = average_sweep(
        args.Q,
        args.N,
        args.r,
        args.epsilon,
        weight_kind=args.weights,
        seed=args.seed,
        family=args.family,
    )
    budget = exceptional_budget(args.Q, args.r, args.epsilon)
    print(f"{len(records)} moduli swept over [{args.Q}, {2 * args.Q}]")
    print(
        f"exceptional (ratio > 1): {exceptional}; reference Q^(1-2*r*eps) = {budget:.6g}; "
        f"fraction = {exceptional / budget:.6g}"
    )
    if args.out:
        emit_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verify()
    failed = 0
    for check in results:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    if failed:
        raise VerificationError(f"{failed} of {len(results)} checks failed")
    print(f"all {len(results)} checks passed")
    return 0


def _cmd_plan(args) -> int:
    if args.emit_defaults:
        save_config(default_plan(), args.emit_defaults)
        print(f"wrote default plan to {args.emit_defaults}")
        return 0
    if not args.config:
        raise ConfigError("plan requires --config or --emit-defaults")
    plan = load_config(args.config)
    argv = [plan.command]
    for key, value in plan.options.items():
        if value is None:
            continue
        argv += [f"--{key}", str(value)]
    return main(argv)


_DISPATCH = {
    "kloosterman": _cmd_kloosterman,
    "gauss": _cmd_gauss,
    "bilinear": _cmd_bilinear,
    "count": _cmd_count,
    "region": _cmd_region,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "plan": _cmd_plan,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except KgsumsError as exc:
        print(json.dumps({"category": exc.category, "message": str(exc)}), file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        print(json.dumps({"category": "invalid_input", "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(json.dumps({"category": "io_error", "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Exit codes: 0 when everything ran and every defended combination held its
bound, 1 for configuration or usage errors and for a transcript that is
corrupt or whose replay diverges from the recorded run, 2 when a defended
protocol violated its bound (the CI gate). Human-readable summaries go to
stdout; reports go to --out as JSON or CSV.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .acceptance import ACCEPTANCE_SEED, CRITERIA, run_criteria
from .attacks import STRATEGIES, AttackStrategy
from .harness import (
    KEM2_ENTROPY_PROFILES,
    ConfigError,
    ExperimentConfig,
    TrialSummary,
    build_report,
    exit_code_for,
    report_csv_text,
    report_json_bytes,
    sweep,
    trial_world,
)
from .model import TranscriptError, run_honest, transcript_export, transcript_replay
from .primitives import GROUPS, MAX_ENTROPY_BITS, MIN_ENTROPY_BITS, KemMode
from .protocols import SPECS, ProtocolKind

PROTOCOL_NAMES = [k.value for k in ProtocolKind]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract reserves 2
    for bound violations, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common_flags(parser, with_budget=True):
    parser.add_argument("--ne", default="16", help=f"entropy width in bits ({MIN_ENTROPY_BITS}.."
                        f"{MAX_ENTROPY_BITS}); a sweep takes a list, e.g. 4,8,12")
    parser.add_argument("--trials", default="1", help="number of independent trials")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--group", choices=sorted(GROUPS), default="toy256",
        help="prime group (toy256 keeps attack loops fast)",
    )
    parser.add_argument("--kem-mode", choices=sorted(m.value for m in KemMode), default="det")
    parser.add_argument(
        "--kem2-entropy", choices=KEM2_ENTROPY_PROFILES, default="full",
        help="entropy input profile of the 2-pass encapsulation protocol",
    )
    if with_budget:
        parser.add_argument(
            "--budget", type=int, default=None,
            help="iteration budget for collision loops (default 2^(ne+4))",
        )
    parser.add_argument("--out", type=Path, default=None, help="report output path")
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="saslab", description=__doc__)
    strategies = [s.value for s in STRATEGIES]
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("list-protocols", help="show the protocol catalogue")

    run_p = sub.add_parser("run", help="honest protocol runs")
    run_p.add_argument("--protocol", choices=PROTOCOL_NAMES, required=True)
    _add_common_flags(run_p, with_budget=False)
    run_p.add_argument(
        "--transcript", type=Path, default=None,
        help="write a replayable transcript of the first trial",
    )

    attack_p = sub.add_parser("attack", help="launch one attack strategy")
    attack_p.add_argument("--strategy", choices=strategies, required=True)
    attack_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default=None)
    _add_common_flags(attack_p)

    sweep_p = sub.add_parser("sweep", help="repeat an experiment across entropy widths")
    sweep_p.add_argument("--protocol", choices=PROTOCOL_NAMES, required=True)
    sweep_p.add_argument("--strategy", choices=strategies + ["honest"], default="honest")
    _add_common_flags(sweep_p)

    selftest_p = sub.add_parser("selftest", help="run the acceptance battery")
    selftest_p.add_argument(
        "--only", default=None, help="comma-separated criterion numbers (default all)"
    )
    selftest_p.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)

    replay_p = sub.add_parser("replay", help="re-execute an exported transcript")
    replay_p.add_argument("transcript", type=Path)

    return parser


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        numbers = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        numbers = []
    if not numbers:  # none is refused: an empty --only would select every criterion
        raise ConfigError(f"{flag} expects integers, got {text!r}")
    return numbers


def _print_summary(summary: TrialSummary):
    label = "expected demonstration" if (
        summary.expectation == "demonstration" and summary.verdict == "violates-bound"
    ) else summary.verdict
    print(
        f"{summary.protocol} {summary.strategy} n_e={summary.n_e}: "
        f"{summary.successes}/{summary.trials} (rate {summary.rate:.4f}, "
        f"95% [{summary.wilson_low:.4f}, {summary.wilson_high:.4f}]), "
        f"mean iterations {summary.mean_iterations:.1f}, "
        f"bound {summary.bound:.6f} -> {label}"
    )


def _cmd_list_protocols() -> int:
    print(f"{'protocol':18s} {'msgs':>4s} {'starts':>6s}  entropy values (receiver identity)")
    for kind in ProtocolKind:
        spec = SPECS[kind]
        entry = ", ".join(
            f"{label}[{value.receiver.value if value.receiver else 'none'}]"
            for label, value in spec.entropies.items()
        )
        print(
            f"{kind.value:18s} {spec.message_count:4d} "
            f"{spec.starting_side.value:>6s}  {entry}"
        )
    return 0


def _cmd_experiment(args) -> int:
    """run, attack and sweep; a run or an attack is a one-point sweep."""
    strategy = getattr(args, "strategy", "honest")
    if args.protocol is None:  # an attack that names no protocol
        target = STRATEGIES[AttackStrategy(strategy)].implied_target
        if target is None:
            raise ConfigError(f"--protocol is required for {strategy}")
        args.protocol = target.value
    widths = _parse_int_list(args.ne, "--ne")
    trials = _parse_int_list(args.trials, "--trials")
    if len(widths) + len(trials) != 2 and args.command != "sweep":
        raise ConfigError("--ne and --trials each expect a single integer here")
    trials = trials * len(widths) if len(trials) == 1 else trials
    base = ExperimentConfig(
        protocol=args.protocol,
        strategy=strategy,
        group=args.group,
        kem_mode=args.kem_mode,
        n_e=widths[0],
        trials=trials[0],
        budget=getattr(args, "budget", None),
        seed=args.seed,
        kem2_entropy=args.kem2_entropy,
    )
    outputs = {"report": args.out, "transcript": getattr(args, "transcript", None)}
    for what, path in outputs.items():  # refused before any trial runs
        if path is not None and not os.access(path.parent, os.W_OK):
            raise ConfigError(f"cannot write {what}: {path.parent} is not a writable directory")
    summaries = sweep(base, widths, trials_per_point=trials)
    for summary in summaries:
        _print_summary(summary)
    if outputs["transcript"] is not None:
        world = trial_world(base, 0)
        run_honest(world)
        _write(args.transcript, transcript_export(world), "transcript")
    if args.out is not None:
        if args.format == "csv":
            _write(args.out, report_csv_text(summaries).encode(), "report")
        else:
            kind = "sweep" if args.command == "sweep" else "experiment"
            report = build_report(summaries, kind=kind, config=base)
            _write(args.out, report_json_bytes(report), "report")
    return exit_code_for(summaries)


def _write(path: Path, data: bytes, what: str) -> None:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}")
    print(f"{what} written to {path}")


def _cmd_selftest(args) -> int:
    if not 0 <= args.seed < 1 << 64:
        raise ConfigError("seed must be within [0, 2^64)")
    numbers = None if args.only is None else _parse_int_list(args.only, "--only")
    unknown = sorted(set(numbers or ()) - set(CRITERIA))
    if unknown:
        raise ConfigError(f"no criterion {unknown[0]}; criteria are 1..{max(CRITERIA)}")
    results = run_criteria(numbers, seed=args.seed)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 2 if failed else 0


def _cmd_replay(args) -> int:
    try:
        raw = args.transcript.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read transcript: {exc}")
    _, records = transcript_replay(raw)
    for record in records:
        entropies = ", ".join(
            f"{label}={value}" for label, value in sorted(record.entropies.items())
        )
        kappa = record.kappa.hex() if record.kappa else "null"
        print(
            f"{record.parties[0].decode()} {record.role} {record.status.value} "
            f"kappa={kappa} {entropies}"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list-protocols":
            return _cmd_list_protocols()
        if args.command in ("run", "attack", "sweep"):
            return _cmd_experiment(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        if args.command == "replay":
            return _cmd_replay(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"saslab: configuration error: {exc}", file=sys.stderr)
        return 1
    except TranscriptError as exc:
        print(f"saslab: transcript error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

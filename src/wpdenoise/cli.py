"""Command-line surface: denoise, analyze, synth, experiment.

Exit statuses: 0 success, 1 usage error, 2 I/O error, 3 processing
error; every failure prints a one-line diagnostic on stderr. Successful
runs stay quiet unless --verbose is given (a "wrote PATH" line for every
file written) or samples were clipped on writing a WAV (one warning
line on stderr); the experiment subcommand's SNR lines are its output,
not diagnostics. The environment variable WAVEDENOISE_SEED overrides
--seed everywhere.

main(), the console script and `python -m wpdenoise.cli`, freezes the
garbage collector's view of everything imported before it parses: a
CLI process runs one request and exits, and at exit the collector would
otherwise sweep every object the imports of numpy, the stdlib and this
package made, which live until then anyway. run() leaves GC state
alone, so tests and long-lived callers collect as before.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import fields

from ._version import __version__
from .experiments import PRESETS, run_preset
from .framing import WINDOWS
from .pipeline import METHODS, NOISE_MODES, EnhanceConfig, analyze, enhance
from .signal_io import (
    WavFormatError,
    check_seed,
    mix_at_snr,
    open_outputs,
    read_wav,
    sine_wave,
    white_noise,
    write_wav,
)
from .wavelet import FILTERS

SEED_ENV_VAR = "WAVEDENOISE_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PROCESSING = 3


class UsageError(Exception):
    """Bad invocation found after parsing; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit status 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# --help shows the docstring's title and exit statuses, not its note on
# main(); python -OO strips the docstring, and --help then has neither
_HELP = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])

# The choices of the config fields that name one of a set.
_CHOICES = {"window": WINDOWS, "wavelet": FILTERS, "noise_estimation": NOISE_MODES}


def _parents() -> tuple:
    """The shared flags: (--seed and --verbose, the EnhanceConfig flag group).

    The group has one flag per EnhanceConfig field but method and seed:
    --frame-len sets frame_len, with the field's default, its type (float
    where the default is None) and its choices; vuv_enabled is --vuv.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--verbose", action="store_true")
    config = argparse.ArgumentParser(add_help=False)
    group = config.add_argument_group("pipeline configuration")
    for f in fields(EnhanceConfig):
        if f.name == "vuv_enabled":
            group.add_argument(
                "--vuv", dest=f.name, action=argparse.BooleanOptionalAction,
                default=f.default, help="entropy-based voiced/unvoiced threshold adaptation",
            )
        elif f.name not in ("method", "seed"):
            group.add_argument(
                "--" + f.name.replace("_", "-"), default=f.default,
                type=float if f.default is None else type(f.default),
                choices=_CHOICES.get(f.name),
            )
    return common, config


def _resolve_seed(args, default=None) -> int | None:
    """WAVEDENOISE_SEED, else --seed, else `default`."""
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return default if args.seed is None else args.seed


def _config_from_args(args, default_seed=None) -> EnhanceConfig:
    """The config of the parsed flags, checked as it is built, before any read."""
    names = [f.name for f in fields(EnhanceConfig)]
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    return EnhanceConfig(**{**given, "seed": _resolve_seed(args, default_seed)})


def _write(args, audio=None, report=None) -> int:
    """Write `audio` to --out and `report` to --report, each if given.

    Both are opened before either is written (open_outputs): an output
    that cannot be opened exits 2 with no file written, no new file left
    behind and an existing one untouched. Two outputs that name one
    regular file (two existing names by their device and inode, as
    os.path.samefile compares them, so a hard link too; otherwise by
    realpath), or one that does not exist yet, exit 1 before either is
    opened, as the report would overwrite the WAV; a device such as
    os.devnull may take both. Warns on stderr if the WAV write clipped
    samples, and with --verbose names every file written.
    """
    wav = args.out if audio is not None else None
    report_path = args.report if report is not None else None
    written = [path for path in (wav, report_path) if path]
    both_exist = len(written) == 2 and all(map(os.path.exists, written))
    if (os.path.isfile(wav) and os.path.samefile(wav, report_path) if both_exist
            else len({os.path.realpath(path) for path in written}) < len(written)):
        raise UsageError(f"--out {wav} and --report {report_path} name the same file")
    clipped = 0
    with open_outputs(written):
        if wav:
            clipped = write_wav(wav, audio)
        if report_path:
            report.write(report_path)
    if clipped:
        print(f"warning: {clipped} of {len(audio)} samples clipped on write to {wav}",
              file=sys.stderr)
    if args.verbose:
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _cmd_denoise(args) -> int:
    config = _config_from_args(args)
    noisy = read_wav(args.infile)
    reference = read_wav(args.ref) if args.ref else None
    enhanced, report = enhance(noisy, config, reference=reference)
    return _write(args, enhanced, report)


def _cmd_analyze(args) -> int:
    config = _config_from_args(args)
    report = analyze(read_wav(args.infile), read_wav(args.noise), config)
    return _write(args, report=report)


def _cmd_synth(args) -> int:
    seed = check_seed(_resolve_seed(args, default=0))  # every kind's, a sine's too
    if args.kind != "noise":  # sine, or the clean part of a mix
        signal = clean = sine_wave(args.freq, args.amplitude, args.duration, args.rate)
    if args.kind != "sine":
        signal = white_noise(args.std, args.duration, args.rate, seed)
    if args.kind == "mix":
        signal = mix_at_snr(clean, signal, args.snr_db)
    return _write(args, signal)


def _cmd_experiment(args) -> int:
    config = _config_from_args(args, default_seed=0)
    _, _, enhanced, report = run_preset(args.preset, config=config)
    print(f"input_snr_db {report.input_snr_db:.6f}")
    print(f"output_snr_db {report.output_snr_db:.6f}")
    return _write(args, enhanced, report)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpdenoise", description=_HELP)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common, config = _parents()

    p = sub.add_parser("denoise", parents=[common, config], help="denoise a WAV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref", default=None, help="clean reference for SNR reporting")
    p.add_argument("--method", choices=METHODS, default=EnhanceConfig.method)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("analyze", parents=[common, config],
                       help="histogram/divergence analysis, no audio out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise", required=True, help="estimated-noise WAV")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", parents=[common],
                       help="generate deterministic test material")
    p.add_argument("--kind", choices=("sine", "noise", "mix"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--freq", type=float, default=440.0)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--std", type=float, default=0.1)
    p.add_argument("--snr-db", type=float, default=0.0, help="mix target SNR")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--rate", type=int, default=16000)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", parents=[common, config],
                       help="run a reproducible preset end to end")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--method", choices=METHODS, default=EnhanceConfig.method)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_IO if isinstance(exc, (WavFormatError, OSError)) else EXIT_PROCESSING


def main() -> None:
    """The process entry point: run(sys.argv[1:]) and exit with its status.

    gc.freeze() first moves every object alive now (the imports) into
    the permanent generation, which no collection traverses, so the
    exit-time collections skip them; garbage the request makes is still
    collected. It is here and not in run() or at import, because a
    process that calls run() or imports the package lives on and keeps
    its own GC state.
    """
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()

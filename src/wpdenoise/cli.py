"""Command-line surface: denoise, analyze, synth, experiment.

Exit statuses: 0 success, 1 usage error, 2 I/O error, 3 processing
error; every failure prints a one-line diagnostic on stderr. Successful
runs stay quiet unless --verbose is given or samples were clipped on
writing a WAV (one warning line on stderr); the experiment subcommand's
SNR lines are its output, not diagnostics. The environment variable
WAVEDENOISE_SEED overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from ._version import __version__
from .experiments import PRESETS, run_preset
from .framing import WINDOWS
from .pipeline import METHODS, NOISE_MODES, EnhanceConfig, analyze, enhance
from .signal_io import (
    WavFormatError,
    mix_at_snr,
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


def _add_config_flags(parser) -> None:
    """The EnhanceConfig flags; each dest is the field it sets."""
    d = EnhanceConfig
    group = parser.add_argument_group("pipeline configuration")
    group.add_argument("--frame-len", type=int, default=d.frame_len)
    group.add_argument("--hop", type=int, default=d.hop)
    group.add_argument("--window", choices=WINDOWS, default=d.window)
    group.add_argument("--wavelet", choices=FILTERS, default=d.wavelet)
    group.add_argument("--depth", type=int, default=d.depth)
    group.add_argument(
        "--noise-estimation", choices=NOISE_MODES, default=d.noise_estimation
    )
    group.add_argument("--silence-ms", type=float, default=d.silence_ms)
    group.add_argument("--band-tolerance", type=float, default=d.band_tolerance)
    group.add_argument("--epsilon", type=float, default=d.epsilon)
    group.add_argument(
        "--vuv", dest="vuv_enabled", action=argparse.BooleanOptionalAction,
        default=d.vuv_enabled,
        help="entropy-based voiced/unvoiced threshold adaptation",
    )
    group.add_argument("--entropy-threshold", type=float, default=d.entropy_threshold)
    group.add_argument("--unvoiced-scale", type=float, default=d.unvoiced_scale)


def _config_from_args(args, seed) -> EnhanceConfig:
    """The config of the parsed flags, checked as it is built, before any read."""
    names = [f.name for f in fields(EnhanceConfig)]
    given = {name: getattr(args, name) for name in names if hasattr(args, name)}
    return EnhanceConfig(**{**given, "seed": seed})


def _resolve_seed(args) -> int | None:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return getattr(args, "seed", None)


def _write_audio(path, signal) -> None:
    """write_wav, with one warning line on stderr if it clipped samples."""
    clipped = write_wav(path, signal)
    if clipped:
        print(
            f"warning: {clipped} of {len(signal)} samples clipped on write to {path}",
            file=sys.stderr,
        )


def _cmd_denoise(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from_args(args, seed)
    noisy = read_wav(args.infile)
    reference = read_wav(args.ref) if args.ref else None
    enhanced, report = enhance(noisy, config, reference=reference)
    _write_audio(args.out, enhanced)
    if args.report:
        report.write(args.report)
    if args.verbose:
        print(f"wrote {args.out}", file=sys.stderr)
        if args.report:
            print(f"wrote {args.report}", file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    config = _config_from_args(args, _resolve_seed(args))
    noisy = read_wav(args.infile)
    noise = read_wav(args.noise)
    analyze(noisy, noise, config).write(args.report)
    if args.verbose:
        print(f"wrote {args.report}", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        seed = 0
    if args.kind == "sine":
        signal = sine_wave(args.freq, args.amplitude, args.duration, args.rate)
    elif args.kind == "noise":
        signal = white_noise(args.std, args.duration, args.rate, seed)
    else:  # mix
        clean = sine_wave(args.freq, args.amplitude, args.duration, args.rate)
        noise = white_noise(args.std, args.duration, args.rate, seed)
        signal = mix_at_snr(clean, noise, args.snr_db)
    _write_audio(args.out, signal)
    if args.verbose:
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        seed = 0
    config = _config_from_args(args, seed)
    clean, noisy, enhanced, report = run_preset(args.preset, seed=seed, config=config)
    print(f"input_snr_db {report.input_snr_db:.6f}")
    print(f"output_snr_db {report.output_snr_db:.6f}")
    if args.out:
        _write_audio(args.out, enhanced)
    if args.report:
        report.write(args.report)
    if args.verbose and args.report:
        print(f"wrote {args.report}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wpdenoise", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise a WAV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref", default=None, help="clean reference for SNR reporting")
    p.add_argument("--method", choices=METHODS, default=EnhanceConfig.method)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("analyze", help="histogram/divergence analysis, no audio out")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--noise", required=True, help="estimated-noise WAV")
    p.add_argument("--report", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate deterministic test material")
    p.add_argument("--kind", choices=("sine", "noise", "mix"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--freq", type=float, default=440.0)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--std", type=float, default=0.1)
    p.add_argument("--snr-db", type=float, default=0.0, help="mix target SNR")
    p.add_argument("--duration", type=float, default=5.0)
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", help="run a reproducible preset end to end")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--method", choices=METHODS, default=EnhanceConfig.method)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verbose", action="store_true")
    _add_config_flags(p)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WavFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

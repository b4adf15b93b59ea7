"""Command line front end.

Subcommands: synth (demo dataset), convert (Fourier <-> Fresnel), reconstruct
(field to 8-bit amplitude view), denoise (adaptive Wiener on a PGM view),
score (single-pair metric run) and bench (full track evaluation against MOS).

Exit codes: 0 success, 1 runtime failure (bad data, degenerate inputs),
2 usage error (unknown subcommand or flag; unknown, repeated or no metric id).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .denoise import AUTO, WienerParams, wiener_denoise
from .errors import HoloQAError, InvalidFactor, InvalidField, UnknownMetric
from .field import VIEWS, ApertureSpec, load_any_field, store_field, write_json
from .harness import TRACKS, TrackConfig, emit_report, load_manifest, run_track
from .metrics import (
    COMPLEX_METRICS,
    MAP_METRICS,
    check_metric_ids,
    evaluate_complex,
    evaluate_real,
)
from .stats import read_mos_csv
from .synth import generate_demo_dataset
from .transform import (
    _check_factor,
    clip_and_quantize_view,
    fourier_to_fresnel,
    fresnel_to_fourier,
    load_gray_pgm,
    read_plan,
    reconstruct_view,
    store_gray_pgm,
    store_view,
    view_clip_bound,
)


def _parse_metrics(value: str) -> tuple:
    ids = check_metric_ids(m.strip() for m in value.split(",") if m.strip())
    if not ids:
        raise UnknownMetric(f"no metric id in --metrics {value!r}")
    return ids


# argparse types: a ValueError is reported as "invalid <name> value" (exit 2)

def percentile(text: str) -> float:
    """``--clip-percentile``: a clip percentile ``TrackConfig`` accepts."""
    try:
        return TrackConfig(TRACKS[0], clip_percentile=float(text)).clip_percentile
    except InvalidField:
        raise ValueError(text) from None


def finite(text: str) -> float:
    """``--focal-offset``: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def noise_variance(text: str):
    """``--wiener-noise``: 'auto' or a noise variance ``WienerParams`` accepts."""
    try:
        value = text if text == AUTO else float(text)
        return WienerParams(noise_variance=value).noise_variance
    except InvalidField:
        raise ValueError(text) from None


def window(text: str) -> int:
    """``--wiener-window``: a window side ``WienerParams`` accepts."""
    try:
        return WienerParams(int(text)).window
    except InvalidField:
        raise ValueError(text) from None


def positive(text: str) -> int:
    """``--size``, ``--aperture``: an integer >= 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def factor(text: str) -> int:
    """``--upsample-m``: an upsampling factor the conversion accepts."""
    try:
        return _check_factor(int(text))
    except InvalidFactor:
        raise ValueError(text) from None


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_synth(args) -> int:
    path = generate_demo_dataset(
        args.out, size=args.size, aperture=args.aperture, seed=args.seed,
    )
    print(path)
    return 0


def _cmd_convert(args) -> int:
    field = load_any_field(args.input)
    if args.inverse:
        store_field(fresnel_to_fourier(field, read_plan(args.plan)), args.out)
    else:
        out, plan = fourier_to_fresnel(field, args.upsample_m)
        store_field(out, args.out)
        write_json(args.out + ".plan.json", plan.__dict__)
    print(args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    field = load_any_field(args.input)
    if args.aperture is None:
        ap = ApertureSpec(0, 0, field.rows, field.cols)
    else:
        ap = ApertureSpec.for_view(args.view, field.rows, field.cols, args.aperture)
    amp = reconstruct_view(field, ap, args.focal_offset)
    bound = view_clip_bound(amp, args.clip_percentile)
    store_view(clip_and_quantize_view(amp, bound), args.out, bound, ap,
               args.focal_offset, os.path.basename(args.input))
    print(args.out)
    return 0


def _cmd_denoise(args) -> int:
    pixels = load_gray_pgm(args.input).astype(np.float64)
    out = wiener_denoise(pixels, WienerParams(args.wiener_window, args.wiener_noise))
    store_gray_pgm(np.clip(np.round(out), 0, 255).astype(np.uint8), args.out)
    print(args.out)
    return 0


def _cmd_score(args) -> int:
    metric_ids = _parse_metrics(args.metrics)
    field_mode = os.path.exists(args.ref + ".meta.json")
    if field_mode:
        ref = load_any_field(args.ref).data
        dist = load_any_field(args.dist).data
    else:
        ref = load_gray_pgm(args.ref).astype(np.float64)
        dist = load_gray_pgm(args.dist).astype(np.float64)
    for mid in metric_ids:
        if mid in COMPLEX_METRICS:
            if not field_mode:
                raise UnknownMetric(f"{mid!r} needs complex field inputs, not views")
            value = evaluate_complex(mid, ref, dist)
        elif field_mode:
            value = evaluate_real(mid, np.abs(ref), np.abs(dist))
        else:
            value = evaluate_real(mid, ref, dist)
        print(f"{mid}\t{value!r}")
        if args.emit_maps and mid in MAP_METRICS and not field_mode:
            qmap = MAP_METRICS[mid](ref, dist)
            lo, hi = float(qmap.min()), float(qmap.max())
            span = (hi - lo) or 1.0
            codes = np.round(255.0 * (qmap - lo) / span).astype(np.uint8)
            os.makedirs(args.out, exist_ok=True)
            store_gray_pgm(codes, os.path.join(args.out, f"{mid}_map.pgm"))
    return 0


def _cmd_bench(args) -> int:
    manifest = load_manifest(args.manifest)
    mos = read_mos_csv(args.mos)
    metrics = _parse_metrics(args.metrics) if args.metrics is not None else ()
    config = TrackConfig(args.track, metrics, args.upsample_m, args.clip_percentile,
                         WienerParams(args.wiener_window, args.wiener_noise))
    report = run_track(manifest, mos, config)
    for path in emit_report(report, args.out, config):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoqa",
        description="Holographic quality assessment pipeline",
    )
    parser.add_argument("--version", action="version", version=f"holoqa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the self-contained demo dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--size", type=positive, default=256, help="hologram side length")
    p.add_argument("--aperture", type=positive, default=192, help="aperture side length")
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("convert", help="convert between Fourier and Fresnel form")
    p.add_argument("--in", dest="input", required=True, help="input field base path")
    p.add_argument("--out", required=True, help="output field base path")
    p.add_argument("--upsample-m", type=factor, default=TrackConfig.upsample_m)
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse conversion using --plan")
    p.add_argument("--plan", help="conversion plan JSON (required with --inverse)")
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("reconstruct", help="render an 8-bit amplitude view")
    p.add_argument("--in", dest="input", required=True, help="input field base path")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--view", choices=VIEWS, default="center")
    p.add_argument("--aperture", type=positive, nargs=2, metavar=("H", "W"),
                   help="aperture window size (full field when omitted)")
    p.add_argument("--focal-offset", type=finite, default=0.0)
    p.add_argument("--clip-percentile", type=percentile, default=TrackConfig.clip_percentile)
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser("denoise", help="adaptive Wiener despeckling of a view")
    p.add_argument("--in", dest="input", required=True, help="input PGM path")
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--wiener-window", type=window, default=WienerParams.window)
    p.add_argument("--wiener-noise", type=noise_variance, default=AUTO,
                   help="noise variance, or 'auto' (default)")
    p.set_defaults(run=_cmd_denoise)

    p = sub.add_parser("score", help="score a reference/distorted pair")
    p.add_argument("--ref", required=True, help="reference view PGM or field base")
    p.add_argument("--dist", required=True, help="distorted view PGM or field base")
    p.add_argument("--metrics", required=True,
                   help="comma-separated metric ids")
    p.add_argument("--emit-maps", action="store_true",
                   help="write per-pixel quality maps where available")
    p.add_argument("--out", default=".", help="directory for emitted maps")
    p.set_defaults(run=_cmd_score)

    p = sub.add_parser("bench", help="run a full evaluation track")
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--mos", required=True, help="MOS CSV file")
    p.add_argument("--track", required=True, choices=TRACKS)
    p.add_argument("--metrics", help="comma-separated metric ids (default: all valid)")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--upsample-m", type=factor, default=TrackConfig.upsample_m)
    p.add_argument("--clip-percentile", type=percentile, default=TrackConfig.clip_percentile)
    p.add_argument("--wiener-window", type=window, default=WienerParams.window)
    p.add_argument("--wiener-noise", type=noise_variance, default=AUTO)
    p.set_defaults(run=_cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "convert" and args.inverse and args.plan is None:
        parser.error("convert --inverse requires --plan")
    try:
        return args.run(args)
    except UnknownMetric as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HoloQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

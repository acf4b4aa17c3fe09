"""Command-line surface: encode, decode, analyze, rd-sweep.

Exit codes: 0 success, 2 usage or configuration error (a setting or a
reference that does not fit the input included), 3 malformed input (video or
container format), 4 file I/O failure. Every EncoderConfig field is reachable
both as a --flag and as a key in the flat key=value config file; explicit
flags override the file, which overrides defaults.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields

from .container import read_stream
from .core import FbvError, read_y4m, write_y4m
from .entropy import EntropyDecodeError
from .evaluate import Scorer, analyze_bytes, quality_csv, rd_sweep, summary_json, sweep_csv
from .metrics import bpp
from .pipeline import QUALITY_LADDER, Decoder, EncoderConfig, encode, ladder_point, output_frames
from .residual import QualityPoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_IO = 4

# the parser of each config field, for its --flag and its config-file key
_CONFIG_FIELDS = {f.name: int if f.type == "int" else float for f in fields(EncoderConfig)}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_FIELDS[key](val)
    return values


def _add_config_flags(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", metavar="FILE", help="flat key=value config file")
    ap.add_argument("--quality", type=int, metavar="Q",
                    help=f"rate ladder point {sorted(QUALITY_LADDER)} "
                         "(sets delta-q and levels together)")
    for name, ftype in _CONFIG_FIELDS.items():
        flag = "--" + name.replace("_", "-")
        ap.add_argument(flag, type=ftype, default=None, metavar="V", dest=name)


def _build_config(args: argparse.Namespace) -> EncoderConfig:
    values: dict = {}
    if args.config:
        values.update(_parse_config_file(args.config))
    if args.quality is not None:
        q = ladder_point(args.quality)
        values["delta_q"] = q.delta_q
        values["levels"] = q.levels
    for name in _CONFIG_FIELDS:
        flag_val = getattr(args, name)
        if flag_val is not None:
            values[name] = flag_val
    return EncoderConfig(**values)


def _cmd_encode(args: argparse.Namespace) -> int:
    config = _build_config(args)
    video = read_y4m(args.input)
    result = encode(video, config)
    with open(args.output, "wb") as fh:
        fh.write(result.data)
    n = len(video.frames)
    rate = bpp(len(result.data), video.width, video.height, n)
    print(f"wrote {args.output}: {len(result.data)} bytes, {n} frames, bpp {rate:.6f}")
    br, fr, fmv = result.budget.ratios
    print(f"bit split: BR {br:.4f}  FR {fr:.4f}  FMV {fmv:.4f}")
    print("timing (mean ms/frame):")
    for name, s in result.stage_s.items():
        print(f"  {name:24s} {1000.0 * s / n:9.3f}")
    print(f"encode total {sum(result.stage_s.values()):.3f} s")
    return EXIT_OK


def _cmd_decode(args: argparse.Namespace) -> int:
    if args.report and not args.reference:
        raise ValueError("--report requires --reference")
    with open(args.input, "rb") as fh:
        data = fh.read()
    t0 = time.perf_counter()
    stream = read_stream(data)
    # one walk, written (and scored) a frame at a time: pre-enhancement frames with
    # --no-enhance, else feathered; a reference that does not fit raises before writing
    walk = Decoder(stream).frames() if args.no_enhance else output_frames(stream)
    scorer = Scorer(read_y4m(args.reference), stream, len(data)) if args.reference else None
    write_y4m((frame for frame, _ in walk) if scorer is None else scorer.frames(walk),
              args.output, force_444=True, fps=(stream.header.fps_num, stream.header.fps_den))
    print(f"wrote {args.output}: {stream.header.frame_count} frames "
          f"({time.perf_counter() - t0:.3f} s)")
    if scorer is not None:
        q = scorer.report
        print(f"psnr {q.psnr_mean:.2f} dB  ms-ssim {q.ms_ssim_mean:.6f}  "
              f"fb-mixture {q.fb_mixture:.6f}")
        print(summary_json(q))
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(quality_csv(q))
            print(f"report written to {args.report}")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        print(analyze_bytes(fh.read()), end="")
    return EXIT_OK


def _parse_quality_token(token: str) -> QualityPoint:
    tok = token.strip()
    if tok.upper().startswith("Q"):
        tok = tok[1:]
    if ":" in tok:
        d, _, l = tok.partition(":")
        return QualityPoint(float(d), int(l))
    return ladder_point(int(tok))


def _cmd_rd_sweep(args: argparse.Namespace) -> int:
    points = [_parse_quality_token(t) for t in args.qualities.split(",") if t.strip()]
    config = _build_config(args)
    video = read_y4m(args.input)
    csv = sweep_csv(rd_sweep(video, points, config))
    print(csv, end="")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(csv)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fbv",
                                 description="foreground/background video codec")
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a .y4m into a .fbv container")
    enc.add_argument("-i", "--input", required=True, metavar="IN.y4m")
    enc.add_argument("-o", "--output", required=True, metavar="OUT.fbv")
    _add_config_flags(enc)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="decompress a .fbv back to .y4m")
    dec.add_argument("-i", "--input", required=True, metavar="IN.fbv")
    dec.add_argument("-o", "--output", required=True, metavar="OUT.y4m")
    dec.add_argument("--reference", metavar="REF.y4m",
                     help="original video for quality measurement")
    dec.add_argument("--report", metavar="CSV",
                     help="per-frame quality CSV (needs --reference)")
    dec.add_argument("--no-enhance", action="store_true",
                     help="skip boundary feathering")
    dec.set_defaults(func=_cmd_decode)

    ana = sub.add_parser("analyze", help="dump container structure and bit split")
    ana.add_argument("-i", "--input", required=True, metavar="IN.fbv")
    ana.set_defaults(func=_cmd_analyze)

    swp = sub.add_parser("rd-sweep", help="encode at several qualities, emit CSV")
    swp.add_argument("-i", "--input", required=True, metavar="IN.y4m")
    swp.add_argument("--qualities", required=True, metavar="Q1,Q2,...",
                     help="ladder points (1..4) or delta:levels pairs")
    swp.add_argument("-o", "--output", metavar="CSV", help="also write CSV here")
    _add_config_flags(swp)
    swp.set_defaults(func=_cmd_rd_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, KeyError) as e:
        print(f"fbv: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FbvError, EntropyDecodeError) as e:
        print(f"fbv: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as e:
        print(f"fbv: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver.

Subcommands: transform, split, coeffs, planes, verify, import-ppm,
export-pgm, info.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 I/O or format error.  Results go to stdout,
diagnostics to stderr.  Reals print with 17 significant digits so a
reader can reconstruct the exact double.

A command imports only what it runs: ``transform`` loads the transform
and FFT modules, ``verify`` the identity suites, and the commands that
split (``transform``, ``split``, ``coeffs``, ``planes``) the plane
module, each inside its handler, so the other commands start without
them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .fields import QuaternionField2D
from .formats import (
    HEADER,
    MAGIC,
    FileFormatError,
    read_field,
    read_image_ppm,
    export_magnitude_pgm,
    write_field,
)
from .quat import _BLOCK, ONE, PureUnitQuaternion, Quaternion, max_norm_arr

# The values of ``transform.Family``, the names of ``verify.PROFILES`` and
# the values of ``planes.PlaneAssignment``, spelled out so that building the
# parser imports none of those modules.
VARIANTS = ("twosided", "phased", "conjc")
PROFILE_NAMES = ("quick", "full")
ASSIGNMENTS = ("minus", "plus")


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_pure(q: Quaternion) -> str:
    """Pure quaternion as the CLI's own three-real inline syntax."""
    return ",".join(_fmt(c) for c in (q.x, q.y, q.z))


def _quaternion(text: str, flag: str, counts: Sequence[int]) -> Quaternion:
    """Three comma-separated reals as a normalized pure unit, four as a full
    quaternion; ``counts`` are the lengths ``flag`` takes.  Any fault, a
    zero or non-finite value too, is a usage error that names ``flag``."""
    vals = []
    for tok in text.split(","):
        try:
            if "_" in tok or not tok.isascii():  # float() reads 1_0 and non-ASCII digits
                raise ValueError
            vals.append(float(tok))
        except ValueError:
            raise UsageError(f"{flag}: cannot parse '{tok}' as a real number")
    if len(vals) not in counts:
        names = " or ".join("three" if n == 3 else "four" for n in counts)
        raise UsageError(f"{flag}: expected {names} comma-separated reals, got '{text}'")
    try:
        return PureUnitQuaternion(*vals) if len(vals) == 3 else Quaternion(*vals)
    except ValueError as e:
        raise UsageError(f"{flag}: {e}")


def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's generators require, in
    ASCII decimal digits (``int()`` also reads 1_0 and non-ASCII digits)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got '{text}'")
    return int(text)


def _context(args):
    from .planes import make_context

    return make_context(_quaternion(args.f, "--f", (3,)), _quaternion(args.g, "--g", (3,)))


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_transform(args) -> int:
    from . import transform

    variant = transform.TransformVariant(transform.Family(args.variant), _context(args))
    field = read_field(args.infile)
    # numpy stays quiet on overflow: write_field refuses a non-finite result
    # with the command's one diagnostic
    with np.errstate(over="ignore", invalid="ignore"):
        if args.inverse:
            apply_ = transform.inverse_direct if args.direct else transform.inverse_fast
            out = apply_(variant, transform.Spectrum(field, variant))
        else:
            apply_ = transform.forward_direct if args.direct else transform.forward_fast
            out = apply_(variant, field).field
    write_field(out, args.outfile)
    return 0


def _cmd_split(args) -> int:
    from .planes import split_part_arr

    ctx = _context(args)
    data = read_field(args.infile).data
    # one part at a time, each freed once written
    for sign, path in ((1, args.out_plus), (-1, args.out_minus)):
        write_field(QuaternionField2D(split_part_arr(ctx, data, sign)), path)
    return 0


def _cmd_coeffs(args) -> int:
    from .planes import coefficients_arr

    ctx = _context(args)
    data = (_quaternion(args.q, "--q", (4,)).to_array() if args.q is not None
            else read_field(args.infile).data)
    rows = coefficients_arr(ctx, data).reshape(-1, 4)
    for start in range(0, len(rows), _BLOCK):  # a block per write bounds the text held
        sys.stdout.write("".join("%.17g %.17g %.17g %.17g\n" % tuple(row)
                                 for row in rows[start:start + _BLOCK].tolist()))
    return 0


def _cmd_planes(args) -> int:
    from .planes import PlaneAssignment, determine_context

    # 'scalar' for 1, else three reals for a pure unit or four for a quaternion
    frame = [ONE if t.strip().lower() == "scalar" else _quaternion(t, "--" + n, (3, 4))
             for n, t in zip("abcd", (args.a, args.b, args.c, args.d))]
    ctx = determine_context(*frame, assignment=PlaneAssignment(args.assign))
    print(f"f = {_fmt_pure(ctx.f)}")
    print(f"g = {_fmt_pure(ctx.g)}")
    print(f"degenerate = {'true' if ctx.degenerate else 'false'}")
    if ctx.degenerate:
        print(f"degenerate_sign = {ctx.degenerate_sign:+d}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.seed, profile=args.profile)
    for r in results:
        print(r.line())
    gated = [r for r in results if r.gated]
    failed = [r for r in gated if not r.passed]
    print(f"{len(gated) - len(failed)}/{len(gated)} checks passed (seed {args.seed})")
    return 1 if failed else 0


def _cmd_import_ppm(args) -> int:
    write_field(read_image_ppm(args.infile), args.outfile)
    return 0


def _cmd_export_pgm(args) -> int:
    field = read_field(args.infile)
    export_magnitude_pgm(field, args.outfile, centered=args.centered)
    return 0


def _cmd_info(args) -> int:
    field = read_field(args.infile)
    print(f"magic = {MAGIC.decode('ascii')}")
    print(f"header_bytes = {HEADER.size}")
    print(f"n1 = {field.n1}")
    print(f"n2 = {field.n2}")
    print(f"samples = {field.n1 * field.n2}")
    with np.errstate(over="ignore"):  # a norm past the largest double prints as inf
        print(f"max_norm = {_fmt(max_norm_arr(field.data))}")
    return 0


# ---------------------------------------------------------------------------
# Parser.

def _axis_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", required=True, help="left axis, three reals 'a,b,c'")
    p.add_argument("--g", required=True, help="right axis, three reals 'a,b,c'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsqft",
        description="Two-axis plane splits and Fourier transforms of "
                    "quaternion-valued 2D fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a transform family to a field file")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    _axis_flags(p)
    p.add_argument("--inverse", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="direct", action="store_false", default=False)
    mode.add_argument("--direct", dest="direct", action="store_true")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("split", help="write the two plane parts of a field")
    _axis_flags(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-plus", dest="out_plus", required=True)
    p.add_argument("--out-minus", dest="out_minus", required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("coeffs", help="print plane-basis coordinates q1..q4")
    _axis_flags(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--q", help="single quaternion, four reals 'w,x,y,z'")
    source.add_argument("--in", dest="infile", help="field file, one line per sample")
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("planes", help="derive the axes whose split keeps a "
                                      "given orthonormal frame plane-aligned")
    for name in "abcd":
        p.add_argument("--" + name, required=True,
                       help="'scalar', three reals, or four reals")
    p.add_argument("--assign", choices=ASSIGNMENTS, default="minus",
                   help="plane that receives the a,b pair")
    p.set_defaults(handler=_cmd_planes)

    p = sub.add_parser("verify", help="run the seeded identity suites")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--profile", choices=PROFILE_NAMES, default="quick")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("import-ppm", help="read a P3/P6 image as a pure-quaternion field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(handler=_cmd_import_ppm)

    p = sub.add_parser("export-pgm", help="write per-sample norms as a P5 image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--centered", action="store_true",
                   help="rotate indices so frequency (0,0) sits at the center")
    p.set_defaults(handler=_cmd_export_pgm)

    p = sub.add_parser("info", help="print a field file's header")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_info)

    return parser


def _refusals() -> tuple:
    """The errors that exit 2: a usage error, and the plane module's refusal
    of a frame or an axis pair once a command has loaded that module."""
    planes = sys.modules.get(__package__ + ".planes")
    return (UsageError,) + ((planes.InvalidFrame, planes.DegenerateContext) if planes else ())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        if e.code in (0, None):
            return 0
        return 2
    try:
        return args.handler(args)
    except _refusals() as e:
        print(f"opsqft: {e}", file=sys.stderr)
        return 2
    except (FileFormatError, OSError) as e:
        print(f"opsqft: {e}", file=sys.stderr)
        return 3

"""Command line front end.

One subcommand per analysis, deterministic output: JSON objects with sorted
keys, CSV rows in canonical order, SVG built from formatted strings.  Exit
code 2 signals bad arguments (argparse usage text), exit 1 a domain error
reported as ``{"error": code, "detail": ...}`` on stdout.

Only the standard library and ``errors`` load with this module, so
``--help`` and usage errors import no numpy.  ``main`` loads ``zseq``
once the arguments parse, and each subcommand imports the modules it
calls.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import FlatcurveError, IoError, NonFinite
from .kinds import SEQUENCE_KINDS

if TYPE_CHECKING:
    from .zseq import Mode, ZeroWindow, ZPoint


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flatcurve",
        description="Window analyses of infinite zero sequences: products, "
                    "saddle connections, covers, symmetry groups.")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add(name, help_, run, formats=("json",), inner=False, m=False):
        # allow_abbrev=False: a flag the subcommand lacks must not prefix-match
        # one it has (``gen --m float`` would otherwise mean ``--mode float``)
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--sequence", choices=SEQUENCE_KINDS,
                       help="built-in sequence family")
        p.add_argument("--input", help="window JSON file")
        p.add_argument("--param", action="append", default=[],
                       metavar="K=V", help="sequence parameter (repeatable)")
        p.add_argument("--radius", type=float, help="sampling radius R")
        if inner:
            p.add_argument("--inner", type=float,
                           help="inner radius r for stabilizer searches")
        if m:
            p.add_argument("--m", type=int, default=2,
                           help="covering degree (>= 2)")
        p.add_argument("--mode", choices=("exact", "float"))
        p.add_argument("--eps", type=eps, default=1e-9,
                       help="float-mode tolerance")
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    add("gen", "generate a window and emit it as JSON", _cmd_gen)
    add("validate", "check window invariants", _cmd_validate)

    p = add("eval", "evaluate the canonical product", _cmd_eval)
    p.add_argument("--at", required=True, metavar="RE,IM",
                   help="evaluation point")
    p.add_argument("--factors", type=int,
                   help="use only the first N points of the window")
    p.add_argument("--degree", type=degree, default=None,
                   help="factor degree: integer, 'index', or 'auto'")
    p.add_argument("--e0", type=int, default=None,
                   help="multiplicity of the origin factor")

    p = add("verify-zeros", "count zeros in a box by boundary winding",
            _cmd_verify_zeros)
    p.add_argument("--box", required=True, metavar="X0,Y0,X1,Y1",
                   help="two opposite corners of the box")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--degree", type=degree, default=None)
    p.add_argument("--e0", type=int, default=None)

    p = add("saddles", "saddle connections of the window", _cmd_saddles,
            formats=("json", "csv", "svg"), m=True)
    p.add_argument("--max-length", type=float, default=None)

    p = add("hol", "holonomy vectors of all visible pairs", _cmd_hol,
            formats=("json", "csv"))
    p.add_argument("--max-length", type=float, default=None)

    p = add("directions", "direction profile of the holonomy set",
            _cmd_directions)
    p.add_argument("--max-length", type=float, default=None)

    p = add("lift", "lift a polyline to the m-cyclic cover", _cmd_lift, m=True)
    p.add_argument("--path", required=True, metavar="X0,Y0;X1,Y1;...",
                   help="polyline vertices")
    p.add_argument("--start-sheet", type=int, default=0)

    p = add("cone-angle", "total angle at a cone point of the cover",
            _cmd_cone_angle, m=True)
    p.add_argument("--zero-index", type=int, required=True)
    p.add_argument("--loop-radius", type=float, default=None)

    add("classify", "window symmetry class: P, Pprime, or Countable",
        _cmd_classify, inner=True)
    add("sandwich", "lower/upper stabilizer bounds for the countable branch",
        _cmd_sandwich, inner=True)

    p = add("equiv", "translation equivalence of two windows", _cmd_equiv)
    p.add_argument("--other", required=True, metavar="FILE",
                   help="window JSON file to compare against")

    p = add("moduli", "canonical form and inverted coordinates", _cmd_moduli)
    p.add_argument("--translate", metavar="RE,IM", default=None,
                   help="also push this translation through the coordinates")

    p = add("plot", "SVG plot of the window, its segments and holonomy fan",
            _cmd_plot, formats=("svg",), m=True)
    p.add_argument("--max-length", type=float, default=None)
    return top


# --------------------------------------------------------------------------
# argument resolution


def _resolve_mode(args) -> Mode:
    from .zseq import EXACT, float_mode

    kind = args.mode
    if kind is None:
        env = os.environ.get("FLATCURVE_MODE", "").strip().lower()
        kind = env if env in ("exact", "float") else "exact"
    return EXACT if kind == "exact" else float_mode(args.eps)


def _scalar(text: str, mode: Mode):
    f = Fraction(text.strip())
    return f if mode.is_exact else float(f)


def _point(text: str, mode: Mode) -> ZPoint:
    from .zseq import ZPoint

    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected RE,IM, got {text!r}")
    return ZPoint(_scalar(parts[0], mode), _scalar(parts[1], mode))


def _point_list(text: str, mode: Mode) -> list:
    return [_point(chunk, mode) for chunk in text.split(";") if chunk.strip()]


def _sequence_params(kind: str, pairs: list, mode: Mode) -> dict:
    raw = {}
    for item in pairs:
        if "=" not in item:
            raise ValueError(f"--param needs K=V, got {item!r}")
        k, v = item.split("=", 1)
        raw[k.strip()] = v.strip()
    if kind == "explicit":
        if "points" not in raw:
            raise ValueError("explicit sequence needs --param points=RE,IM;...")
        return {"points": tuple(_point_list(raw["points"], mode))}
    if kind == "orbit":
        for key in ("k_points", "generators", "max_word_length"):
            if key not in raw:
                raise ValueError(f"orbit sequence needs --param {key}=...")
        gens = []
        for chunk in raw["generators"].split(";"):
            entries = [_scalar(t, mode) for t in chunk.split(",")]
            if len(entries) != 4:
                raise ValueError("each generator is four entries a,b,c,d")
            gens.append(tuple(entries))
        return {
            "k_points": tuple(_point_list(raw["k_points"], mode)),
            "generators": tuple(gens),
            "max_word_length": int(raw["max_word_length"]),
        }
    if raw:
        raise ValueError(f"sequence {kind!r} takes no parameters")
    return {}


def _load_window(args, mode: Mode) -> ZeroWindow:
    from . import zseq

    if args.input and args.sequence:
        raise ValueError("give either --sequence or --input, not both")
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
        return zseq.window_from_json(data, eps=args.eps)
    if not args.sequence:
        raise ValueError("a window is required: --sequence NAME or --input FILE")
    if args.radius is None:
        raise ValueError("--radius is required with --sequence")
    spec = zseq.GeneratorSpec(args.sequence,
                              _sequence_params(args.sequence, args.param, mode))
    return zseq.generate(spec, args.radius, mode)


def _search_config(args):
    from .veech import StabilizerSearchConfig

    if args.inner is None:
        return None
    return StabilizerSearchConfig(inner_radius=args.inner)


def degree(text: str):
    """Parse ``--degree``: an integer, 'index' or 'auto'.

    argparse names this function in its usage error, so the name is the
    word the user reads.
    """
    return text if text in ("auto", "index") else int(text)


def eps(text: str) -> float:
    """Parse ``--eps``: a finite float >= 0, as ``Mode`` requires.

    argparse names this function in its usage error, so the name is the
    word the user reads.
    """
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ValueError(text)
    return value


# --------------------------------------------------------------------------
# output helpers


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    wr.writerows(rows)
    return buf.getvalue()


def _pt_repr(p: ZPoint) -> list:
    from .zseq import scalar_repr

    return [scalar_repr(p.re), scalar_repr(p.im)]


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen(args, w, mode):
    from . import zseq

    return _json_text(zseq.window_to_json(w))


def _cmd_validate(args, w, mode):
    from . import zseq

    return _json_text(zseq.validate(w).to_dict())


def _cmd_eval(args, w, mode):
    from . import weierstrass

    if args.factors is not None:
        w = w.head(args.factors)
    at = _point(args.at, mode)
    try:
        val = weierstrass.eval_f(at.to_complex(), w, degrees=args.degree,
                                 e0=args.e0)
    except NonFinite as exc:
        if exc.log10mag is None:
            raise
        # past float64 the log-space value is still the answer
        return _json_text({"value": None, "abs": None,
                           "log10mag": exc.log10mag, "arg": exc.arg})
    mag = abs(val)
    return _json_text({
        "value": [val.real, val.imag],
        "abs": mag,
        "log10mag": math.log10(mag) if mag > 0 else None,
    })


def _cmd_verify_zeros(args, w, mode):
    from . import weierstrass

    vals = [float(t) for t in args.box.split(",")]
    if len(vals) != 4:
        raise ValueError("--box needs X0,Y0,X1,Y1")
    x0, y0, x1, y1 = vals
    box = (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))
    winding = weierstrass.count_zeros(w, box, degrees=args.degree,
                                      e0=args.e0, samples=args.samples)
    return _json_text({"box": list(box), "winding": winding})


def _seg_dict(w, seg):
    return {
        "from": _pt_repr(w.points[seg.from_idx]),
        "to": _pt_repr(w.points[seg.to_idx]),
        "holonomy": _pt_repr(seg.holonomy),
        "length": seg.length,
        "direction": seg.direction,
        "multiplicity": seg.multiplicity,
        "provisional": seg.provisional,
    }


def _cmd_saddles(args, w, mode):
    from . import flatgeom, svg
    from .zseq import scalar_repr

    segs = flatgeom.saddle_connections(w, args.m, max_length=args.max_length)
    if args.format == "svg":
        return svg.build_svg(w, segs, title=f"saddles m={args.m}")
    if args.format == "csv":
        rows = []
        for s in segs:
            a, b = w.points[s.from_idx], w.points[s.to_idx]
            rows.append([scalar_repr(a.re), scalar_repr(a.im),
                         scalar_repr(b.re), scalar_repr(b.im),
                         scalar_repr(s.holonomy.re), scalar_repr(s.holonomy.im),
                         "true" if s.provisional else "false"])
        return _csv_text(
            ["from_re", "from_im", "to_re", "to_im", "hol_re", "hol_im",
             "provisional"], rows)
    return _json_text([_seg_dict(w, s) for s in segs])


def _cmd_hol(args, w, mode):
    from . import flatgeom
    from .zseq import scalar_repr

    h = flatgeom.holonomy(w, max_length=args.max_length)
    if args.format == "csv":
        return _csv_text(["re", "im"],
                         [[scalar_repr(v.re), scalar_repr(v.im)] for v in h])
    return _json_text({
        "vectors": [_pt_repr(v) for v in h],
        "count": len(h),
        "complete_radius": h.complete_radius,
        "restricted_to": h.restricted_to,
    })


def _cmd_directions(args, w, mode):
    from . import flatgeom

    h = flatgeom.holonomy(w, max_length=args.max_length)
    return _json_text(flatgeom.direction_profile(h).to_dict())


def _cmd_lift(args, w, mode):
    from . import cover

    verts = _point_list(args.path, mode)
    if len(verts) < 2:
        raise ValueError("--path needs at least two vertices")
    cuts = cover.build_cuts(w, args.m)
    start = cover.CoverPoint(verts[0].to_complex(), args.start_sheet % args.m)
    end = cover.lift_path(verts, start, cuts)
    events = cover.crossing_log(verts, cuts)
    return _json_text({
        "start": {"base": [start.base.real, start.base.imag],
                  "sheet": start.sheet},
        "end": {"base": [end.base.real, end.base.imag], "sheet": end.sheet},
        "crossings": [e.to_dict() for e in events],
    })


def _cmd_cone_angle(args, w, mode):
    from . import cover

    ca = cover.cone_angle(args.zero_index, w, args.m, radius=args.loop_radius)
    return _json_text({
        "zero_index": ca.zero_index,
        "turns": ca.turns,
        "angle": ca.angle,
        "loop_radius": ca.loop_radius,
        "loop_delta": ca.loop_delta,
    })


def _cmd_classify(args, w, mode):
    from . import veech

    return _json_text(veech.classify(w, _search_config(args)).to_dict())


def _cmd_sandwich(args, w, mode):
    from . import veech

    if not w.is_canonical:
        w = w.canonicalize()
    lower, upper, ok = veech.sandwich_report(w, _search_config(args))
    return _json_text({
        "lower": [m_.to_rows_repr() for m_ in lower],
        "upper": [m_.to_rows_repr() for m_ in upper],
        "lower_count": len(lower),
        "upper_count": len(upper),
        "containment_ok": ok,
    })


def _cmd_equiv(args, w, mode):
    from . import equiv, zseq

    with open(args.other, encoding="utf-8") as fh:
        w2 = zseq.window_from_json(json.load(fh), eps=args.eps)
    return _json_text(equiv.translation_equiv(w, w2).to_dict())


def _cmd_moduli(args, w, mode):
    from . import equiv

    form = equiv.moduli_canonical(w)
    out = form.to_dict()
    if args.translate is not None:
        b = _point(args.translate, mode)
        moved = equiv.moduli_action(list(form.c0_coords), b)
        out["translated"] = [_pt_repr(p) for p in moved]
    return _json_text(out)


def _cmd_plot(args, w, mode):
    from . import flatgeom, svg

    segs = flatgeom.saddle_connections(w, args.m, max_length=args.max_length)
    h = flatgeom.holonomy(w, max_length=args.max_length)
    return svg.build_svg(w, segs, h.vectors,
                         title=f"{args.sequence or 'window'} R={float(w.radius):g}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    mode = _resolve_mode(args)
    try:
        text = args.run(args, _load_window(args, mode), mode)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise IoError(f"cannot write {args.out}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except FlatcurveError as exc:
        sys.stdout.write(json.dumps(
            {"error": exc.code, "detail": str(exc)}, sort_keys=True) + "\n")
        return 1
    except (ValueError, ZeroDivisionError, OverflowError, OSError,
            KeyError) as exc:
        sys.stdout.write(json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)},
            sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

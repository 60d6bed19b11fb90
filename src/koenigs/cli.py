"""Command line front end.

Grammar:
    koenigs <classify|geodesic|flow|actions|spectrum|verify|figures>
            [--family F] [--rho R] [--xi X] [--E E] [--L L]
            [--n-max N] [--m-max M] [--tol T] [--seed S]
            [--format csv|json|svg] [--out PATH] [--suite NAME]

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Outputs are deterministic: the same configuration renders byte-identical
bytes (fixed seed, fixed formatting, no timestamps).
"""

import argparse
import io
import json
import math
import os
import sys
from dataclasses import dataclass

from .actions import action_variables
from .errors import BoundaryReached, KoenigsError
from .flow import drift_report, integrate
from .geodesics import classify as classify_regime
from .geodesics import start_point
from .models import FAMILIES, make_model
from .quantum import spectrum
from .verify import DEFAULT_SEED, run_suite

_FIG_SPANS = {"fig1": 10.0, "fig2": 8.0, "fig3": 4.0, "fig4": 6.0}


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str = None
    rho: float = None
    xi: float = None
    E: float = None
    L: float = None
    n_max: int = 3
    m_max: int = 3
    tol: float = None        # None means the per-command default
    seed: int = DEFAULT_SEED
    format: str = None       # None means the per-command default
    out: str = None
    suite: str = "all"


# allowed --format values per command; the first is the default
_FORMATS = {
    "classify": ("json", "csv"),
    "geodesic": ("csv", "json", "svg"),
    "flow": ("json", "csv"),
    "actions": ("csv", "json"),
    "spectrum": ("csv", "json"),
    "verify": ("json", "csv"),
    "figures": ("svg",),
}

# one span per family keeps runs short while crossing several turnings
_FAMILY_SPANS = {"trig": 8.0, "h0": 12.0, "hplus": 10.0, "affine": 4.0}


class UsageError(Exception):
    pass


def _require(config, *names):
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"{config.command} requires {flags} to be set")


def _model_from(config):
    _require(config, "family", "rho", "xi")
    if config.family not in FAMILIES:
        raise UsageError(f"--family must be one of {', '.join(FAMILIES)}")
    return make_model(config.family, config.rho, config.xi)


# -- emitters -----------------------------------------------------------------

def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _emit_json(record):
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _emit_csv(rows, columns):
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    return buf.getvalue().encode()


def _emit_svg(curves, width=480, height=360):
    """Fixed-size SVG of labelled polylines; samples only, no styling extras."""
    pts_all = [p for _, pts in curves for p in pts]
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad_x = 0.05 * max(x_hi - x_lo, 1e-9)
    pad_y = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def to_px(p):
        u = (p[0] - x_lo) / (x_hi - x_lo) * (width - 20) + 10
        v = height - ((p[1] - y_lo) / (y_hi - y_lo) * (height - 20) + 10)
        return f"{u:.2f},{v:.2f}"

    palette = ("#1f6fb4", "#c44e52", "#2a9d5c", "#7a5cc4")
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, (label, pts) in enumerate(curves):
        color = palette[i % len(palette)]
        coords = " ".join(to_px(p) for p in pts)
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"><title>{label}</title></polyline>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()


# -- command payloads ---------------------------------------------------------

def _flat_regime(config, regime):
    record = {
        "family": config.family,
        "rho": config.rho,
        "xi": config.xi,
        "energy": config.E,
        "angular_momentum": config.L,
        "tag": regime.tag,
        "closed": regime.closed,
        "eccentricity": regime.eccentricity,
    }
    for i, (lo, hi) in enumerate(regime.domain):
        record[f"domain_{i}_lo"] = lo
        record[f"domain_{i}_hi"] = None if math.isinf(hi) else hi
    for i, t_pt in enumerate(regime.turning_points):
        record[f"turning_point_{i}"] = t_pt
    for key, val in sorted(regime.params.items()):
        record[key] = val
    return record


def _payload_classify(config):
    model = _model_from(config)
    _require(config, "E", "L")
    regime = classify_regime(model, config.E, config.L)
    record = _flat_regime(config, regime)
    if config.format == "csv":
        cols = sorted(record)
        return _emit_csv([record], cols)
    return _emit_json(record)


def _trajectory_for(config):
    model = _model_from(config)
    _require(config, "E", "L")
    regime = classify_regime(model, config.E, config.L)
    tol = 1e-10 if config.tol is None else config.tol
    span = _FAMILY_SPANS[model.family]
    try:
        traj = integrate(model, start_point(regime), span, tol=tol, samples=400)
    except BoundaryReached as reached:
        traj = reached.trajectory  # open regime left the chart; report the arc
    return regime, traj


def _payload_geodesic(config):
    regime, traj = _trajectory_for(config)
    cols = ("t", "q1", "q2", "p1", "p2")
    rows = [
        {"t": traj.t[i], "q1": traj.states[i, 0], "q2": traj.states[i, 1],
         "p1": traj.states[i, 2], "p2": traj.states[i, 3]}
        for i in range(len(traj.t))
    ]
    if config.format == "json":
        record = {
            "tag": regime.tag,
            "samples": len(rows),
            "t_end": traj.t[-1],
        }
        return _emit_json(record)
    if config.format == "svg":
        pts = [(traj.states[i, 1], traj.states[i, 0]) for i in range(len(traj.t))]
        return _emit_svg([(regime.tag, pts)])
    return _emit_csv(rows, cols)


def _payload_flow(config):
    regime, traj = _trajectory_for(config)
    rep = drift_report(traj)
    record = {
        "family": config.family,
        "rho": config.rho,
        "xi": config.xi,
        "energy": config.E,
        "angular_momentum": config.L,
        "tag": regime.tag,
        "t_end": float(traj.t[-1]),
        "samples": int(len(traj.t)),
        "max_drift_energy": rep["max_dE"],
        "max_drift_angular": rep["max_dL"],
        "max_drift_second_1": rep["max_dS1"],
        "max_drift_second_2": rep["max_dS2"],
    }
    if config.format == "csv":
        cols = sorted(record)
        return _emit_csv([record], cols)
    return _emit_json(record)


def _payload_actions(config):
    model = _model_from(config)
    _require(config, "E", "L")
    av = action_variables(model, config.E, config.L)
    record = {
        "family": config.family,
        "rho": config.rho,
        "xi": config.xi,
        "energy": config.E,
        "angular_momentum": config.L,
        "i_angle": av.I_angle,
        "i_radial": av.I_radial,
        "j": av.J,
    }
    if config.format == "json":
        return _emit_json(record)
    cols = ("family", "rho", "xi", "energy", "angular_momentum", "i_angle", "i_radial", "j")
    return _emit_csv([record], cols)


def _payload_spectrum(config):
    model = _model_from(config)
    levels = spectrum(model, config.n_max, config.m_max)
    rows = [
        {"n": lv.n, "m": lv.m, "j_tilde": lv.J_tilde, "energy": lv.E}
        for lv in levels
    ]
    if config.format == "json":
        record = {"family": config.family, "rho": config.rho, "xi": config.xi,
                  "levels": len(rows)}
        for i, row in enumerate(rows):
            record[f"level_{i:03d}_n"] = row["n"]
            record[f"level_{i:03d}_m"] = row["m"]
            record[f"level_{i:03d}_energy"] = row["energy"]
        return _emit_json(record)
    return _emit_csv(rows, ("n", "m", "j_tilde", "energy"))


def _payload_verify(config):
    tol = config.tol
    results = run_suite(suite=config.suite, tol=tol, seed=config.seed)
    if not results:
        raise UsageError(f"--suite {config.suite} matches no checks")
    if config.format == "csv":
        rows = [{"name": r.name, "status": r.status, "value": r.value, "gate": r.gate,
                 "detail": r.detail.replace(",", ";")} for r in results]
        payload = _emit_csv(rows, ("name", "status", "value", "gate", "detail"))
    else:
        record = {r.name: {"status": r.status, "value": r.value, "gate": r.gate} for r in results}
        record["checks_total"] = len(results)
        record["checks_failed"] = sum(1 for r in results if r.status == "FAIL")
        payload = _emit_json(record)
    lines = [f"{r.status:5s} {r.name}: {r.detail}" for r in results]
    failed = any(r.status == "FAIL" for r in results)
    return payload, lines, (1 if failed else 0)


_FIGURES = (
    # turning-family portraits: one parameter eta per curve or per figure
    ("fig1", "trig", 0.5, (("eta=0.1", 0.2, 0.4), ("eta=1", 2.0, 4.0), ("eta=10", 20.0, 40.0))),
    ("fig2", "trig", 0.5, (("eta=0.1", 0.2, 0.0),)),
    ("fig3", "trig", 0.5, (("eta=1", 2.0, 0.0),)),
    ("fig4", "trig", 0.5, (("eta=sep", 2.0 * (2.0 - math.sqrt(3.0)), 0.0),)),
)


def _payload_figures(config):
    files = {}
    for name, family, rho, curves in _FIGURES:
        polylines = []
        for label, E, xi in curves:
            model = make_model(family, rho, xi)
            regime = classify_regime(model, E, 1.0)
            try:
                traj = integrate(model, start_point(regime), _FIG_SPANS[name],
                                 tol=1e-10, samples=500)
            except BoundaryReached as reached:
                traj = reached.trajectory  # curve leaves the chart; keep the arc
            pts = [(traj.states[i, 1], traj.states[i, 0]) for i in range(len(traj.t))]
            polylines.append((label, pts))
        files[name + ".svg"] = _emit_svg(polylines)
    return files


# -- driver -------------------------------------------------------------------

def render(config):
    """Render a configuration to (payload bytes, stdout lines, exit code)."""
    allowed = _FORMATS[config.command]
    fmt = config.format or allowed[0]
    if fmt not in allowed:
        raise UsageError(f"{config.command} supports --format {'/'.join(allowed)}, not {fmt}")
    config = RunConfig(**{**config.__dict__, "format": fmt})
    if config.command == "verify":
        return _payload_verify(config)
    if config.command == "figures":
        return _payload_figures(config), None, 0
    payload = {
        "classify": _payload_classify,
        "geodesic": _payload_geodesic,
        "flow": _payload_flow,
        "actions": _payload_actions,
        "spectrum": _payload_spectrum,
    }[config.command](config)
    return payload, None, 0


def render_for_determinism_check():
    """Concatenated payloads of a few cheap configurations (for the suite)."""
    configs = (
        RunConfig(command="classify", family="trig", rho=0.5, xi=-2.0, E=0.0, L=1.0),
        RunConfig(command="actions", family="h0", rho=0.8, xi=1.1, E=0.5, L=0.5),
        RunConfig(command="spectrum", family="hplus", rho=2.0, xi=3.75),
        RunConfig(command="geodesic", family="affine", rho=1.2, xi=1.0, E=1.0, L=1.0,
                  format="svg"),
    )
    chunks = []
    for config in configs:
        payload, _, _ = render(config)
        chunks.append(payload)
    return b"".join(chunks)


def _parse_tol(text):
    if text is None or text == "default":
        return None
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--tol must be a number or 'default', got {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"--tol must be finite and positive, got {text!r}")
    return value


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=FAMILIES)
    common.add_argument("--rho", type=float)
    common.add_argument("--xi", type=float)
    common.add_argument("--E", type=float, dest="E")
    common.add_argument("--L", type=float, dest="L")
    common.add_argument("--n-max", type=int, default=3, dest="n_max")
    common.add_argument("--m-max", type=int, default=3, dest="m_max")
    common.add_argument("--tol", default=None)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--format", choices=("csv", "json", "svg"))
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(
        prog="koenigs",
        description="Geodesics, actions, and spectra on four Koenigs-type metric families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "geodesic", "flow", "actions", "spectrum", "figures"):
        sub.add_parser(name, parents=[common])
    verify_p = sub.add_parser("verify", parents=[common])
    verify_p.add_argument("--suite", default="all")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        config = RunConfig(
            command=args.command,
            family=args.family,
            rho=args.rho,
            xi=args.xi,
            E=args.E,
            L=args.L,
            n_max=args.n_max,
            m_max=args.m_max,
            tol=_parse_tol(args.tol),
            seed=args.seed,
            format=args.format,
            out=args.out,
            suite=getattr(args, "suite", "all"),
        )
        payload, lines, code = render(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KoenigsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if config.command == "figures":
        out_dir = config.out or "figures"
        os.makedirs(out_dir, exist_ok=True)
        for fname in sorted(payload):
            path = os.path.join(out_dir, fname)
            with open(path, "wb") as fh:
                fh.write(payload[fname])
            print(path)
        return 0

    if config.format and not config.out:
        lines = None  # an explicit --format puts the payload, not the text lines, on stdout
    if lines is not None:
        for line in lines:
            print(line)
    if config.out:
        with open(config.out, "wb") as fh:
            fh.write(payload)
    elif lines is None:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: spectrum, region, sdpc, outer, audit, reproduce-fig2.
Exit codes: 0 ok, 2 config, 3 numerics, 4 io, 5 audit failure. Failures
emit one machine-readable JSON object on stderr (see ERROR_JSON_SCHEMA).
All file output is atomic and byte-deterministic.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import geometry, output, sato, sdpc
from .channel import (
    MODE_COMPLEX,
    MODE_REAL,
    ChannelPair,
    is_secrecy_feasible,
    load_channel,
    rate_scale,
    spectrum,
)
from .errors import NumericsError
from .regions import (
    SweepConfig,
    capacity_region,
    capacity_region_beta,
    equal_rate_point,
    max_rates,
    time_sharing_region,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_IO = 4
EXIT_AUDIT = 5

#: rho* counts as real when |Im rho*| <= REAL_RHO_TOL * max(1, |Re rho*|)
REAL_RHO_TOL = 1e-12

#: channel of the bundled two-antenna example; the second entry of g
#: appears in two variants in the source material
EXAMPLE_H = (1.5, 0.0)
EXAMPLE_G1 = 1.801
VARIANT_G2 = {"text-g": 0.872, "matrix-g": 0.871}
EXAMPLE_POWER = 10.0

ERROR_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["error"],
    "additionalProperties": False,
    "properties": {
        "error": {
            "type": "object",
            "required": ["code", "exit_code", "message"],
            "additionalProperties": False,
            "properties": {
                "code": {"enum": ["config", "numerics", "io", "audit"]},
                "exit_code": {"type": "integer", "enum": [2, 3, 4, 5]},
                "message": {"type": "string"},
            },
        }
    },
}


class ConfigError(Exception):
    pass


class AuditFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2) with plain text
        raise ConfigError(message)


def _parse_vector(text: str) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) < 2 or any(not p for p in parts):
        raise ConfigError(f"vector needs >= 2 comma-separated entries, got {text!r}")
    values = []
    for p in parts:
        try:
            values.append(complex(p.replace("i", "j")))
        except ValueError as exc:
            raise ConfigError(f"cannot parse vector entry {p!r}") from exc
    return np.array(values)


def _parse_rho(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse rho {text!r}") from exc


def _channel_from_args(args) -> ChannelPair:
    if getattr(args, "channel", None):
        try:
            return load_channel(args.channel)
        except FileNotFoundError as exc:
            raise ConfigError(f"channel file not found: {args.channel}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"channel file is not valid JSON: {exc}") from exc
    if args.h is None or args.g is None:
        raise ConfigError("provide --h and --g (or --channel FILE)")
    if args.power is None:
        raise ConfigError("provide --power (or --channel FILE)")
    try:
        return ChannelPair(
            _parse_vector(args.h), _parse_vector(args.g), args.power, args.mode
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_from_args(args) -> SweepConfig | None:
    """The sweep an explicit --grid asks for; None leaves the caller's default."""
    if getattr(args, "grid", None) is None:
        return None
    if args.grid < 2:
        raise ConfigError("--grid needs at least 2 points")
    # an explicit grid is exact: no subdivision, no refinement
    return SweepConfig(grid_points=args.grid, sagitta_tol=None, refine=False)


def _add_channel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", help="user-1 vector, comma separated (re+imj for complex)")
    p.add_argument("--g", help="user-2 vector, comma separated")
    p.add_argument("--power", type=float, help="total transmit power budget")
    p.add_argument(
        "--mode",
        choices=[MODE_REAL, MODE_COMPLEX],
        default=MODE_COMPLEX,
        help="signalling alphabet; real mode halves reported rates",
    )
    p.add_argument("--channel", metavar="PATH", help="channel JSON file")


def _add_output_flags(p: argparse.ArgumentParser, svg: bool = True) -> None:
    p.add_argument("--out-csv", metavar="PATH")
    p.add_argument("--out-json", metavar="PATH")
    if svg:
        p.add_argument("--out-svg", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secrecy-region",
        description="Secrecy rate regions of the two-user multi-antenna "
        "Gaussian broadcast channel with confidential messages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="pencil eigenvalues and feasibility")
    _add_channel_flags(p)
    _add_output_flags(p, svg=False)

    p = sub.add_parser("region", help="sweep the achievable region boundary")
    _add_channel_flags(p)
    p.add_argument("--grid", type=int, help="exact uniform parameter grid size")
    p.add_argument(
        "--beta-check",
        action="store_true",
        help="cross-check against the role-exchanged parametrization",
    )
    _add_output_flags(p)

    p = sub.add_parser("sdpc", help="dirty-paper rates for the optimal covariances")
    _add_channel_flags(p)
    p.add_argument("--alpha", type=float, default=0.5, help="power split in [0,1]")
    p.add_argument("--grid", type=int, help="sweep size; writes boundary CSV")
    _add_output_flags(p, svg=False)

    p = sub.add_parser("outer", help="correlated-noise outer bound frontier")
    _add_channel_flags(p)
    p.add_argument("--rho", help="noise coupling, complex (default: tight choice)")
    _add_output_flags(p)

    p = sub.add_parser("audit", help="inner/outer containment and tightness audit")
    _add_channel_flags(p)
    p.add_argument("--grid", type=int, help="exact uniform parameter grid size")
    p.add_argument("--out-json", metavar="PATH")

    p = sub.add_parser(
        "reproduce-fig2",
        help="regenerate the bundled two-antenna example (region vs time sharing)",
    )
    p.add_argument(
        "--variant",
        choices=sorted(VARIANT_G2),
        default="text-g",
        help="second entry of g: 0.872 (text-g) or 0.871 (matrix-g)",
    )
    p.add_argument("--power", type=float, default=EXAMPLE_POWER)
    p.add_argument("--grid", type=int, help="exact uniform parameter grid size")
    p.add_argument("--out-csv", metavar="PATH", default="fig2.csv")
    p.add_argument("--out-json", metavar="PATH")
    p.add_argument("--out-svg", metavar="PATH", default="fig2.svg")
    return parser


def _spectrum_payload(ch: ChannelPair) -> dict:
    spec = spectrum(ch)
    feas1, feas2 = is_secrecy_feasible(ch)
    rmax = max_rates(ch)
    return {
        "lambda1": spec.lambda1,
        "lambda2": spec.lambda2,
        "e1": [[z.real, z.imag] for z in spec.e1],
        "e2": [[z.real, z.imag] for z in spec.e2],
        "residual1": spec.residual1,
        "residual2": spec.residual2,
        "degenerate1": spec.degenerate1,
        "degenerate2": spec.degenerate2,
        "feasible1": feas1,
        "feasible2": feas2,
        "mode": ch.mode,
        "rate_scale": rate_scale(ch),
        "r1_max_bits": rmax.r1,
        "r2_max_bits": rmax.r2,
    }


def _write_outputs(args, json_text: str, csv=None, svg=None, echo=False) -> None:
    """Write each --out-* file that was given, calling `csv` or `svg` for
    its text only then, and print the JSON when `echo` is set or no file
    was written."""
    wrote = False
    for path, make in (
        (getattr(args, "out_csv", None), csv),
        (args.out_json, lambda: json_text),
        (getattr(args, "out_svg", None), svg),
    ):
        if path and make is not None:
            output.atomic_write_text(path, make())
            wrote = True
    if echo or not wrote:
        sys.stdout.write(json_text)


def _capacity_svg(boundary, ts) -> str:
    """The capacity region's frontier against time sharing."""
    return output.region_svg(
        [
            ("capacity region", boundary.frontier(), "solid"),
            ("time sharing", ts.frontier(), "dashdot"),
        ]
    )


def cmd_spectrum(args) -> int:
    ch = _channel_from_args(args)
    _write_outputs(args, output.dump_json(_spectrum_payload(ch)), echo=True)
    return EXIT_OK


def _boundary_payload(boundary) -> dict:
    points = np.rec.fromarrays(
        [boundary.params, boundary.points[:, 0], boundary.points[:, 1]],
        names="param,r1_bits,r2_bits",
    )
    return {
        "kind": boundary.kind,
        "r1_max_bits": boundary.r1_max,
        "r2_max_bits": boundary.r2_max,
        "hull_union_gap_bits": boundary.hull_union_gap,
        "points": points,
        "hull": boundary.hull,
    }


def cmd_region(args) -> int:
    ch = _channel_from_args(args)
    cfg = _sweep_from_args(args)
    boundary = capacity_region(ch, cfg)
    beta_dists = None
    beta_hd = None
    payload = _boundary_payload(boundary)
    if args.beta_check:
        dual_frontier = capacity_region_beta(ch, cfg).frontier()
        beta_dists = geometry.min_distances(boundary.points, dual_frontier)
        beta_hd = geometry.hausdorff_distance(boundary.frontier(), dual_frontier)
        payload["beta_check"] = {
            "hausdorff_bits": beta_hd,
            "max_corner_dist_bits": float(beta_dists.max(initial=0.0)),
        }
    _write_outputs(
        args,
        output.dump_json(payload),
        csv=lambda: output.boundary_csv(boundary, beta_dists, beta_hd),
        svg=lambda: _capacity_svg(boundary, time_sharing_region(ch)),
    )
    return EXIT_OK


def cmd_sdpc(args) -> int:
    ch = _channel_from_args(args)
    if args.grid is not None:
        cfg = _sweep_from_args(args)
        boundary = capacity_region(ch, cfg)
        # corners through the covariance route, cross-checked per point
        gaps = [sdpc.verify_identity_eq9(ch, a) for a in boundary.params.tolist()]
        payload = _boundary_payload(boundary)
        payload["max_identity_gap"] = max(gaps, default=0.0)
        _write_outputs(
            args, output.dump_json(payload), csv=lambda: output.boundary_csv(boundary)
        )
        return EXIT_OK
    alpha = args.alpha
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"--alpha must lie in [0, 1], got {alpha}")
    cov = sdpc.optimal_covariances(ch, alpha)
    rates = sdpc.sdpc_rates(ch, cov)
    payload = {
        "alpha": alpha,
        "trace_k_u1": float(np.trace(cov.k_u1).real),
        "trace_k_u2": float(np.trace(cov.k_u2).real),
        "r1_bits": rates.r1,
        "r2_bits": rates.r2,
        "identity_gap": sdpc.verify_identity_eq9(ch, alpha),
    }
    _write_outputs(args, output.dump_json(payload), echo=True)
    return EXIT_OK


def cmd_outer(args) -> int:
    ch = _channel_from_args(args)
    if args.rho is not None:
        rho = _parse_rho(args.rho)
    else:
        spec = spectrum(ch)
        rho = sato.tightness_rho(spec, ch.h, ch.g)
    boundary = sato.outer_region(ch, rho)
    hull = boundary.hull
    payload = {
        "rho": [rho.real, rho.imag],
        "kind": boundary.kind,
        "n_corners": len(hull),
        "frontier": hull,
    }
    _write_outputs(
        args,
        output.dump_json(payload),
        csv=lambda: output.boundary_csv(boundary),
        svg=lambda: output.region_svg(
            [("outer bound frontier", geometry.staircase_polyline(hull), "solid")]
        ),
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    ch = _channel_from_args(args)
    report = sato.audit_inner_outer(ch, _sweep_from_args(args))
    _write_outputs(args, output.dump_json(report.to_dict()), echo=True)
    if not report.containment_ok:
        raise AuditFailure(
            f"containment violated: worst witness margin "
            f"{report.containment_worst:.3e}"
        )
    if report.tightness_evaluated:
        # the user-2 corner is tight only under a real coupling; with a
        # genuinely complex rho* its gap is reported, not asserted
        rho = report.rho_star
        keys = ["alpha1_f1"]
        if abs(rho.imag) <= REAL_RHO_TOL * max(1.0, abs(rho.real)):
            keys.append("alpha0_f2")
        for key in keys:
            gap = report.corner_gaps.get(key)
            if gap is not None and abs(gap) > sato.CORNER_TOL:
                raise AuditFailure(f"corner gap {key} = {gap:.3e} exceeds tolerance")
    return EXIT_OK


def cmd_reproduce_fig2(args) -> int:
    g2 = VARIANT_G2[args.variant]
    ch = ChannelPair(
        np.array([complex(v) for v in EXAMPLE_H]),
        np.array([complex(EXAMPLE_G1), complex(g2)]),
        args.power,
        MODE_REAL,
    )
    cfg = _sweep_from_args(args)
    boundary = capacity_region(ch, cfg)
    ts = time_sharing_region(ch)
    cap_eq = equal_rate_point(boundary)
    ts_eq = equal_rate_point(ts)
    summary = {
        "variant": args.variant,
        "power": args.power,
        "r1_max_bits": boundary.r1_max,
        "r2_max_bits": boundary.r2_max,
        "equal_rate_capacity_bits": cap_eq,
        "equal_rate_time_sharing_bits": ts_eq,
        "equal_rate_gap_bits": cap_eq - ts_eq,
        "csv": args.out_csv,
        "svg": args.out_svg,
    }
    output.atomic_write_text(args.out_csv, output.boundary_csv(boundary))
    output.atomic_write_text(args.out_svg, _capacity_svg(boundary, ts))
    if args.out_json:
        payload = _boundary_payload(boundary)
        payload.update(summary)
        payload["time_sharing"] = ts.hull
        output.atomic_write_text(args.out_json, output.dump_json(payload))
    sys.stdout.write(output.dump_json(summary))
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "region": cmd_region,
    "sdpc": cmd_sdpc,
    "outer": cmd_outer,
    "audit": cmd_audit,
    "reproduce-fig2": cmd_reproduce_fig2,
}


def _emit_error(code: str, exit_code: int, message: str) -> int:
    sys.stderr.write(
        output.dump_json(
            {"error": {"code": code, "exit_code": exit_code, "message": message}}
        )
    )
    return exit_code


#: the parser, built by the first `main` call
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except ConfigError as exc:
        return _emit_error("config", EXIT_CONFIG, str(exc))
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        return _emit_error("config", EXIT_CONFIG, str(exc))
    except NumericsError as exc:
        return _emit_error("numerics", EXIT_NUMERICS, str(exc))
    except AuditFailure as exc:
        return _emit_error("audit", EXIT_AUDIT, str(exc))
    except OSError as exc:
        return _emit_error("io", EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())

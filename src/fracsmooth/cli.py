"""Command-line interface.

Subcommands: set-info, covering, spectrum, nu-sharp, legendre, exponents,
wave-sim, verify-duality, verify-sharpness, verify-bookkeeping.  Run as the
``fracsmooth`` script, ``python -m fracsmooth`` or ``python -m fracsmooth.cli``.
Exit codes: 0 pass, 1 check failure, 2 usage error, 3 runtime failure
(a refinement that exhausted its budget, or a degenerate window).
Every verify-* command is deterministic: each accepts ``--seed``, so a
script can pass it to all of them, and ignores it.  Each command imports
the modules it runs when it is called, so importing this module loads only
``harness``, ``errors`` and ``records``.  Only wave-sim and verify-sharpness
load NumPy and ``wave``, and wave-sim loads none of the covering modules
(``sets``, ``backend``, ``spectra``, ``legendre``, ``exponents``,
``sampled``); the other commands run in plain Python.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import harness
from .errors import DegenerateWindowError, FracsmoothError, RefineFailureError


_UNUSED_SEED = "accepted and ignored: this check is deterministic"


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# the most nodes an --alpha-grid may hold; the defaults hold 33 and 257
_GRID_NODES = 2**16


def _parse_grid(spec: str) -> list:
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
        finite = all(map(math.isfinite, (lo, hi, step)))
        n = int(round((hi - lo) / step)) if finite and lo <= hi and step > 0.0 else -1
    except (ValueError, ArithmeticError):
        n = -1
    if not 0 <= n < _GRID_NODES:
        raise FracsmoothError(f"grid must be lo:hi:step with finite lo <= hi, a positive step and "
                              f"at most {_GRID_NODES} nodes, got {spec!r}")
    return [lo + step * k for k in range(n + 1)]


def _add_common(p):
    p.add_argument("--set", required=True, help="path to a set descriptor JSON file")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracsmooth")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("set-info", help="describe a set and its dimension estimates")
    _add_common(p)
    p.add_argument("--j", type=int, default=12)

    p = sub.add_parser("covering", help="covering number of set /\\ window at 2^-j")
    _add_common(p)
    p.add_argument("--window", nargs=2, type=float, default=(1.0, 2.0))
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("spectrum", help="empirical Assouad spectrum table")
    _add_common(p)
    p.add_argument("--j", type=int, default=12)

    p = sub.add_parser("nu-sharp", help="finite-scale dual-profile table")
    _add_common(p)
    p.add_argument("--jmin", type=int, default=10)
    p.add_argument("--jmax", type=int, default=14)
    p.add_argument("--alpha-grid", default="0:2:0.0625")

    p = sub.add_parser("legendre", help="Legendre transform of a sampled CSV function")
    p.add_argument("--infile", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--alpha-grid", default="0:4:0.015625")

    p = sub.add_parser("exponents", help="closed-form exponents for a set")
    _add_common(p)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--j", type=int, default=12)
    p.add_argument("--m", type=int, default=None, help="also emit kappa/lambda at scale split m")
    p.add_argument("--window-length", type=float, default=None)
    p.add_argument("--count", type=int, default=None, help="with --window-length: lower-bound value")

    p = sub.add_parser("wave-sim", help="radial wave field samples")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--j", type=int, default=8)
    p.add_argument("--t-ref", type=float, default=1.0)
    p.add_argument("--times", default="1.5", help="comma-separated times")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="csv: the field samples; json: the header only (parameters, "
                        "times, grid sizes, err_rel), without the samples")

    p = sub.add_parser("verify-duality", help="duality check against the closed form")
    _add_common(p)
    p.add_argument("--jmin", type=int, default=10)
    p.add_argument("--jmax", type=int, default=14)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)

    p = sub.add_parser("verify-sharpness", help="growth-exponent check for shell sums")
    _add_common(p)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--jmin", type=int, default=8)
    p.add_argument("--jmax", type=int, default=13)
    p.add_argument("--tol", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)

    p = sub.add_parser("verify-bookkeeping", help="kappa/lambda scale-sum ratios")
    _add_common(p)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p", type=float, default=4.0)
    p.add_argument("--q", type=float, default=4.0)
    p.add_argument("--j", type=int, default=12)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)

    return ap


def cmd_set_info(args) -> int:
    from . import sets, spectra

    descriptor = sets.load_file(args.set)
    est = spectra.dims(descriptor, args.j)
    spec = spectra.analytic_spectrum(descriptor)
    lo, hi = sets.bounds(descriptor)
    regular = spectra.quasi_regular_check(descriptor, args.j)
    payload = {
        "set": sets.to_json_dict(descriptor),
        "bounds": [lo, hi],
        "dim_minkowski_estimate": est.minkowski,
        "dim_quasi_assouad_estimate": est.quasi_assouad,
        "scale_j": est.scale_j,
        "has_analytic_spectrum": spec is not None,
        "analytic_minkowski": None if spec is None else float(spec.values[0]),
        "quasi_regular": regular.is_regular,
        "quasi_regular_deviation": regular.max_deviation,
        "quasi_regular_nu_deviation": regular.nu_deviation,
    }
    _write(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def cmd_covering(args) -> int:
    from . import sets

    descriptor = sets.load_file(args.set)
    if (args.j is None) == (args.delta is None):
        raise FracsmoothError("give exactly one of --j or --delta")
    delta = args.delta if args.delta is not None else 2.0 ** (-args.j)
    n = sets.covering_number(descriptor, tuple(args.window), delta)
    if args.format == "json":
        _write(args.out, json.dumps({"count": n, "delta": delta, "window": list(args.window)}) + "\n")
    else:
        _write(args.out, f"window_lo,window_hi,delta,count\n{args.window[0]!r},{args.window[1]!r},{delta!r},{n}\n")
    return 0


def cmd_spectrum(args) -> int:
    from . import sets, spectra

    descriptor = sets.load_file(args.set)
    j = args.j
    grid = spectra.theta_grid(j)
    report = spectra.SpectrumReport(sets.dumps(descriptor), "theta", grid)
    report.rows[j] = tuple(spectra.assouad_spectrum_empirical(descriptor, th, j) for th in grid)
    spec = spectra.analytic_spectrum(descriptor)
    if spec is not None:
        report.analytic = spec(grid)
    _write(args.out, report.to_json() + "\n" if args.format == "json" else report.to_csv())
    return 0


def cmd_nu_sharp(args) -> int:
    from . import sets, spectra

    descriptor = sets.load_file(args.set)
    grid = _parse_grid(args.alpha_grid)
    report = spectra.nu_sharp_empirical(descriptor, grid, list(range(args.jmin, args.jmax + 1)))
    _write(args.out, report.to_json() + "\n" if args.format == "json" else report.to_csv())
    return 0


def cmd_legendre(args) -> int:
    from . import legendre
    from .sampled import SampledFunction

    with open(args.infile, "r", encoding="utf-8") as fh:
        f = SampledFunction.from_csv(fh.read())
    out = legendre.legendre_transform(f, _parse_grid(args.alpha_grid))
    _write(args.out, out.to_json() + "\n" if args.format == "json" else out.to_csv())
    return 0


def cmd_exponents(args) -> int:
    from . import exponents, legendre, sets, spectra

    descriptor = sets.load_file(args.set)
    config = harness.ExperimentConfig(descriptor, d=args.d, j_max=args.j)
    if args.p is None and args.q is None:
        _write(args.out, harness.run_exponent_table(config))
        return 0
    spec = spectra.analytic_spectrum(descriptor)
    nu = (legendre.nu_sharp_analytic(spec) if spec is not None
          else spectra.nu_sharp_empirical_function(descriptor, args.j))
    rows = {}
    if args.p is not None:
        rows["s_p"] = exponents.s_p(args.d, args.p)
        if args.p > 2:
            rows["sigma_p"] = exponents.sigma_p(args.d, args.p)
        rows["ls_exponent"] = exponents.ls_exponent(args.d, args.p, nu)
    if args.q is not None:
        rows["s_E_q"] = exponents.s_E_q(args.d, args.q, nu)
    if args.p is not None and args.q is not None and args.q >= args.p:
        try:
            rows["s_E_pq"] = exponents.s_E_pq(args.d, args.p, args.q, nu)
        except FracsmoothError:
            pass
    if args.m is not None:
        # kappa and lambda read every level: one full table serves dims too
        spectra.window_count_maxima(descriptor, args.j)
    est = spectra.dims(descriptor, args.j)
    rows["p_gamma"] = exponents.p_gamma(args.d, est.quasi_assouad)
    rows["q_gamma"] = exponents.q_gamma(args.d, est.quasi_assouad)
    if args.m is not None:
        if args.p is not None:
            rows["kappa"] = exponents.kappa(descriptor, args.j, args.m, args.d, args.p)
        if args.q is not None:
            rows["lambda"] = exponents.lam(descriptor, args.j, args.m, args.d, args.q)
    if args.window_length is not None and args.count is not None \
            and args.p is not None and args.q is not None:
        rows["lower_bound"] = exponents.lower_bound_rhs(
            args.d, args.p, args.q, args.j, args.window_length, args.count
        )
    if args.format == "json":
        _write(args.out, json.dumps(rows, sort_keys=True) + "\n")
    else:
        lines = ["quantity,value"] + [f"{k},{v!r}" for k, v in rows.items()]
        _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_wave_sim(args) -> int:
    from . import wave
    from ._numpy import np

    params = wave.WaveParams(d=args.d, j=args.j, t_ref=args.t_ref)
    try:
        times = [float(x) for x in args.times.split(",")]
        if not all(map(math.isfinite, times)):
            raise ValueError
    except ValueError:
        raise FracsmoothError(f"--times must be comma-separated finite numbers, got {args.times!r}") from None
    rows = []
    for t in times:
        reg = wave.region(params, t)
        if reg.r_lo > params.min_asymptotic_r:
            grid = np.linspace(reg.r_lo, reg.r_hi, 33)
            rows.append(wave.field_row_fast(params, t, grid))
        else:
            grid = np.linspace(0.0, max(reg.r_hi, params.min_asymptotic_r), 33)
            rows.append(wave.propagate(params, t, grid))
    fld = wave.WaveField(params, rows)
    if args.format == "json":
        _write(args.out, fld.header_json() + "\n")
    else:
        _write(args.out, fld.to_csv())
    return 0


def cmd_verify_duality(args) -> int:
    from . import sets

    descriptor = sets.load_file(args.set)
    config = harness.ExperimentConfig(descriptor, j_min=args.jmin, j_max=args.jmax, tolerance=args.tol)
    report = harness.run_duality(config)
    _write(args.out, report.to_json() + "\n" if args.format == "json" else report.to_csv())
    return 0 if report.passes else 1


def cmd_verify_sharpness(args) -> int:
    from . import sets

    descriptor = sets.load_file(args.set)
    config = harness.ExperimentConfig(descriptor, d=args.d, p=args.p, j_min=args.jmin, j_max=args.jmax)
    report = harness.run_sharpness_slope(config)
    _write(args.out, report.to_json() + "\n" if args.format == "json" else report.to_csv())
    return 0 if report.deviation <= args.tol else 1


def cmd_verify_bookkeeping(args) -> int:
    from . import sets

    descriptor = sets.load_file(args.set)
    config = harness.ExperimentConfig(descriptor, d=args.d, p=args.p, q=args.q, j_max=args.j, tolerance=args.tol)
    report = harness.run_bookkeeping(config)
    if args.format == "json":
        _write(args.out, json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    else:
        lines = ["m,kappa,lambda"]
        for m in range(report.j + 1):
            lines.append(f"{m},{float(report.kappa_values[m])!r},{float(report.lambda_values[m])!r}")
        lines.append(f"# kappa_ratio,{report.kappa_ratio!r},lambda_ratio,{report.lambda_ratio!r},pass,{report.passes}")
        _write(args.out, "\n".join(lines) + "\n")
    return 0 if report.passes else 1


_COMMANDS = {
    "set-info": cmd_set_info,
    "covering": cmd_covering,
    "spectrum": cmd_spectrum,
    "nu-sharp": cmd_nu_sharp,
    "legendre": cmd_legendre,
    "exponents": cmd_exponents,
    "wave-sim": cmd_wave_sim,
    "verify-duality": cmd_verify_duality,
    "verify-sharpness": cmd_verify_sharpness,
    "verify-bookkeeping": cmd_verify_bookkeeping,
}


def cli(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        # no deviation is <= nan, so such a check could never pass
        tol = getattr(args, "tol", None)
        if tol is not None and math.isnan(tol):
            raise FracsmoothError("--tol must be a number, got nan")
        # the exponents and the fields need d >= 2 (the wave commands also
        # cap it at 5)
        d = getattr(args, "d", None)
        if d is not None and d < 2:
            raise FracsmoothError(f"--d must be at least 2, got {d}")
        # the exponents are defined for finite p and q only
        for name in ("p", "q"):
            value = getattr(args, name, None)
            if value is not None and not math.isfinite(value):
                raise FracsmoothError(f"--{name} must be a finite number, got {value!r}")
        return _COMMANDS[args.command](args)
    except (RefineFailureError, DegenerateWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FracsmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(cli(argv))


if __name__ == "__main__":
    main()

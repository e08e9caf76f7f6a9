"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from fracsmooth import bessel, cli, exponents, harness, legendre, sets, spectra, wave
from fracsmooth.sampled import SampledFunction

from oracles import j_series_decimal

BETA = math.log(2.0) / math.log(3.0)

FIVE_SETS = {
    "interval": sets.FullInterval(1.0, 2.0),
    "points": sets.FinitePoints((1.5,)),
    "cantor": sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0),
    "polyseq": sets.PolySequence(1.0),
    "union": sets.UnionSet(
        (sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0), sets.CantorLike(1.6, 2.0, 3, 1.0 / 5.0))
    ),
}


def _report(num: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {state}  {label}  {detail}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_01_duality():
    j = 14
    tol = 0.08 + 2.0 / j
    grid = np.arange(0.0, 2.0 + 1e-12, 1.0 / 16.0)
    t0 = time.time()
    worst = {}
    for name, descriptor in FIVE_SETS.items():
        reference = legendre.nu_sharp_analytic(spectra.analytic_spectrum(descriptor))
        dev = max(abs(spectra.phi_at_scale(descriptor, a, j) - reference(a)) for a in grid)
        worst[name] = dev
    elapsed = time.time() - t0
    detail = ", ".join(f"{k}={v:.3f}" for k, v in worst.items()) + f" (tol {tol:.3f}, {elapsed:.0f}s)"
    _report(1, "duality at scale j=14 on five sets", max(worst.values()) <= tol and elapsed < 60.0, detail)


def test_criterion_02_closed_form_pins():
    j = 14
    grid = np.arange(0.0, 2.0 + 1e-12, 1.0 / 16.0)
    report = spectra.nu_sharp_empirical(FIVE_SETS["interval"], grid, [j])
    dev = float(np.abs(report.estimate - np.maximum(1.0, grid)).max())
    ok = dev <= 2.0 / j
    pinch_ok = True
    for descriptor in FIVE_SETS.values():
        for jj in (10, 14):
            for alpha in (1.0, 1.5, 2.0):
                phi = spectra.phi_at_scale(descriptor, alpha, jj)
                pinch_ok = pinch_ok and (alpha <= phi <= alpha + 2.0 / jj)
    _report(2, "interval profile pin and diagonal pinch", ok and pinch_ok,
            f"interval dev={dev:.4f} <= {2.0 / j:.4f}, pinch={pinch_ok}")


def test_criterion_03_legendre_engine():
    # involution within two grid steps
    inv_ok = True
    for fn in (lambda t: -min(0.5, 1.0 - t), lambda t: (t - 0.4) ** 2 - 0.5,
               lambda t: math.sin(2.0 * t) - 1.5 * t):
        f = SampledFunction(0.0, 1.0, np.asarray([fn(x) for x in np.linspace(0.0, 1.0, 257)]))
        once = legendre.legendre_transform(f)
        twice = legendre.legendre_transform(once, np.linspace(0.0, 1.0, 257))
        thrice = legendre.legendre_transform(twice, once.grid)
        slack = 2.0 * max(once.step, twice.step)
        inv_ok = inv_ok and float(np.abs(thrice.values - once.values).max()) <= slack
        cert = legendre.convexity_certificate(once)
        inv_ok = inv_ok and cert.is_convex

    # three admissible profiles round-trip within two grid steps
    def sampled(fn, n=1025):
        g = np.linspace(0.0, 4.0, n)
        return SampledFunction(0.0, 4.0, np.asarray([fn(x) for x in g]))

    taus = [
        sampled(lambda a: max(1.0, a)),
        sampled(lambda a: max(a, BETA)),
        sampled(lambda a: 0.5 * (a * a + 1.0) if a <= 1.0 else a),  # strictly convex below 1
    ]
    rt_worst = 0.0
    for tau in taus:
        assert legendre.tau_admissible(tau).admissible
        gamma = legendre.spectrum_from_tau(tau)
        nu = SampledFunction(0.0, 1.0, np.append(-(1.0 - gamma.grid) * gamma.values, 0.0))
        back = legendre.legendre_transform(nu, tau.grid)
        rt_worst = max(rt_worst, float(np.abs(back.values - tau.values).max()))
        rt_ok = rt_worst <= 2.0 * max(tau.step, 1.0 / 256.0)
        cert = legendre.convexity_certificate(legendre.legendre_transform(nu))
        rt_ok = rt_ok and cert.is_convex
    _report(3, "legendre involution, certificates, tau round trips", inv_ok and rt_ok,
            f"round-trip worst={rt_worst:.2e}")


def test_criterion_04_exponent_identities():
    prof = SampledFunction(0.0, 4.0, np.maximum(np.linspace(0.0, 4.0, 257), BETA))
    ps = np.linspace(2.05, 6.0, 20)
    qs = np.linspace(2.1, 9.0, 20)
    red_ok = all(
        exponents.s_E_pq(3, 2.0, q, prof) == exponents.s_E_q(3, q, prof) for q in qs
    ) and all(
        exponents.s_E_pq(3, p, p, prof) == exponents.ls_exponent(3, p, prof) for p in ps
    )

    branch_ok = True
    full = SampledFunction(0.0, 4.0, np.maximum(np.linspace(0.0, 4.0, 257), 1.0))
    for d in (2, 3, 4):
        p_crit = 2.0 * d / (d - 1)
        for p in np.linspace(2.0, 12.0, 41):
            got = exponents.ls_exponent(d, p, full)
            want = 1.0 / p if p <= p_crit else exponents.s_p(d, p)
            branch_ok = branch_ok and abs(got - want) <= 1e-12

    identity = exponents.identity_profile(12.0)
    collapse_ok = True
    for d in (2, 3, 4):
        for gamma in (0.0, 0.5, 1.0):
            for p in np.linspace(1.5, 4.0, 6):
                p_dual = p / (p - 1.0)
                q0 = p_dual * (d - 1 + 2.0 * gamma) / (d - 1)
                for q in np.linspace(q0, q0 + 5.0, 5):
                    if q < p or q <= p_dual * (1.0 + 1e-12):
                        continue
                    want = (d - 1) * (0.5 - 1.0 / q) + 1.0 / p - 1.0 / q
                    got = exponents.s_E_pq(d, p, q, identity)
                    collapse_ok = collapse_ok and abs(got - want) <= 1e-12
    _report(4, "exponent reductions, [1,2] branches, supercritical collapse",
            red_ok and branch_ok and collapse_ok,
            f"reductions={red_ok} branches={branch_ok} collapse={collapse_ok}")


def test_criterion_05_bessel_kernel():
    u = np.linspace(0.05, 900.0, 4001)
    half_dev = float(np.abs(bessel.bessel_j(0.5, u) - np.sqrt(2.0 / (math.pi * u)) * np.sin(u)).max())
    half_ok = half_dev <= 1e-12

    us = np.logspace(-2, 3, 60)
    j0_ok = True
    worst = 0.0
    for x in us:
        ref = j_series_decimal(0, float(x))
        env = math.sqrt(2.0 / (math.pi * max(float(x), 1.0)))
        err = abs(bessel.bessel_j(0, float(x)) - ref) / max(abs(ref), env)
        worst = max(worst, err)
        j0_ok = j0_ok and err <= 1e-10

    ug = np.logspace(0.0, 3.0, 300)
    scaled = np.abs(bessel.bessel_remainder(0.0, ug)) * ug**1.5
    rem_ok = float(scaled.max()) <= 0.2
    zero_ok = bool(np.all(bessel.bessel_remainder(0.5, ug) == 0.0))
    _report(5, "bessel closed form, series oracle, remainder bounds",
            half_ok and j0_ok and rem_ok and zero_ok,
            f"J1/2 dev={half_dev:.1e}, J0 worst={worst:.1e}, |R|u^1.5 max={scaled.max():.3f}")


def test_criterion_06_decomposition():
    d, j = 3, 10
    params = wave.WaveParams(d=d, j=j, t_ref=1.0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        t = 1.0 + 0.1 + 0.85 * rng.random()
        rho = t - 1.0
        radii = rho + (rng.random(10) - 0.5) * 2.0**-j
        radii = np.clip(radii, params.min_asymptotic_r, None)
        row = wave.propagate(params, t, radii)
        tm, tp, tr = wave.main_terms_grid(params, t, radii)
        scale = float(np.abs(row.values).max())
        worst = max(worst, float(np.abs(row.values - (tm + tp + tr)).max()) / scale)
    deco_ok = worst <= 1e-5

    dom_ok = True
    window = 32.0 * 2.0**-j
    for frac in (0.5, 0.75, 1.0):
        t = 1.0 + frac * window
        rho = t - 1.0
        half = 2.0 ** (-j - 5)
        grid = np.linspace(rho - half, rho + half, 33)
        tm, tp, tr = wave.main_terms_grid(params, t, grid)
        mk = lambda v: wave.WaveFieldRow(t, grid, v, 0.0, params)
        n_minus = wave.shell_lp_norm(mk(tm), 4.0, (rho - half, rho + half))
        n_plus = wave.shell_lp_norm(mk(tp), 4.0, (rho - half, rho + half))
        n_rem = wave.shell_lp_norm(mk(tr), 4.0, (rho - half, rho + half))
        dom_ok = dom_ok and (n_plus + n_rem <= 0.5 * n_minus)
    _report(6, "two-term decomposition at j=10 and shell domination at M=32",
            deco_ok and dom_ok, f"identity worst={worst:.1e}, domination={dom_ok}")


@pytest.mark.parametrize(
    "name,descriptor,p,target",
    [
        ("point", FIVE_SETS["points"], 4.0, 2.0),
        ("interval", FIVE_SETS["interval"], 4.0, 2.0),
        ("interval", FIVE_SETS["interval"], 2.2, 1.0),
        ("cantor", FIVE_SETS["cantor"], 2.5, BETA),
    ],
)
def test_criterion_07_sharpness_slopes(name, descriptor, p, target):
    t0 = time.time()
    cfg = harness.ExperimentConfig(descriptor, d=3, p=p, j_min=8, j_max=13)
    report = harness.run_sharpness_slope(cfg)
    elapsed = time.time() - t0
    ok = abs(report.slope - target) <= 0.2 and elapsed <= 600.0
    _report(7, f"sharpness slope {name} p={p}", ok,
            f"slope={report.slope:.3f} target={target:.3f} predicted={report.predicted:.3f} ({elapsed:.0f}s)")


def test_criterion_08_data_norms():
    params = wave.WaveParams(d=3, j=10, t_ref=1.3)
    num = wave.data_norm(params, 2.0)
    ref = wave.data_norm_plancherel(params)
    p2_ok = abs(num - ref) <= 1e-3 * ref

    logs = []
    js = list(range(8, 13))
    for j in js:
        logs.append(math.log2(wave.data_norm(wave.WaveParams(d=3, j=j, t_ref=1.3), math.inf)))
    slope = float(np.polyfit(js, logs, 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1
    _report(8, "data norm oracle and sup-norm growth", p2_ok and slope_ok,
            f"p2 rel={abs(num - ref) / ref:.1e}, slope={slope:.3f}")


def test_criterion_09_bookkeeping():
    j, slack = 12, 1e-9
    ok = True
    worst = 0.0
    for descriptor in FIVE_SETS.values():
        rep = exponents.bookkeeping_sums(descriptor, j, 3, 4.0, 4.0, slack)
        ok = ok and rep.passes
        worst = max(worst, rep.kappa_ratio, rep.lambda_ratio)
        for p in (2.2, 2.5, 3.0, 3.5):
            rep = exponents.bookkeeping_sums(descriptor, j, 3, p, 4.0, slack)
            ok = ok and rep.passes
            worst = max(worst, rep.kappa_ratio, rep.lambda_ratio)
    _report(9, "kappa/lambda scale-sum ratios at j=12", ok, f"worst ratio={worst:.12f}")


def test_criterion_10_determinism(tmp_path):
    cantor = tmp_path / "cantor.json"
    cantor.write_text(sets.dumps(FIVE_SETS["cantor"]))
    point = tmp_path / "point.json"
    point.write_text(sets.dumps(FIVE_SETS["points"]))
    runs = []
    for tag in ("a", "b"):
        outs = {
            "dual": tmp_path / f"dual_{tag}.csv",
            "sharp": tmp_path / f"sharp_{tag}.json",
            "book": tmp_path / f"book_{tag}.csv",
        }
        assert cli.cli(["verify-duality", "--set", str(cantor), "--jmin", "11", "--jmax", "13",
                        "--seed", "7", "--out", str(outs["dual"])]) == 0
        assert cli.cli(["verify-sharpness", "--set", str(point), "--p", "4", "--jmin", "8",
                        "--jmax", "11", "--seed", "7", "--format", "json",
                        "--out", str(outs["sharp"])]) == 0
        assert cli.cli(["verify-bookkeeping", "--set", str(cantor), "--j", "12",
                        "--seed", "7", "--out", str(outs["book"])]) == 0
        runs.append({k: v.read_bytes() for k, v in outs.items()})
    ok = runs[0] == runs[1]
    _report(10, "verify-* outputs byte-identical under a fixed seed", ok)

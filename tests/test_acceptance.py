"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (run pytest with -s or read the
captured output) and asserts the same condition, so the suite doubles as a
human-readable checklist.  All expected values are recomputable from the
canonical family: upper (1, -x^{2k-1} + c x^{2k}) over lower
(-1, -x^{2k-1}), whose second displacement coefficient is 2c/(2k+1).
"""

import json
import time

import numpy as np
from filippov import (
    IntegratorConfig,
    UnfoldingParams,
    build_perturbation,
    classify_mts,
    cycle_census,
    cycle_producing_sign,
    displacement,
    estimate_lyapunov,
    half_arcs,
    lemma1_check,
    local_V2_limit_check,
    monodromic_family,
    pseudo_hopf_scan,
    verify_contact_ladder,
)
from filippov.cli import run
from filippov.unfold import build_unfolded

CFG = IntegratorConfig()


def report(criterion, ok, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _scenario(tmp_path, name, k, c, unfold=None, window=None):
    doc = {
        "name": name,
        "field": {
            "upper": {"X": [[0, 0, 1.0]],
                      "Y": [[2 * k - 1, 0, -1.0]]
                      + ([[2 * k, 0, float(c)]] if c else [])},
            "lower": {"X": [[0, 0, -1.0]], "Y": [[2 * k - 1, 0, -1.0]]},
        },
        "unfold": unfold,
        "window": window or {"center": 0.0, "radius": 0.3},
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion_1_closed_form_V2(tmp_path):
    """classify returns V2 = 2c/(2k+1) to 1e-10 for k in 1..3, three c."""
    t0 = time.time()
    worst = 0.0
    for k in (1, 2, 3):
        for c in (-1.0, 0.5, 1.0):
            path = _scenario(tmp_path, f"fam-{k}-{c}", k, c)
            code, rep = run(path, "classify")
            assert code == 0
            got = rep["payload"]["V2"]
            worst = max(worst, abs(got - 2.0 * c / (2 * k + 1)))
    elapsed = time.time() - t0
    report("C1 closed-form V2", worst < 1e-10 and elapsed < 1.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_displacement_consistency():
    """Numerical delta(x)/x^2 within 2% of V2 at x = 0.02."""
    t0 = time.time()
    devs = []
    for k in (1, 2):
        Z = monodromic_family(k, 1.0)
        ratio = displacement(Z, 0.02, CFG).delta_value / 0.02**2
        devs.append(abs(ratio / (2.0 / (2 * k + 1)) - 1.0))
    elapsed = time.time() - t0
    report("C2 displacement consistency",
           max(devs) < 0.02 and elapsed < 10.0,
           f"max rel dev {max(devs):.3%}, {elapsed:.2f}s")


def test_criterion_3_interpolation_construction():
    """Closed-form perturbation and coefficient-scaling exponents."""
    t0 = time.time()
    ok = True
    details = []
    for c in (1.0, 0.5, -1.0):
        Z = monodromic_family(2, c)
        for eps in (0.1, 0.01):
            polys = build_perturbation(
                Z, UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=eps))
            dev = max(
                abs(polys.p_plus.coeff(1) - eps**2),
                abs(polys.p_plus.coeff(2) + c * eps**2),
                abs(polys.p_minus.coeff(1) + eps**2),
                abs(polys.p_minus.coeff(2)))
            ok = ok and dev < 1e-10
            details.append(f"{dev:.1e}")
    # scaling exponents on a node set with no vanishing limit coefficient
    Zs = monodromic_family(2, 0.1)
    eps_grid = [2.0**-m for m in range(3, 8)]
    for j in (1, 2):
        mags = [abs(build_perturbation(
            Zs, UnfoldingParams(k=2, lam=(-1.0, 2.0), epsilon=e)).p_plus.coeff(j))
            for e in eps_grid]
        slope = float(np.polyfit(np.log(eps_grid), np.log(mags), 1)[0])
        ok = ok and abs(slope - (3 - j)) < 0.05
        details.append(f"slope_j{j}={slope:.3f}")
    elapsed = time.time() - t0
    report("C3 interpolation construction", ok and elapsed < 1.0,
           ", ".join(details[-2:]) + f", {elapsed:.2f}s")


def test_criterion_4_contact_ladder():
    """2k-1 multiplicity-2 contacts with the predicted visibility pattern."""
    t0 = time.time()
    ok = True
    for k, lam, eps in ((2, (-1.0, 1.0), 0.1), (3, (-1.0, 1.0, 2.0, 3.0), 0.05)):
        Z = monodromic_family(k, 1.0)
        params = UnfoldingParams(k=k, lam=lam, epsilon=eps)
        rep = verify_contact_ladder(
            build_unfolded(Z, build_perturbation(Z, params)), params)
        ok = ok and rep.ok and len(rep.contacts) == 2 * k - 1
        invisible = {r.index for r in rep.contacts if r.vis_plus == "invisible"}
        ok = ok and invisible == ({1} | set(range(2, 2 * k - 1, 2)))
    elapsed = time.time() - t0
    report("C4 contact ladder", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_5_local_V2_limit():
    """Per-contact V2 converges to (2k+1)V2/3 with order >= 0.9."""
    t0 = time.time()
    Z = monodromic_family(2, 1.0)
    params = UnfoldingParams(k=2, lam=(-1.0, 1.0), epsilon=0.1)
    rep = local_V2_limit_check(Z, params)
    ok = rep.ok and abs(rep.limit - 2.0 / 3.0) < 1e-12
    worst_dev = 0.0
    for row in rep.rows:
        ok = ok and row.fitted_order >= 0.9
        # value at the smallest epsilon (0.025) within 5% of the limit
        worst_dev = max(worst_dev, abs(row.values[-1] / rep.limit - 1.0))
    ok = ok and worst_dev < 0.05
    elapsed = time.time() - t0
    report("C5 local V2 limit", ok and elapsed < 5.0,
           f"orders {[f'{r.fitted_order:.2f}' for r in rep.rows]}, "
           f"dev {worst_dev:.3%}, {elapsed:.2f}s")


def test_criterion_6_identity_residuals():
    """Identity-system residuals below 1e-8 over 50 seeded random draws."""
    t0 = time.time()
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        n = 2 * k - 2
        while True:
            lam = [float(a) for a in rng.uniform(-3.0, 3.0, size=n)]
            if all(abs(a) >= 0.2 for a in lam) and all(
                    abs(lam[i] - lam[j]) >= 0.2
                    for i in range(n) for j in range(i + 1, n)):
                break
        rep = lemma1_check(monodromic_family(k, 1.0), k, lam)
        worst = max(worst, rep.max_residual())
    elapsed = time.time() - t0
    report("C6 identity residuals", worst < 1e-8 and elapsed < 30.0,
           f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_splitting_dichotomy_and_amplitude():
    """Exactly one sign of b produces one unstable cycle; amplitude law."""
    t0 = time.time()
    Z = monodromic_family(1, 1.0)
    data = classify_mts(Z)
    good = cycle_producing_sign(data.delta, data.V2, "minus")
    bs = [good * m for m in (1e-5, 1e-4, 1e-3)] + \
         [-good * m for m in (1e-5, 1e-4, 1e-3)]
    table = pseudo_hopf_scan(Z, bs, "minus", CFG)
    rows = {r.b: r for r in table.rows}
    ok = all(rows[b].n_cycles == 1 for b in bs[:3])
    ok = ok and all(rows[b].n_cycles == 0 for b in bs[3:])
    ok = ok and all(rows[b].stability == "unstable" for b in bs[:3])
    ok = ok and all(rows[b].sliding_kind.endswith("sliding") for b in bs[:3])
    ratios = []
    for b in bs[:3]:
        if abs(b) <= 1e-4:
            ratios.append(rows[b].amplitude / np.sqrt(3 * abs(b)))
    ok = ok and all(0.9 <= r <= 1.1 for r in ratios)
    amps = [rows[b].amplitude for b in bs[:3]]
    slope = float(np.polyfit(np.log([abs(b) for b in bs[:3]]),
                             np.log(amps), 1)[0])
    ok = ok and abs(slope - 0.5) <= 0.02
    elapsed = time.time() - t0
    report("C7 splitting dichotomy and amplitude",
           ok and elapsed < 120.0,
           f"slope {slope:.4f}, ratios {[f'{r:.3f}' for r in ratios]}, "
           f"{elapsed:.1f}s")


def test_criterion_8_census_end_to_end():
    """k hyperbolic unstable cycles, one sliding segment each; none for the
    opposite sign."""
    t0 = time.time()
    ok = True
    details = []
    for k, lam, eps, mag in (
            (2, (-1.0, 1.0), 0.1, 1e-6),
            (3, (-1.0, 1.0, 2.0, 3.0), 0.05, 1e-8)):
        Z = monodromic_family(k, 1.0)
        data = classify_mts(Z)
        good = cycle_producing_sign(data.delta, data.V2, "minus")
        params = UnfoldingParams(k=k, lam=lam, epsilon=eps, b=good * mag,
                                 shift_convention="minus")
        rep = cycle_census(Z, params, CFG)
        ok = ok and rep.passed and len(rep.cycles) == k
        ok = ok and all(c.stability == "unstable" for c in rep.cycles)
        ok = ok and all(c.enclosed_segment is not None for c in rep.cycles)
        bad = cycle_census(
            Z, UnfoldingParams(k=k, lam=lam, epsilon=eps, b=-good * mag,
                               shift_convention="minus"), CFG)
        ok = ok and not bad.passed and len(bad.cycles) == 0
        details.append(f"k={k}: {len(rep.cycles)} cycles")
    elapsed = time.time() - t0
    report("C8 census end-to-end", ok and elapsed < 300.0,
           ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_structural_properties(tmp_path):
    """Involutions, center detection, even orders, CLI contracts."""
    t0 = time.time()
    ok = True
    details = []

    def half_returns(field, sigma, xs):
        return [phi for phi, _ in half_arcs(
            [(field, sigma, float(x), None) for x in xs], CFG, returns=True)]

    worst_inv = 0.0
    xs = np.linspace(0.03, 0.3, 10)
    for k in (1, 2):
        for _, sigma, field in monodromic_family(k, 1.0).sides():
            back = half_returns(field, sigma, half_returns(field, sigma, xs))
            worst_inv = max(worst_inv, float(np.max(np.abs(back - xs))))
    ok = ok and worst_inv < 1e-7
    details.append(f"involution {worst_inv:.1e}")

    for k in (1, 2):
        Zc = monodromic_family(k, 0.0)
        flat = max(abs(displacement(Zc, x, CFG).delta_value)
                   for x in (-0.3, -0.1, 0.1, 0.3))
        ok = ok and flat < 1e-8
        est = estimate_lyapunov(Zc, (0.005, 0.05), CFG)
        ok = ok and est.center
    details.append("centers detected")

    for k in (1, 2, 3):
        est = estimate_lyapunov(monodromic_family(k, 1.0), (0.005, 0.05), CFG)
        ok = ok and est.order % 2 == 0 and est.order > 0
    details.append("even orders")

    # CLI determinism and exit-code contract
    path = _scenario(tmp_path, "struct", 2, 1.0,
                     unfold={"k": 2, "lambda": [-1.0, 1.0], "epsilon": 0.1,
                             "b": -1e-6, "shift": "minus"})
    run(path, "classify")
    first = (tmp_path / "out" / "struct.classify.json").read_text()
    run(path, "classify")
    second = (tmp_path / "out" / "struct.classify.json").read_text()
    strip = lambda text: [ln for ln in text.splitlines()
                          if '"timestamp"' not in ln]
    ok = ok and strip(first) == strip(second)
    ok = ok and run(path, "cycles")[0] == 0
    ok = ok and run(path, "cycles", b=1e-6)[0] == 3
    ok = ok and run(path, "verify-lemma1", gate=1e-30)[0] == 3
    bad_path = _scenario(tmp_path, "badc3", 1, 1.0)
    doc = json.loads(open(bad_path).read())
    doc["field"]["lower"]["X"] = [[0, 0, 1.0]]
    doc["field"]["lower"]["Y"] = [[1, 0, 1.0]]
    open(bad_path, "w").write(json.dumps(doc))
    ok = ok and run(bad_path, "classify")[0] == 1
    details.append("cli contracts")

    elapsed = time.time() - t0
    report("C9 structural properties", ok and elapsed < 60.0,
           ", ".join(details) + f", {elapsed:.1f}s")

"""Acceptance gate: one test per criterion, tolerances pinned up front.

Each criterion prints a `criterion N: PASS/FAIL` line with the measured
values before asserting, so the suite output doubles as the acceptance
record.  Two clauses are stated in the form the true kernels can meet:

  * criterion 3, square floor: the square kernel tends to 0 at the
    corners, so the 0.05 floor is asserted over the region where the
    verdict's lobe-depth rule admits a zero, not over the whole square.
  * criterion 4, final-error clause: the depth-0.05 member is the
    0.95-disc, whose kernel differs from the unit-disc kernel by ~0.45 on
    the stated compact set.  That domain gap is taken from closed forms and
    only the remainder is held to twice the criterion-1 error.

The criterion-4 clause stays red under the tolerance_gap marker (the
README's "known tolerance gaps" section carries the analysis).
"""

import time

import numpy as np
import pytest

from blab import basis as bs
from blab import kernel as kn
from blab import lab
from blab import zeros as zr
from blab.geom import (
    annulus,
    disc,
    make_domain,
    rectangle,
    reinhardt_profile,
    union,
)
from blab.geom import difference, distance_field, is_logconvex_profile, rho1, rho2

H_FINE = 0.005


def report_line(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def disc_fit_10():
    U = make_domain(disc(0, 1), h=H_FINE)
    return kn.fit_kernel(U, bs.monomials(0, 10))


@pytest.fixture(scope="module")
def annulus_fit_12():
    U = make_domain(annulus(0, 0.5, 1), h=H_FINE)
    return kn.fit_kernel(U, bs.laurent(0, 12, 12))


@pytest.fixture(scope="module")
def square_fit_12():
    U = make_domain(rectangle((-0.5, -0.5), (0.5, 0.5)), h=H_FINE)
    return kn.fit_kernel(U, bs.monomials(0, 12))


# ---------------------------------------------------------------------------
# criterion 1: disc kernel accuracy
# ---------------------------------------------------------------------------

def test_criterion_1_disc_accuracy():
    t0 = time.perf_counter()
    U = make_domain(disc(0, 1), h=H_FINE)
    model = kn.fit_kernel(U, bs.monomials(0, 10))
    ref = kn.closed_form(disc(0, 1), truncation=10, h=H_FINE)
    err = kn.kernel_error([model], ref, margin=0.2)[0]
    k00 = model.eval(0, 0).real
    k00_err = abs(k00 - 1 / np.pi)
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-2 and k00_err <= 1e-3 and elapsed < 30
    report_line(1, ok, f"kernel_error {err:.3e} vs 1e-2, |K(0,0)-1/pi| "
                       f"{k00_err:.3e} vs 1e-3, runtime {elapsed:.1f}s vs 30s")
    assert err <= 1e-2
    assert k00_err <= 1e-3
    assert elapsed < 30


# ---------------------------------------------------------------------------
# criterion 2: annulus zero, matched truncations agree
# ---------------------------------------------------------------------------

def test_criterion_2_annulus_zero(annulus_fit_12):
    w0 = 0.8
    assert 0.6 < w0 < 0.95 and w0 == float(w0)
    matched_cf = kn.closed_form(annulus(0, 0.5, 1), truncation=12, h=H_FINE)
    certs = {}
    for name, model in (("closed-form", matched_cf), ("fitted", annulus_fit_12)):
        scan = zr.scan_min_modulus(model, w0, stride=4)
        z_star = zr.refine_minimum(model, w0, scan.candidates[0][0], H_FINE)
        cert = zr.certify_zero(model, w0, z_star)
        assert cert is not None, f"{name} model failed to certify"
        certs[name] = cert
    gap = abs(certs["fitted"].z_star - certs["closed-form"].z_star)
    ok = all(c.winding == 1 for c in certs.values()) and gap < 0.02
    report_line(2, ok, f"windings {[c.winding for c in certs.values()]}, "
                       f"z* gap {gap:.4f} vs 0.02")
    for cert in certs.values():
        assert cert.winding == 1
        cert.validate()
    assert gap < 0.02


# ---------------------------------------------------------------------------
# criterion 3: simply connected vs multiply connected verdicts
# ---------------------------------------------------------------------------

def test_criterion_3_disc_verdict(disc_fit_10):
    verdict = zr.lu_qi_keng_verdict(disc_fit_10)
    ok = (not verdict.certified) and verdict.floor >= 0.05
    report_line("3 (disc)", ok,
                f"{verdict.status}, floor {verdict.floor:.4f} vs 0.05")
    assert not verdict.certified
    assert verdict.floor >= 0.05


def test_criterion_3_square_verdict_tag(square_fit_12):
    verdict = zr.lu_qi_keng_verdict(square_fit_12)
    report_line("3 (square tag)", not verdict.certified,
                f"{verdict.status}, floor {verdict.floor:.4f}")
    assert not verdict.certified, (
        "square verdict must not certify (truncation artifacts are screened "
        "by the lobe-depth rule)")


def test_criterion_3_square_floor(square_fit_12):
    """Floor 0.05 on the unit square, where a zero could be certified.

    The square kernel tends to 0 at the four corners (the Riemann map
    derivative vanishes there), so its infimum over the square is 0 and a
    full-domain scan floor only measures how close the scan gets to a
    corner.  The clause checks that the no-zero-found verdict is not a near
    miss: the floor is taken over the cells the lobe-depth rule admits,
    depth >= LOBE_GAMMA x the maximum depth.  On the square that region is
    a box, passed to the verdict as its scan_bbox.
    """
    dom = square_fit_12.domain
    depth = distance_field(dom)
    admitted = depth >= zr.LOBE_GAMMA * depth.max()
    pts = dom.centers_of(admitted)
    bbox = (pts.real.min(), pts.imag.min(), pts.real.max(), pts.imag.max())
    grid = dom.centers_x[:, None] + 1j * dom.centers_y[None, :]
    in_box = ((grid.real >= bbox[0]) & (grid.real <= bbox[2])
              & (grid.imag >= bbox[1]) & (grid.imag <= bbox[3]))
    assert (in_box == admitted).all(), "admitted region is not a box"

    verdict = zr.lu_qi_keng_verdict(square_fit_12,
                                    zr.ProbeConfig(scan_bbox=bbox))
    ok = (not verdict.certified) and verdict.floor >= 0.05
    report_line("3 (square floor)", ok,
                f"{verdict.status}, floor {verdict.floor:.4f} vs 0.05 on "
                f"[{bbox[0]:.4f}, {bbox[2]:.4f}] x [{bbox[1]:.4f}, {bbox[3]:.4f}]")
    assert not verdict.certified
    assert verdict.floor >= 0.05, f"measured floor {verdict.floor:.4f}"


def test_criterion_3_annulus_verdict(annulus_fit_12):
    verdict = zr.lu_qi_keng_verdict(annulus_fit_12)
    report_line("3 (annulus)", verdict.certified, verdict.status)
    assert verdict.certified
    verdict.certificate.validate()


# ---------------------------------------------------------------------------
# criterion 4: stability along the disc exhaustion
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exhaustion_report():
    cfg = lab.config_from_dict({
        "experiment": "exhaustion", "h": H_FINE,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [0, 10], "depths": [0.2, 0.1, 0.05]})
    return lab.run_exhaustion(cfg)


def test_criterion_4_errors_strictly_decreasing(exhaustion_report):
    errs = [r["kernel_error"] for r in exhaustion_report.rows]
    ok = all(a > b for a, b in zip(errs, errs[1:]))
    report_line("4 (decreasing)", ok, f"errors {['%.4g' % e for e in errs]}")
    assert ok


@pytest.mark.tolerance_gap
def test_criterion_4_final_error_bound(exhaustion_report):
    """Final exhaustion error, net of the domain gap, within 2x the
    criterion-1 error.

    The depth-0.05 member is the 0.95-disc, and Ramadanov convergence holds
    only as the depth goes to 0: on the d > 0.3 compact set the 0.95-disc
    and unit-disc kernels differ by ~0.45.  That gap is taken from closed
    forms (both truncated at degree 10) on the report's own probe lattice,
    and |final - gap| is held to 2 x e1.

    Red: the member is a level set of the staircase distance field, so its
    area radius is 0.95055, not 0.95, and the kernel moves by ~12 per unit
    radius on this compact set.  That leaves |final - gap| ~ 7.8e-3 against
    2 x e1 ~ 3.9e-4.  Closing it needs boundary-accurate weights on
    exhaustion members.
    """
    U = make_domain(disc(0, 1), h=H_FINE)
    model = kn.fit_kernel(U, bs.monomials(0, 10))
    ref = kn.closed_form(disc(0, 1), truncation=10, h=H_FINE)
    e1 = kn.kernel_error([model], ref, margin=0.2)[0]
    last = exhaustion_report.rows[-1]
    final = last["kernel_error"]
    inner = kn.DiscKernel(0, 1 - last["depth"], 10)
    gap = kn.kernel_error([inner], ref,
                          margin=exhaustion_report.metadata["compact_margin"],
                          domain=ref.domain)[0]
    ok = abs(final - gap) <= 2 * e1
    detail = (f"final {final:.4g}, gap {gap:.4g}, |final - gap| "
              f"{abs(final - gap):.4g} vs 2 x e1 {2 * e1:.4g}")
    report_line("4 (final bound)", ok, detail)
    assert abs(final - gap) <= 2 * e1, detail


# ---------------------------------------------------------------------------
# criterion 5: barbell persistence
# ---------------------------------------------------------------------------

def test_criterion_5_barbell_persistence():
    t0 = time.perf_counter()
    cfg = lab.config_from_dict({
        "experiment": "barbell", "h": 0.01,
        "shapes": {"left": disc(-2, 1), "right": annulus(2, 0.5, 1)},
        "basis_window": [10, 10], "widths": [0.4, 0.2, 0.1, 0.05]})
    report = lab.run_barbell(cfg)
    elapsed = time.perf_counter() - t0
    rho2s = [r["rho2_to_union"] for r in report.rows]
    decreasing = all(a > b for a, b in zip(rho2s, rho2s[1:]))
    thinnest_certified = all(r["certified"] for r in report.rows[-2:])
    ok = decreasing and thinnest_certified and report.passed and elapsed < 300
    report_line(5, ok, f"rho2 {['%.4g' % v for v in rho2s]}, certified "
                       f"{[r['certified'] for r in report.rows]}, "
                       f"runtime {elapsed:.0f}s vs 300s")
    assert decreasing
    assert thinnest_certified, "the two thinnest necks must certify"
    assert report.passed, report.assertions
    for cert in report.certificates.values():
        cert.validate()
    assert elapsed < 300


# ---------------------------------------------------------------------------
# criterion 6: nowhere-density construction
# ---------------------------------------------------------------------------

def test_criterion_6_nowhere_density():
    cfg = lab.config_from_dict({
        "experiment": "nowhere-density", "h": 0.004,
        "shapes": {"target": disc(0, 1)},
        "basis_window": [8, 10], "delta": 0.5, "connected": True})
    report = lab.run_nowhere_density(cfg)
    r1 = next(r for r in report.rows if r["step"] == "join")["rho1_to_target"]
    cert = report.certificates.get("final")
    ok = report.passed and r1 < 0.5 and cert is not None
    report_line(6, ok, f"rho1(result, disc) {r1:.4f} vs 0.5, "
                       f"certificate {'present' if cert else 'missing'}")
    assert report.passed, report.assertions
    assert r1 < 0.5
    assert cert is not None
    cert.validate()


# ---------------------------------------------------------------------------
# criterion 7: metric properties and the slit/tail demos
# ---------------------------------------------------------------------------

def test_criterion_7_metric_properties():
    import itertools

    h = 0.04
    family = [
        make_domain(disc(0, 1), h=h),
        make_domain(annulus(0, 0.5, 1), h=h),
        make_domain(rectangle((-0.7, -0.7), (0.7, 0.7)), h=h),
        make_domain(difference(disc(0, 1), rectangle((0, 0), (1, h))), h=h),
        make_domain(union(rectangle((-1, -1), (0, 0)),
                          rectangle((0.4, 0.4), (1, 1))), h=h),
        make_domain(disc(0.3 + 0.1j, 0.9), h=h),
    ]
    failures = []
    for metric in (rho1, rho2):
        dist = {}
        for i in range(6):
            if metric(family[i], family[i]) != 0.0:
                failures.append(f"{metric.__name__} identity {i}")
            for j in range(i + 1, 6):
                dij = metric(family[i], family[j])
                dji = metric(family[j], family[i])
                if dij != dji:
                    failures.append(f"{metric.__name__} symmetry {i}{j}")
                dist[(i, j)] = dist[(j, i)] = dij
        triples = list(itertools.combinations(range(6), 3))
        assert len(triples) == 20
        for a, b, c in triples:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                if dist[(x, y)] > dist[(x, z)] + dist[(z, y)] + 4 * h:
                    failures.append(f"{metric.__name__} triangle {x}{y}{z}")

    demo = lab.run_metric_demo(lab.config_from_dict(
        {"experiment": "metric-demo", "h": 0.01}))
    ok = not failures and demo.passed
    report_line(7, ok, f"metric failures {failures or 'none'}, demo "
                       f"{'passed' if demo.passed else 'failed'}")
    assert not failures
    assert demo.passed, demo.assertions


# ---------------------------------------------------------------------------
# criterion 8: kernel algebra on >= 1000 probe pairs across 4 domains
# ---------------------------------------------------------------------------

def test_criterion_8_kernel_algebra():
    h = 0.01
    domains = {
        "disc": (make_domain(disc(0, 1), h=h), bs.monomials(0, 8),
                 bs.monomials(0, 12)),
        "annulus": (make_domain(annulus(0, 0.5, 1), h=h), bs.laurent(0, 8, 8),
                    bs.laurent(0, 12, 12)),
        "square": (make_domain(rectangle((-0.5, -0.5), (0.5, 0.5)), h=h),
                   bs.monomials(0, 8), bs.monomials(0, 12)),
        "two_discs": (make_domain(union(disc(-2, 0.8), disc(2, 0.8)), h=h),
                      bs.monomials(0, 8), bs.monomials(0, 12)),
    }
    n_pairs = 300
    total = 0
    worst_herm = 0.0
    worst_cs = 0.0
    worst_extremal = 0.0
    worst_growth = np.inf
    cross_ok = True
    for name, (dom, basis_small, basis_large) in domains.items():
        model = kn.fit_kernel(dom, basis_small)
        large = kn.fit_kernel(dom, basis_large)
        rng = np.random.default_rng(808)
        cells = dom.centers_of(dom.mask)
        zs = cells[rng.choice(cells.size, size=n_pairs)]
        ws = cells[rng.choice(cells.size, size=n_pairs)]
        total += n_pairs

        dz = model.diagonal(zs)
        dw = model.diagonal(ws)
        assert (dz > 0).all() and (dw > 0).all(), f"{name}: diagonal positivity"

        labels_z = dom.labels_at(zs)
        labels_w = dom.labels_at(ws)
        for z, w, a, b, lz, lw in zip(zs, ws, dz, dw, labels_z, labels_w):
            kzw = model.eval(z, w)
            kwz = model.eval(w, z)
            scale = np.sqrt(a * b)
            worst_herm = max(worst_herm, abs(kzw - np.conj(kwz)) / scale)
            worst_cs = max(worst_cs, (abs(kzw) ** 2 - a * b) / (a * b))
            if (lz != lw) != (kzw == 0.0):
                cross_ok = False

        for z in zs[:40]:
            value, _ = kn.extremal_value(model, z)
            diag = float(model.diagonal(np.array([z]))[0])
            worst_extremal = max(worst_extremal, abs(value - diag) / diag)

        d_small = model.diagonal(zs)
        d_large = large.diagonal(zs)
        worst_growth = min(worst_growth, float((d_large - d_small).min()))

    ok = (worst_herm <= 1e-12 and worst_cs <= 1e-12
          and worst_extremal <= 1e-8 and worst_growth >= -1e-9 and cross_ok)
    report_line(8, ok, f"{total} pairs: hermitian {worst_herm:.2e}, "
                       f"cauchy-schwarz excess {worst_cs:.2e}, extremal "
                       f"{worst_extremal:.2e}, growth min {worst_growth:.2e}, "
                       f"cross-component {'ok' if cross_ok else 'violated'}")
    assert total >= 1000
    assert worst_herm <= 1e-12
    assert worst_cs <= 1e-12
    assert worst_extremal <= 1e-8
    assert worst_growth >= -1e-9
    assert cross_ok


# ---------------------------------------------------------------------------
# criterion 9: C^2 product check
# ---------------------------------------------------------------------------

def test_criterion_9_product_reinhardt():
    profile = make_domain(reinhardt_profile(rectangle((0.5, 0), (1, 1))), h=0.01)
    logconvex = is_logconvex_profile(profile)
    model = kn.fit_kernel(profile, bs.reinhardt_window(-8, 8, 8))
    prod = kn.closed_form({"shape": "product",
                           "factors": [annulus(0, 0.5, 1), disc(0, 1)]},
                          truncation=8)
    err = kn.kernel_error_c2(model, prod, margin=0.08)

    sl = model.slice_fixed_last(0.4)
    verdict = zr.lu_qi_keng_verdict(
        sl, zr.ProbeConfig(w0_points=(0.75 + 0j, 0.8 + 0j), seed=11))
    ok = logconvex and err <= 1e-2 and verdict.certified
    report_line(9, ok, f"log-convex {logconvex}, product error {err:.3e} vs "
                       f"1e-2, slice verdict {verdict.status}")
    assert logconvex
    assert err <= 1e-2
    assert verdict.certified
    verdict.certificate.validate()

"""Independent scalar re-implementations used as test oracles.

Everything here is written against the defining formulas with mpmath
extended precision (50 digits), deliberately avoiding the package's numpy
code paths.  Values returned are mpmath floats; tests compare after
conversion to float64.  The exception is the samplers at the end, written
with numpy as plain whole draws: `whole_primitives` draws n states in one
go (the random-state sampler of the test modules), and
`whole_subsonic_corners` follows the `verify` corner sampler's chunk rule.
Called in the suites' order, `whole_primitives` once per chunk, they give
bit for bit the samples that the `verify` suites draw chunk by chunk.
"""

import mpmath as mp
import numpy as np

from rhd2d import physics, riemann

mp.mp.dps = 50


def lorentz(vx, vy):
    vx, vy = mp.mpf(vx), mp.mpf(vy)
    return 1 / mp.sqrt(1 - vx * vx - vy * vy)


def thermo(rho, p, gamma):
    rho, p, gamma = mp.mpf(rho), mp.mpf(p), mp.mpf(gamma)
    e = p / ((gamma - 1) * rho)
    h = 1 + e + p / rho
    cs = mp.sqrt(gamma * p / (rho * h))
    return e, h, cs


def prim_to_cons(prim, gamma):
    rho, vx, vy, p = (mp.mpf(v) for v in prim)
    gam = lorentz(vx, vy)
    _, h, _ = thermo(rho, p, gamma)
    wtot = rho * h * gam * gam
    return [rho * gam, wtot * vx, wtot * vy, wtot - p]


def flux(prim, gamma, axis):
    rho, vx, vy, p = (mp.mpf(v) for v in prim)
    cons = prim_to_cons(prim, gamma)
    u_n = (vx, vy)[axis]
    out = [c * u_n for c in cons]
    out[1 + axis] += p
    out[3] += p * u_n
    return out


def eigenvalues(prim, gamma, axis):
    rho, vx, vy, p = (mp.mpf(v) for v in prim)
    _, _, cs = thermo(rho, p, gamma)
    u_n = (vx, vy)[axis]
    speed_sq = vx * vx + vy * vy
    cs2 = cs * cs
    root = cs * mp.sqrt(1 - speed_sq) * mp.sqrt(1 - u_n * u_n - cs2 * (speed_sq - u_n * u_n))
    den = 1 - cs2 * speed_sq
    return (u_n * (1 - cs2) - root) / den, u_n, u_n, (u_n * (1 - cs2) + root) / den


def pair_speeds(prim_l, prim_r, gamma, axis, alpha=2):
    lam_l = eigenvalues(prim_l, gamma, axis)
    lam_r = eigenvalues(prim_r, gamma, axis)
    return alpha * min(lam_l[0], lam_r[0]), alpha * max(lam_l[3], lam_r[3])


def _f64(values):
    """Round to float64: combination oracles take the same inputs the
    library combines, then evaluate the combination itself exactly."""
    return [mp.mpf(float(v)) for v in values]


def hll_flux(prim_l, prim_r, gamma, axis, s_minus, s_plus):
    """Clipped HLL flux (S_R+ F_L - S_L- F_R + S_L- S_R+ (U_R - U_L)) / span."""
    sl = min(mp.mpf(s_minus), mp.mpf(0))
    sr = max(mp.mpf(s_plus), mp.mpf(0))
    f_l = flux(prim_l, gamma, axis)
    f_r = flux(prim_r, gamma, axis)
    f_l, f_r = _f64(f_l), _f64(f_r)
    if sl == 0 and sr == 0:
        return f_l
    if sl == 0:
        return f_l
    if sr == 0:
        return f_r
    u_l = _f64(prim_to_cons(prim_l, gamma))
    u_r = _f64(prim_to_cons(prim_r, gamma))
    return [
        (sr * fl - sl * fr + sl * sr * (ur - ul)) / (sr - sl)
        for fl, fr, ul, ur in zip(f_l, f_r, u_l, u_r)
    ]


def hll_state(prim_l, prim_r, gamma, axis, s_minus, s_plus):
    sl, sr = mp.mpf(s_minus), mp.mpf(s_plus)
    f_l = _f64(flux(prim_l, gamma, axis))
    f_r = _f64(flux(prim_r, gamma, axis))
    u_l = _f64(prim_to_cons(prim_l, gamma))
    u_r = _f64(prim_to_cons(prim_r, gamma))
    return [
        (sr * ur - sl * ul + fl - fr) / (sr - sl)
        for fl, fr, ul, ur in zip(f_l, f_r, u_l, u_r)
    ]


def corner_speeds(prims, gamma, alpha=2):
    """(s_l, s_r, s_d, s_u) over the (ld, rd, lu, ru) primitive quadruple."""
    lam_x = [eigenvalues(p, gamma, 0) for p in prims]
    lam_y = [eigenvalues(p, gamma, 1) for p in prims]
    return (
        alpha * min(l[0] for l in lam_x),
        alpha * max(l[3] for l in lam_x),
        alpha * min(l[0] for l in lam_y),
        alpha * max(l[3] for l in lam_y),
    )


def hll_flux_from_states(u_l, f_l, u_r, f_r, s_minus, s_plus):
    """Clipped HLL flux combining given float64 constituents exactly."""
    sl = min(mp.mpf(s_minus), mp.mpf(0))
    sr = max(mp.mpf(s_plus), mp.mpf(0))
    f_l, f_r, u_l, u_r = _f64(f_l), _f64(f_r), _f64(u_l), _f64(u_r)
    if sl == 0:
        return f_l
    if sr == 0:
        return f_r
    return [
        (sr * fl - sl * fr + sl * sr * (ur - ul)) / (sr - sl)
        for fl, fr, ul, ur in zip(f_l, f_r, u_l, u_r)
    ]


def corner_state_from_states(u, fx, fy, speeds):
    """Four-state fan intermediate state from float64 constituents.

    `u`, `fx`, `fy` are dicts with keys ld, rd, lu, ru of 4-vectors.
    """
    s_l, s_r, s_d, s_u = (mp.mpf(s) for s in speeds)
    u = {k: _f64(v) for k, v in u.items()}
    fx = {k: _f64(v) for k, v in fx.items()}
    fy = {k: _f64(v) for k, v in fy.items()}
    span = (s_r - s_l) * (s_u - s_d)
    out = []
    for m in range(4):
        states = (
            s_r * s_u * u["ru"][m]
            + s_l * s_d * u["ld"][m]
            - s_r * s_d * u["rd"][m]
            - s_l * s_u * u["lu"][m]
        )
        xpart = s_u * (fx["ru"][m] - fx["lu"][m]) - s_d * (fx["rd"][m] - fx["ld"][m])
        ypart = s_r * (fy["ru"][m] - fy["rd"][m]) - s_l * (fy["lu"][m] - fy["ld"][m])
        out.append((states - xpart - ypart) / span)
    return out


def corner_fluxes_from_states(u, fx, fy, speeds):
    """(flux_x, flux_y) of the corner fan from float64 constituents."""
    s_l, s_r, s_d, s_u = (mp.mpf(s) for s in speeds)
    slm, srp = min(s_l, mp.mpf(0)), max(s_r, mp.mpf(0))
    sdm, sup = min(s_d, mp.mpf(0)), max(s_u, mp.mpf(0))
    f_up = hll_flux_from_states(u["lu"], fx["lu"], u["ru"], fx["ru"], s_l, s_r)
    f_down = hll_flux_from_states(u["ld"], fx["ld"], u["rd"], fx["rd"], s_l, s_r)
    g_right = hll_flux_from_states(u["rd"], fy["rd"], u["ru"], fy["ru"], s_d, s_u)
    g_left = hll_flux_from_states(u["ld"], fy["ld"], u["lu"], fy["lu"], s_d, s_u)
    fx = {k: _f64(v) for k, v in fx.items()}
    fy = {k: _f64(v) for k, v in fy.items()}
    out_x, out_y = [], []
    for m in range(4):
        dg = fy["ru"][m] - fy["rd"][m] - fy["lu"][m] + fy["ld"][m]
        df = fx["ru"][m] - fx["rd"][m] - fx["lu"][m] + fx["ld"][m]
        out_x.append(
            (sup * f_up[m] - sdm * f_down[m] - (slm * srp / (srp - slm)) * dg) / (sup - sdm)
        )
        out_y.append(
            (srp * g_right[m] - slm * g_left[m] - (sdm * sup / (sup - sdm)) * df) / (srp - slm)
        )
    return out_x, out_y


def corner_constituents(corners):
    """(u, fx, fy) dicts of a corner batch's (U, F, G) triples (library values)."""
    keys = ("ld", "rd", "lu", "ru")
    return tuple({key: triple[m] for key, triple in zip(keys, corners)} for m in range(3))


def pressure_root(cons, gamma):
    """Solve the pressure equation for a conserved 4-vector at high precision."""
    dens, mx, my, energy = (mp.mpf(v) for v in cons)
    m_sq = mx * mx + my * my
    a = gamma / (gamma - 1)

    def psi(p):
        w = energy + p
        gam_sq = 1 / (1 - m_sq / (w * w))
        return dens * mp.sqrt(gam_sq) + a * p * gam_sq - w

    hi = (mp.mpf(gamma) - 1) * (energy - dens)
    lo = mp.mpf(1e-40)
    if psi(hi) == 0:
        return hi
    return mp.findroot(psi, max(hi / 2, lo), solver="secant", tol=1e-60)


def whole_primitives(rng, n, *, rho_decades=(-10.0, 2.0), p_max_decade=3.0, p_min=1e-12,
                     gamma_cap=None, guard=4.0e3, rho_center=None):
    """n random valid primitive states from rng (any bit generator): the six
    draws of `verification._primitives`, in its order, each of n values."""
    dec = rng.uniform(*rho_decades, n)
    rho = 10.0 ** (dec if rho_center is None else rho_center + dec)

    speed_max = 1.0 - 1e-8
    if gamma_cap is not None:
        speed_max = min(speed_max, np.sqrt(1.0 - 1.0 / gamma_cap**2))
    tail = rng.random(n) < 0.5
    speed = np.where(
        tail,
        1.0 - 10.0 ** rng.uniform(np.log10(1.0 - speed_max), 0.0, n),
        rng.uniform(0.0, speed_max, n),
    )
    angle = rng.uniform(0.0, 2.0 * np.pi, n)

    gamma_sq = 1.0 / ((1.0 - speed) * (1.0 + speed))
    floor = np.maximum(p_min, rho * gamma_sq * np.finfo(float).eps * guard)
    p = 10.0 ** rng.uniform(np.log10(floor), p_max_decade, n)
    return physics.primitive(rho, speed * np.cos(angle), speed * np.sin(angle), p)


def whole_subsonic_corners(rng, n, eos, alpha, chunk, **sample_kwargs):
    """The primitives (ld, rd, lu, ru) and fan speeds (s_left, s_right,
    s_down, s_up) of the first n two-sided corner quadruples of batches of
    `chunk` lanes drawn until there are n: the chunk rule of
    `verification._subsonic_corners`."""
    prims, speeds, kept = [np.empty((n, 4)) for _ in range(4)], [np.empty(n) for _ in range(4)], 0
    while kept < n:
        centers = rng.uniform(-6.0, 1.0, chunk)
        batch = [whole_primitives(rng, chunk, rho_decades=(-1.0, 1.0), rho_center=centers,
                                  **sample_kwargs) for _ in range(4)]
        lams = [physics.extreme_speeds(prim, eos) for prim in batch]
        s_l, s_r = riemann.fan_speeds(*zip(*(lam[0] for lam in lams)), alpha)
        s_d, s_u = riemann.fan_speeds(*zip(*(lam[1] for lam in lams)), alpha)
        take = np.flatnonzero((s_l < 0.0) & (s_r > 0.0) & (s_d < 0.0) & (s_u > 0.0))[:n - kept]
        for out, lanes in zip(prims + speeds, batch + [s_l, s_r, s_d, s_u]):
            out[kept:kept + take.size] = lanes[take]
        kept += take.size
    return prims, speeds

"""Closed-form oracles and correctness gates of the benchmark.

Every formula here is the benchmark's own: no gate calls back into
``emdenlab`` to decide whether ``emdenlab`` was right.  A gate returns
``None`` when the answer passes and a one-line reason when it does not;
a reason makes the operation a failure of type ``GateMiss``.

Notation follows the package README: N' = N + theta, tau = l - theta,
m = (2 + tau)/(p - 1), f(p) = p m (N' - 2 - m), level = (N' - 2)^2 / 4.
"""

from __future__ import annotations

import json
import math

#: |f(p) - level| allowed at a reported critical power.
ROOT_RESIDUAL_TOL = 1e-10
#: |A / c0 - 1| allowed for a shooting run.
C0_TOL = 1e-6
#: Max relative deviation of rescale(shoot(1), 2) from shoot(2).
RESCALE_TOL = 1e-6
#: Relative slack below the Hardy lower bound and width of the band above it.
HARDY_LOWER_SLACK = 1e-12
HARDY_UPPER_REL = 1e-3


def level(n_prime: float) -> float:
    return (n_prime - 2.0) ** 2 / 4.0


def m_exp(p: float, tau: float) -> float:
    return (2.0 + tau) / (p - 1.0)


def f(p: float, n_prime: float, tau: float) -> float:
    m = m_exp(p, tau)
    return p * m * (n_prime - 2.0 - m)


def c0(p: float, n_prime: float, tau: float) -> float:
    m = m_exp(p, tau)
    return (m * (n_prime - 2.0 - m)) ** (1.0 / (p - 1.0))


def serrin(n_prime: float, tau: float) -> float:
    return (n_prime + tau) / (n_prime - 2.0)


def sobolev(n_prime: float, tau: float) -> float:
    return (n_prime + 2.0 + 2.0 * tau) / (n_prime - 2.0)


def critical_powers(n_prime: float, tau: float) -> tuple[float, float]:
    """(p_tilde_c, p_c) from f(p) = level; p_c is inf when N' <= 10 + 4 tau.

    With k = N' - 2 and s = 2 + tau, f(p) = level is
    k (k - 4 s) p^2 - 2 (k^2 - 2 s (k + s)) p + k^2 = 0.  Each root is
    polished by bisection on f itself, so it does not inherit the
    rounding of the quadratic.
    """
    k, s = n_prime - 2.0, 2.0 + tau
    a = k * (k - 4.0 * s)
    b = 2.0 * (k * k - 2.0 * s * (k + s))
    c = k * k
    g = lambda p: f(p, n_prime, tau) - level(n_prime)  # noqa: E731
    lo, hi = serrin(n_prime, tau), sobolev(n_prime, tau)
    p_tilde = _bisect(g, lo, hi)
    if a <= 0.0:
        return p_tilde, math.inf
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    guess = (b + disc) / (2.0 * a)
    top = max(2.0 * guess, 2.0 * hi)
    return p_tilde, _bisect(g, hi, top)


def _bisect(g, lo: float, hi: float) -> float:
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        gm = g(mid)
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def liouville_quotient(p: float, n_prime: float, tau: float, a: float, b: float) -> float:
    """L sqrt(f - level) / pi on [a, b]; negative when f <= level."""
    gap = f(p, n_prime, tau) - level(n_prime)
    if gap <= 0.0:
        return -1.0
    return math.log(b / a) * math.sqrt(gap) / math.pi


def liouville_count(p: float, n_prime: float, tau: float, a: float, b: float) -> int:
    """Negative eigenvalues of the singular-profile form on [a, b]."""
    q = liouville_quotient(p, n_prime, tau, a, b)
    return math.floor(q) if q > 0.0 else 0


def liouville_count_is_robust(
    p: float, n_prime: float, tau: float, a: float, b: float, n: int, margin: float
) -> bool:
    """Whether the discrete count on n nodes must equal the Liouville count.

    The discretisation shifts the effective Hardy level by a relative
    amount of order (h (N'-2))^2 / 12 with h = log(b/a)/(n+1).  The count is
    decided when no integer k >= 1 lies within ``margin`` of the quotients
    obtained with the level shifted either way.
    """
    h = math.log(b / a) / (n + 1)
    eps = (h * (n_prime - 2.0)) ** 2 / 12.0
    gap = f(p, n_prime, tau) - level(n_prime)
    scale = math.log(b / a) / math.pi
    q_lo = scale * math.sqrt(max(gap - eps * level(n_prime), 0.0))
    q_hi = scale * math.sqrt(max(gap + eps * level(n_prime), 0.0))
    return math.floor(q_hi + margin) < max(math.ceil(q_lo - margin), 1)


def linearisation(p: float, n_prime: float, tau: float) -> tuple[float, float]:
    """(decay rate rho, angular frequency omega) of r^m v - c0 in t = log r.

    At c0 the linearised Emden-Fowler equation has characteristic
    polynomial x^2 + (N'-2-2m) x + (p-1) m (N'-2-m), whose discriminant is
    (N'-2)^2 - 4 f(p).  omega is 0 on the node side (f <= level).
    """
    m = m_exp(p, tau)
    damping = n_prime - 2.0 - 2.0 * m
    disc = (n_prime - 2.0) ** 2 - 4.0 * f(p, n_prime, tau)
    if disc >= 0.0:
        return 0.5 * (damping - math.sqrt(disc)), 0.0
    return 0.5 * damping, 0.5 * math.sqrt(-disc)


def hardy_lower(n_prime: float, a: float, b: float) -> float:
    """Continuum minimum level + (pi / L)^2 of the Hardy quotient on [a, b]."""
    return level(n_prime) + (math.pi / math.log(b / a)) ** 2


def pencil_halvings(n_prime: float, a: float, b: float, n: int) -> float:
    """Predicted bisection steps of the P1 Hardy pencil on [a, b].

    The bracket is the norm bound max|A| / min(M), about
    12 (b/a)^(N'-2) / h^2 with h = log(b/a)/(n+1), and bisection stops at a
    relative width of 1e-13 of the minimum.
    """
    h = math.log(b / a) / (n + 1)
    log2_bracket = math.log2(12.0) + (n_prime - 2.0) * math.log2(b / a) - 2.0 * math.log2(h)
    return log2_bracket - math.log2(1e-13 * hardy_lower(n_prime, a, b))


# ---------------------------------------------------------------- gates


def gate_sweep_rows(csv_text: str, rows: list[dict]) -> str | None:
    """Each spectrum-sweep row's negative_count equals the Liouville count."""
    lines = csv_text.strip().splitlines()
    if len(lines) != len(rows) + 1:
        return f"expected {len(rows)} rows, got {len(lines) - 1}"
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        if cells[col["error"]]:
            return f"row p={row['p']!r} failed: {cells[col['error']]}"
        got = int(cells[col["negative_count"]])
        want = liouville_count(row["p"], row["n_prime"], row["tau"], row["a"], row["b"])
        if got != want:
            return f"row p={row['p']!r}: negative_count {got} != Liouville count {want}"
    return None


def gate_shoot(result, n_prime: float, tau: float) -> str | None:
    """Converged slow decay, ordering by p_c, and A within C0_TOL of c0."""
    p = result.params.p
    if not result.converged or result.classification.value != "slow_decay":
        return f"not converged slow decay ({result.classification.value})"
    _, p_c = critical_powers(n_prime, tau)
    want = "below" if p >= p_c else "crosses"
    if result.ordering_vs_singular.value != want:
        return f"ordering {result.ordering_vs_singular.value} != {want}"
    rel = abs(result.asymptotic_constant / c0(p, n_prime, tau) - 1.0)
    if not rel <= C0_TOL:
        return f"|A/c0 - 1| = {rel:.3e} > {C0_TOL}"
    return None


def gate_rescale(direct_values, mapped_values) -> str | None:
    dev = max(abs(d - m) / m for d, m in zip(direct_values, mapped_values))
    if not dev <= RESCALE_TOL:
        return f"rescale deviation {dev:.3e} > {RESCALE_TOL}"
    return None


def gate_hardy(value: float, n_prime: float, a: float, b: float) -> str | None:
    lower = hardy_lower(n_prime, a, b)
    if not value >= lower * (1.0 - HARDY_LOWER_SLACK):
        return f"Hardy minimum {value!r} below level + (pi/L)^2 = {lower!r}"
    if not value <= lower * (1.0 + HARDY_UPPER_REL):
        return f"Hardy minimum {value!r} more than {HARDY_UPPER_REL} above {lower!r}"
    return None


def _root_residual(p, n_prime, tau, what) -> str | None:
    if p in (None, "", "infinity"):
        return None
    res = abs(f(float(p), n_prime, tau) - level(n_prime))
    if not res <= ROOT_RESIDUAL_TOL:
        return f"{what} = {p} misses the Hardy level by {res:.3e}"
    return None


def gate_cli(argv: list[str], code: int, stdout: bytes, expected: bytes) -> str | None:
    """Exit 0, stdout byte-equal to the in-process run, and the oracle checks.

    Reported critical powers must sit on the Hardy level; a spectrum's
    negative count must equal the Liouville count.
    """
    if code != 0:
        return f"exit code {code}"
    if stdout != expected:
        return "stdout differs from the in-process run"
    command = argv[0]
    text = stdout.decode()
    if command == "sweep":
        lines = text.strip().splitlines()
        col = {name: i for i, name in enumerate(lines[0].split(","))}
        for line in lines[1:]:
            cells = line.split(",")
            n_prime, tau = float(cells[col["n_prime"]]), float(cells[col["tau"]])
            for key in ("p_tilde_c", "p_c"):
                miss = _root_residual(cells[col[key]], n_prime, tau, key)
                if miss:
                    return miss
        return None
    if command not in ("exponents", "classify", "spectrum"):
        return None
    env = json.loads(text)
    inputs, res = env["inputs"], env["results"]
    n_prime = inputs["N"] + inputs["theta"]
    tau = inputs["l"] - inputs["theta"]
    if command == "spectrum":
        want = liouville_count(inputs["p"], n_prime, tau, inputs["a"], inputs["b"])
        if res["negative_count"] != want:
            return f"negative_count {res['negative_count']} != Liouville count {want}"
        return None
    pairs = (
        [("p_tilde_c", n_prime, tau), ("p_c", n_prime, tau)]
        if command == "exponents"
        else [("p_c_weighted", n_prime, tau), ("p_c_dimension", float(inputs["N"]), 0.0)]
    )
    for key, np_, t in pairs:
        miss = _root_residual(res[key], np_, t, key)
        if miss:
            return miss
    return None

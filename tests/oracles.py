"""Independent high-precision oracles (mpmath, 50 digits).

Everything here is brute force on purpose: explicit term-by-term series
summation and adaptive multiprecision quadrature, sharing no code with the
package.  Expected values frozen into the tests were produced by these
routines.
"""

import mpmath as mp

mp.mp.dps = 50


def kummer_series(a, c, x, n_terms=200, dps=50):
    """1F1 by direct high-precision summation.

    The alternating sum at x < 0 cancels down by a factor ~e^(2|x|); pick
    dps comfortably above |x| * 2/ln(10) when probing large arguments.
    """
    with mp.workdps(dps):
        a, c, x = mp.mpf(a), mp.mpf(c), mp.mpf(x)
        term = mp.mpf(1)
        total = mp.mpf(0)
        for n in range(n_terms):
            total += term
            term *= (a + n) / (c + n) * x / (n + 1)
        return total


def gauss_2f1_series(c, x, n_terms=200):
    """2F1(1,1;c;x) by direct summation (|x| < 1)."""
    c, x = mp.mpf(c), mp.mpf(x)
    term = mp.mpf(1)
    total = mp.mpf(0)
    for n in range(n_terms):
        total += term
        term *= (1 + n) / (c + n) * x
    return total


def eh_series(alpha, tau, t, n_terms=300):
    """Fractional-exponential kernel by direct summation."""
    alpha, tau, t = mp.mpf(alpha), mp.mpf(tau), mp.mpf(t)
    z = (t / tau) ** alpha
    total = sum((-z) ** n / mp.gamma(alpha * (n + 1)) for n in range(n_terms))
    return t ** (alpha - 1) * total


def hn_kernel_series(alpha, beta, tau0, t, n_terms=400):
    alpha, beta, tau0, t = mp.mpf(alpha), mp.mpf(beta), mp.mpf(tau0), mp.mpf(t)
    th = t / tau0
    total = mp.mpf(0)
    for i in range(n_terms):
        total += (
            (-1) ** i
            * mp.gamma(beta + i)
            * th ** (alpha * (beta + i) - 1)
            / (mp.gamma(i + 1) * mp.gamma(alpha * (beta + i)))
        )
    return total / (tau0 * mp.gamma(beta))


def hn_resolvent_series(alpha, beta, tau0, t, n_outer=200, n_inner=400):
    alpha, beta, tau0, t = mp.mpf(alpha), mp.mpf(beta), mp.mpf(tau0), mp.mpf(t)
    th = t / tau0
    total = mp.mpf(0)
    for n in range(1, n_outer):
        inner = mp.mpf(0)
        for i in range(n_inner):
            inner += (
                (-1) ** i
                * mp.gamma(n * beta + i)
                * th ** (alpha * (n * beta + i) - 1)
                / (mp.gamma(i + 1) * mp.gamma(alpha * (n * beta + i)))
            )
        contribution = inner / mp.gamma(n * beta)
        total += contribution
        if abs(contribution) < mp.mpf("1e-45") * abs(total):
            break
    return total / tau0


def mittag_leffler(alpha, z, n_terms=300):
    """E_alpha(z) by direct summation (the Rabotnov relaxation function is
    E_alpha(-theta^alpha))."""
    alpha, z = mp.mpf(alpha), mp.mpf(z)
    return sum(z**n / mp.gamma(alpha * n + 1) for n in range(n_terms))


def prabhakar(g, a, b, z, dps=50):
    """Prabhakar's E^g_{a,b}(z) = sum_n (g)_n z^n / (n! gamma(a n + b)) at
    ``dps`` digits, summed until the terms have peaked and three in a row
    fall below 10^-dps of the sum (no fixed term count, so small ``a``,
    whose terms decay late, gets as many as it needs)."""
    return prabhakar_with_peak(g, a, b, z, dps)[0]


def prabhakar_with_peak(g, a, b, z, dps=50):
    """``prabhakar`` and the magnitude of its largest term: a double-precision
    sum of the same series cannot be trusted closer than some eps times the
    latter."""
    with mp.workdps(dps):
        g, a, b, z = mp.mpf(g), mp.mpf(a), mp.mpf(b), mp.mpf(z)
        eps = mp.mpf(10) ** -dps
        coeff = mp.mpf(1)  # (g)_n z^n / n!
        total = mp.mpf(0)
        peak = mp.mpf(0)
        previous = mp.mpf(0)
        small = 0
        n = 0
        while True:
            term = coeff * mp.rgamma(a * n + b)
            total += term
            peak = max(peak, abs(term))
            falling = abs(term) <= abs(previous)
            small = small + 1 if falling and abs(term) <= eps * abs(total) else 0
            if small >= 3:
                return total, peak
            previous = term
            coeff *= (g + n) * z / (n + 1)
            n += 1


def rabotnov(alpha, theta, kernel=False, dps=(30, 45)):
    """The Rabotnov relaxation function E_alpha(-theta^alpha), or with
    ``kernel`` the fractional-exponential kernel at tau = 1,
    theta^(alpha-1) E_{alpha,alpha}(-theta^alpha), by mpmath's Talbot
    inversion of their images s^(alpha-1)/(s^alpha + 1) and 1/(s^alpha + 1).
    Adaptive: the precision also sets Talbot's node count, and the two
    evaluations at ``dps`` must agree to 1e-20 or ArithmeticError is raised."""
    values = []
    for digits in dps:
        with mp.workdps(digits):
            a = mp.mpf(alpha)
            image = (lambda s: 1 / (s**a + 1)) if kernel else (lambda s: s ** (a - 1) / (s**a + 1))
            values.append(mp.invertlaplace(image, mp.mpf(theta), method="talbot"))
    low, high = values
    if abs(low - high) > mp.mpf("1e-20") * abs(high):
        raise ArithmeticError(f"Talbot at {dps} digits disagrees: {low} vs {high}")
    return float(high)


def p_nu_series(alpha, m, variant, tau, t, n_terms=80):
    alpha, m, tau, t = mp.mpf(alpha), mp.mpf(m), mp.mpf(tau), mp.mpf(t)
    q = 1 / m - 1 if variant == 3 else m - 1
    x = -t / tau
    total = mp.mpf(0)
    if abs(q) < 1:
        for n in range(n_terms):
            total += (-q) ** n * kummer_series(alpha * (n + 1), 1, x, 400)
        return (1 + q) * total
    for n in range(n_terms):
        total += (-q) ** (-n) * kummer_series(-alpha * n, 1, x, 400)
    return (1 + 1 / q) * total


def vanin_normalizer(a, b, sigma):
    a, b, sigma = mp.mpf(a), mp.mpf(b), mp.mpf(sigma)
    return 1 / (
        2 ** (b / 2)
        * a
        * sigma ** (1 + b)
        * mp.gamma(1 + b / 2)
        * mp.hyp1f1(1 + b / 2, mp.mpf(3) / 2, a * a / 2)
    )


def vanin_normalizer_quadrature(a, b, sigma):
    a, b, sigma = mp.mpf(a), mp.mpf(b), mp.mpf(sigma)
    integral = mp.quad(
        lambda x: x**b * mp.exp(-x * x / (2 * sigma**2)) * mp.sinh(a * x / sigma),
        [0, 10 * sigma * (1 + a), mp.inf],
    )
    return 1 / integral

"""Output checkers.

Each checker returns a list of failure messages; an empty list means the
answer passed. Per-item checks compare against an independent computation
or a property the method must have, with tolerances no chance draw can
cross; statistical tolerances apply only to batch figures. Each workload's
`self_test` feeds its checks deliberately wrong answers, so that no check
can pass vacuously.
"""

import numpy as np


def close(what, value, expected, rel=0.0, abs_=0.0):
    value, expected = np.asarray(value, float), np.asarray(expected, float)
    if value.shape != expected.shape:
        return [f"{what}: shape {value.shape}, expected {expected.shape}"]
    bad = ~(np.abs(value - expected) <= abs_ + rel * np.abs(expected))
    if bad.any():
        i = int(np.argmax(bad))
        return [f"{what}: {value.ravel()[i]!r} vs expected {expected.ravel()[i]!r}"]
    return []


def at_most(what, value, limit):
    return [] if value <= limit else [f"{what}: {value!r} exceeds {limit!r}"]


def chi2_not_worse(what, chi2_fit, chi2_truth):
    """A least-squares optimum is never worse than the truth it was drawn from.

    The slack of 1e-9 covers the 10 significant digits of the CLI record.
    """
    return at_most(f"{what}: chi2 of fit above chi2 at truth", chi2_fit,
                   chi2_truth * (1.0 + 1e-9))


def density_matrix(what, rho, tol=1e-9):
    out = close(f"{what}: trace", np.trace(rho).real, 1.0, abs_=tol)
    out += at_most(f"{what}: hermiticity error", float(np.max(np.abs(rho - rho.conj().T))), tol)
    return out + populations(what, np.diag(rho).real, tol)


def populations(what, pops, tol=1e-9):
    pops = np.asarray(pops, float)
    if np.all((pops >= -tol) & (pops <= 1.0 + tol)):
        return []
    return [f"{what}: population outside [0, 1]: {pops.min()!r} .. {pops.max()!r}"]


def spacings(what, centers, expected, tol):
    return close(f"{what}: dip spacing", np.diff(np.sort(centers)),
                 np.full(len(centers) - 1, expected), abs_=tol)


def fraction_at_least(what, hits, total, minimum):
    if total and hits / total >= minimum:
        return []
    return [f"{what}: {hits}/{total} below the required fraction {minimum}"]


def identical(what, outputs):
    return [] if len(set(outputs)) <= 1 else [f"{what}: stdout differs between repeats"]


def record(text):
    """Parse a `# nvkit v1` record into a dict of strings."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# nvkit v1 "):
        raise ValueError(f"not an nvkit record: {text[:80]!r}")
    return dict(line.split(" = ", 1) for line in lines[1:])

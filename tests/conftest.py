import os

# Set before numpy loads OpenBLAS.  With its default of one thread per core,
# scipy's expm and logm on the 64x64 complex matrices of the reference
# checks ran several times slower on 2 cores than with one thread, and
# these small matrices gain nothing from more.  A value set in the
# environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
from hypothesis import settings  # noqa: E402

from smalldev.linalg import HermitianMatrix  # noqa: E402

# The CI step that runs the domination property test selects this profile
# with --hypothesis-profile=ci: derandomized, with ten times the examples of
# hypothesis's default profile, which tier-1 runs.
settings.register_profile("ci", derandomize=True, max_examples=1000)


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianMatrix:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianMatrix(scale * (a + a.conj().T) / 2.0)


def random_pd(d: int, rng: np.random.Generator) -> HermitianMatrix:
    """Random positive definite matrix with eigenvalues bounded away from 0."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianMatrix(a @ a.conj().T + 0.5 * d * np.eye(d))


def frobenius(entries: np.ndarray) -> float:
    return float(np.linalg.norm(entries, "fro"))


def pytest_runtest_logreport(report):
    # One visible verdict line per acceptance criterion.
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {verdict}", flush=True)

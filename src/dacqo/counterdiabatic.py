"""Adiabatic + counterdiabatic Hamiltonians and the first-order CD coefficient.

The annealing Hamiltonian interpolates a transverse-field driver into the
Ising problem,

    H_ad(lambda) = lambda * H_f + (1 - lambda) * sum_i X_i,
    H_f = sum_{i<j} J_ij Z_i Z_j + sum_i h_i Z_i,

and the first-order approximate gauge potential adds a velocity term

    H(t) = H_ad + lambda_dot * 2 alpha_1 C,
    C = -(i/2) [H_f, sum_i X_i] = sum_i h_i Y_i + sum_{i<j} J_ij (Y_i Z_j + Z_i Y_j).

C is formed as that commutator of dense operators, in either frame.  The
operators H_f and sum_i X_i themselves are built by index arithmetic: each
is a diagonal or a table of coefficients per bit-flip mask, never a sum of
dense Pauli strings.

Only Python floats are cached, per problem (``IsingProblem`` compares and
hashes by its exact contents): the coupling sums of alpha_1 and the four
commutator norms of the oracle.  The dense operators are built on each
call, which is once per problem for the oracle and once per
``exact_evolution`` call, so every public function returns a fresh array.

``alpha1_analytic`` evaluates the closed form obtained from the first two
nested commutators O_1 = [H_ad, d_lambda H_ad], O_2 = [H_ad, O_1]:

    alpha_1 = -Gamma_1 / Gamma_2,  Gamma_k = ||O_k||^2 (normalized HS norm).

All pair sums below run over ordered pairs (i != j); with couplings stored
once per unordered pair this shows up as factors of 2.  ``alpha1_oracle``
recomputes the same quantity from dense commutators and pins the convention.
Since [H_f, H_f] = [D, D] = 0 for D = sum_i X_i, O_1 = [D, H_f] does not
depend on lambda and O_2 = lambda A + (1 - lambda) B with A = [H_f, O_1]
and B = [D, O_1], so the oracle's Gamma_2 is a quadratic in lambda whose
coefficients ||A||^2, ||B||^2 and Re<A, B> are formed once per problem.

lambda(t) and lambda_dot(t) come from a ``Schedule``, which is plain data
(total time, trotter step count and profile name), so schedules compare,
hash, copy and pickle by their fields.  Its ``lam`` and ``lam_dot`` methods
evaluate the built-in profile's module-level functions of (t, T); a custom
profile is a subclass that overrides them.

The gate layer works in a frame rotated by a Hadamard on every qubit
(Z -> X, X -> Z, Y -> -Y), where the entangling terms become XX/XY/YX and
the driver is diagonal; ``rotated_full_hamiltonian`` builds that frame's
generator and ``exact_evolution`` integrates it as a trotter-free reference.
Both form H'(t) by one formula, ``_hamiltonian``, which takes an array of
(lambda, lambda_dot, alpha_1) rows and returns one matrix per row.
``exact_evolution`` evaluates each slice at ``Schedule.midpoints``, the
grid the trotter angles are read on, so with as many slices as trotter
steps it reads H'(t) at the trotter grid's times bit for bit.  It takes
its slices in stacks of at most ``_STACK_ENTRIES`` (2^12) matrix entries
and exponentiates each stack with a degree-12 Taylor polynomial,
evaluated Paterson-Stockmeyer style (five batched products) after a
shared power-of-two scaling chosen from the stack's largest 1-norm so
that the truncation stays below 2^-53, then squared back.  No
eigendecomposition is needed, and the module needs no scipy.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .paulis import HADAMARD, _bit_weights, commutator, hs_norm_sq, kron_all
from .problem import CapabilityError, IsingProblem, _spins, all_energies

__all__ = [
    "Schedule",
    "alpha1_analytic",
    "alpha1_oracle",
    "gamma_closed_forms",
    "gamma_oracle",
    "rotated_full_hamiltonian",
    "exact_evolution",
]

_DENSE_CAP = 12
# exact_evolution exponentiates its slices in stacks of at most this many
# matrix entries (one 2^N x 2^N matrix from N=6 on)
_STACK_ENTRIES = 2**12
# Taylor coefficients 1/k! of exp to degree 12, and the largest 1-norm
# theta at which the remainder, at most theta^13/13! / (1 - theta/14),
# stays below 2^-53 (9.1e-17 at 0.33)
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))
_TAYLOR_THETA = 0.33
# problems whose coupling sums and oracle norms are kept (floats only;
# the dense operators are built on each call)
_PROBLEMS_KEPT = 16


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _sin2sin2_lam(t, T):
    inner = math.sin(math.pi * t / (2.0 * T)) ** 2
    return math.sin(0.5 * math.pi * inner) ** 2


def _sin2sin2_lam_dot(t, T):
    b = math.pi * t / (2.0 * T)
    a = 0.5 * math.pi * math.sin(b) ** 2
    return (math.pi**2 / (4.0 * T)) * math.sin(2 * a) * math.sin(2 * b)


def _smoothstep_lam(t, T):
    s = t / T
    return s * s * (3.0 - 2.0 * s)


def _smoothstep_lam_dot(t, T):
    s = t / T
    return 6.0 * s * (1.0 - s) / T


# profile -> (lambda(t, T), lambda_dot(t, T))
_PROFILES = {"sin2sin2": (_sin2sin2_lam, _sin2sin2_lam_dot),
             "linear-smoothstep": (_smoothstep_lam, _smoothstep_lam_dot)}


def _check_count(name: str, value, least=1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least`` (not a bool).

    With ``least`` None every integer passes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value}")


@dataclass(frozen=True)
class Schedule:
    """Annealing schedule: total time, trotter step count, lambda profile.

    Both built-in profiles satisfy lambda(0)=0, lambda(T)=1 and have
    vanishing velocity at the endpoints, so the CD term switches off at
    t=0 and t=T.  A schedule is plain data: it compares, hashes, copies
    and pickles by its three fields, and ``lam`` and ``lam_dot`` evaluate
    the named profile's module-level functions at (t, total_time).  A
    custom lambda(t) is a subclass that overrides ``lam`` and ``lam_dot``.
    """

    total_time: float
    trotter_steps: int
    profile: str = "sin2sin2"

    def __post_init__(self):
        t = self.total_time
        if isinstance(t, bool) or not isinstance(t, numbers.Real) \
                or not (math.isfinite(t) and t > 0):
            raise ValueError(f"total_time must be finite and positive, got {t}")
        _check_count("trotter_steps", self.trotter_steps)
        if self.profile not in _PROFILES:
            raise ValueError(
                f"unknown profile {self.profile!r}; "
                f"choose from {sorted(_PROFILES)}"
            )

    def lam(self, t: float) -> float:
        """lambda(t)."""
        return _PROFILES[self.profile][0](t, self.total_time)

    def lam_dot(self, t: float) -> float:
        """d lambda / dt at t."""
        return _PROFILES[self.profile][1](t, self.total_time)

    def midpoints(self, slices: int = None) -> list:
        """Midpoint times (k + 1/2) T / n of n equal slices of [0, T], k < n.

        n is ``slices``, or the trotter step count when none is given: the
        one grid on which both the trotter angles and ``exact_evolution``
        read H'(t).
        """
        slices = self.trotter_steps if slices is None else slices
        _check_count("slices", slices)
        return [(k + 0.5) * self.total_time / slices for k in range(slices)]


# ---------------------------------------------------------------------------
# dense Hamiltonians
# ---------------------------------------------------------------------------

def _operators(problem: IsingProblem, rotated: bool = False) -> tuple:
    """Dense (H_f, sum_i X_i), each built by one indexing step.

    Every term is a diagonal Z string or an X string, whose entry (r, c)
    depends only on the flip mask r ^ c, so no Pauli string is formed:
    each operator is a 2^N vector put on the diagonal or indexed by the
    flip masks, which are kept in the narrowest unsigned dtype.  In the
    original frame H_f is diagonal (``all_energies``) and sum_i X_i is 1
    at each single-bit mask w_i; in the per-qubit Hadamard frame
    (``rotated``) H_f' is J_ij at mask w_i | w_j and h_i at mask w_i, and
    sum_i Z_i is diagonal.  Nothing is cached: both matrices are built on
    each call.
    """
    n = problem.n_qubits
    if n > _DENSE_CAP:
        raise CapabilityError(
            f"dense operators capped at {_DENSE_CAP} qubits, got {n}"
        )
    b = np.arange(2**n)
    flip = (b[:, None] ^ b).astype(np.min_scalar_type(2**n - 1))
    weights = _bit_weights(n)
    vector = np.zeros(2**n, dtype=complex)
    if rotated:
        for (i, j), v in problem.couplings.items():
            vector[weights[i] | weights[j]] = v
        vector[weights] = problem.fields
        return vector[flip], np.diag(_spins(b, n).sum(axis=1).astype(complex))
    vector[weights] = 1.0
    return np.diag(all_energies(problem).astype(complex)), vector[flip]


def _with_cd(operators: tuple) -> tuple:
    """(H_f, D, C) for ``operators`` = (H_f, D), with C = -(i/2)[H_f, D]."""
    Hf, D = operators
    return Hf, D, -0.5j * commutator(Hf, D)


def _hamiltonian(coefficients, operators: tuple) -> np.ndarray:
    """lambda H_f + (1-lambda) D + 2 lambda_dot alpha_1 C, per coefficient row.

    ``coefficients`` holds (lambda, lambda_dot, alpha_1) rows of
    ``_coefficients`` in its last axis: one row gives one matrix, a (k, 3)
    array a stack of k.
    """
    Hf, D, C = operators
    c = np.asarray(coefficients, dtype=float)[..., None, None]
    lam, ldot, a1 = np.moveaxis(c, -3, 0)
    H = lam * Hf
    H += (1.0 - lam) * D
    H += (2.0 * ldot * a1) * C
    return H


# ---------------------------------------------------------------------------
# first-order CD coefficient
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=_PROBLEMS_KEPT)
def _coupling_sums(problem: IsingProblem) -> tuple:
    """The field and coupling sums alpha_1 is formed from, per problem."""
    h = problem.fields
    sh2 = float(np.sum(h**2))
    sh4 = float(np.sum(h**4))
    sJ2 = sum(v**2 for v in problem.couplings.values())
    sJ4 = sum(v**4 for v in problem.couplings.values())
    # sum over ordered pairs of h_i^2 J_ij^2
    shJ = sum(
        (h[i] ** 2 + h[j] ** 2) * v**2 for (i, j), v in problem.couplings.items()
    )
    s3 = 0.0
    if problem.couplings and problem.n_qubits >= 3:
        Jm = problem.coupling_matrix()
        i, j, k = np.array(
            list(itertools.combinations(range(problem.n_qubits), 3))
        ).T
        a, b, c = Jm[i, j], Jm[i, k], Jm[j, k]
        # accumulate adds left to right, as a loop would; np.sum pairs
        # terms and moves the last bits of alpha_1
        terms = a * a * b * b + a * a * c * c + b * b * c * c
        s3 = np.add.accumulate(terms)[-1]
    return sh2, sh4, sJ2, sJ4, shJ, s3


def _gammas(sums: tuple, lam: float) -> tuple:
    """(Gamma_1, Gamma_2) from the coupling sums of a problem."""
    sh2, sh4, sJ2, sJ4, shJ, s3 = sums
    g1 = 4 * sh2 + 8 * sJ2
    g2 = 16.0 * ((1 - lam) ** 2 * (sh2 + 8 * sJ2)
                 + lam**2 * (sh4 + 2 * sJ4 + 6 * shJ + 6 * s3))
    return g1, g2


def gamma_closed_forms(problem: IsingProblem, lam: float) -> tuple:
    """(Gamma_1, Gamma_2) from the closed-form coefficient sums."""
    return _gammas(_coupling_sums(problem), lam)


def _alpha1(sums: tuple, lambda_value: float) -> float:
    """alpha_1 = -Gamma_1/Gamma_2 from the coupling sums of a problem."""
    g1, g2 = _gammas(sums, lambda_value)
    if g2 == 0.0:
        raise ZeroDivisionError(
            "alpha_1 denominator vanished (all-zero problem?)"
        )
    return -g1 / g2


def alpha1_analytic(problem: IsingProblem, lambda_value: float) -> float:
    """Closed-form first-order CD coefficient, alpha_1 = -Gamma_1/Gamma_2."""
    return _alpha1(_coupling_sums(problem), lambda_value)


def _coefficients(problem: IsingProblem, schedule: Schedule, times):
    """Yield (lambda, lambda_dot, alpha_1) at each of ``times``, lazily.

    The one rule for the CD coefficient, shared by the trotter angles and
    the dense Hamiltonians: the coupling sums are looked up once, and
    alpha_1 is 0 wherever lambda_dot is 0 or the problem has no nonzero
    coupling or field (there alpha_1 = 0/0 and the CD term C vanishes
    anyway).
    """
    sums = _coupling_sums(problem)
    live = any(problem.couplings.values()) or problem.fields.any()
    for t in times:
        lam = schedule.lam(t)
        ldot = schedule.lam_dot(t)
        yield lam, ldot, _alpha1(sums, lam) if ldot and live else 0.0


@functools.lru_cache(maxsize=_PROBLEMS_KEPT)
def _commutator_norms(problem: IsingProblem) -> tuple:
    """(||O_1||^2, ||A||^2, ||B||^2, Re<A, B>) from dense commutators.

    O_1 = [D, H_f], A = [H_f, O_1] and B = [D, O_1] with D = sum_i X_i,
    all normalized as ``hs_norm_sq``.  Python floats only: no matrix is
    kept.
    """
    Hf, D = _operators(problem)
    O1 = commutator(D, Hf)
    A = commutator(Hf, O1)
    B = commutator(D, O1)
    cross = float(np.vdot(A, B).real) / A.shape[0]
    return hs_norm_sq(O1), hs_norm_sq(A), hs_norm_sq(B), cross


def gamma_oracle(problem: IsingProblem, lam: float) -> tuple:
    """(Gamma_1, Gamma_2) from dense nested commutators.

    H_ad = lambda H_f + (1-lambda) D and d_lambda H_ad = H_f - D, so by
    bilinearity O_1 = [H_ad, d_lambda H_ad] = [D, H_f] at every lambda and
    O_2 = [H_ad, O_1] = lambda A + (1-lambda) B.  Gamma_2 is therefore the
    quadratic lambda^2 ||A||^2 + (1-lambda)^2 ||B||^2
    + 2 lambda (1-lambda) Re<A, B>; its three coefficients and Gamma_1
    are formed once per problem by ``_commutator_norms``.
    """
    if problem.n_qubits > 8:
        raise CapabilityError("commutator oracle capped at 8 qubits")
    g1, aa, bb, ab = _commutator_norms(problem)
    mu = 1 - lam
    return g1, lam * lam * aa + mu * mu * bb + 2 * lam * mu * ab


def alpha1_oracle(problem: IsingProblem, lambda_value: float) -> float:
    """alpha_1 = -Gamma_1/Gamma_2 from ``gamma_oracle``.

    Pins the closed-form conventions: O_1 does not depend on lambda and
    Gamma_2 is a quadratic in lambda whose coefficients come from dense
    commutators formed once per problem.
    """
    g1, g2 = gamma_oracle(problem, lambda_value)
    if g2 == 0.0:
        raise ZeroDivisionError("Gamma_2 vanished")
    return -g1 / g2


def rotated_full_hamiltonian(
    problem: IsingProblem, schedule: Schedule, t: float
) -> np.ndarray:
    """H'(t) in the per-qubit Hadamard frame (Z->X, X->Z, Y->-Y).

    H' = lambda (sum J_ij X_i X_j + sum h_i X_i) + (1-lambda) sum Z_i
         - 2 lambda_dot alpha_1 (sum h_i Y_i + sum J_ij (Y_i X_j + X_i Y_j)).

    The minus sign on the CD term, the frame rotation flipping Y, comes
    out of C = -(i/2)[H_f', sum Z_i]; since alpha_1 < 0 the realized
    coefficient is positive.  Equality with the Hadamard-conjugated
    original-frame H(t) is asserted in tests.
    """
    if not 0.0 <= t <= schedule.total_time:
        raise ValueError("t outside [0, T]")
    (c,) = _coefficients(problem, schedule, (t,))
    return _hamiltonian(c, _with_cd(_operators(problem, rotated=True)))


def hadamard_frame(n: int) -> np.ndarray:
    """The frame-change unitary: a Hadamard on every qubit."""
    return kron_all([HADAMARD] * n)


def _add_block(X: np.ndarray, A: np.ndarray, A2: np.ndarray, c: tuple):
    """X += c[2] A^2 + c[1] A + c[0] I in place, with no temporary stack.

    X is scaled into each term's coefficient and back (three scalings and
    two in-place additions), so ``_expm_stack`` holds five stacks at most:
    at N=10 a temporary c_i A^i would add a sixth 16 MiB matrix.
    """
    X *= 1.0 / c[2]
    X += A2
    X *= c[2] / c[1]
    X += A
    X *= c[1]
    np.einsum("...ii->...i", X)[...] += c[0]


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack ``A`` (k, d, d); ``A`` is overwritten.

    The whole stack is scaled by one power of two, 2^-s, that brings every
    matrix's 1-norm to at most ``_TAYLOR_THETA``.  The degree-12 Taylor
    polynomial sum_k A^k / k! is then evaluated Paterson-Stockmeyer style
    as B_0 + A^3 (B_1 + A^3 (B_2 + A^3 B_3)), where B_j holds the terms
    3j, 3j+1 and 3j+2 in I, A and A^2 and B_3 also the A^3 term: five
    batched products in all.  s batched squarings undo the scaling.
    """
    norm = np.abs(A).sum(axis=-2).max()
    s = max(0, math.frexp(norm / _TAYLOR_THETA)[1])
    A *= 0.5**s
    A2 = A @ A
    A3 = A2 @ A
    c = _TAYLOR
    P = A3 * c[12]
    _add_block(P, A, A2, c[9:12])
    Q = np.empty_like(P)
    for j in (6, 3, 0):
        np.matmul(A3, P, out=Q)
        _add_block(Q, A, A2, c[j:j + 3])
        P, Q = Q, P
    for _ in range(s):
        np.matmul(P, P, out=Q)
        P, Q = Q, P
    return P


def exact_evolution(
    problem: IsingProblem, schedule: Schedule, steps: int
) -> np.ndarray:
    """Trotter-free reference propagator in the rotated frame.

    Ordered product of exp(-i H'(t_k) dt) over a midpoint grid of
    ``steps`` slices, t_k = (k + 1/2) T / steps from ``Schedule.midpoints``;
    later factors multiply on the left.  H_f', sum_i Z_i and C are formed
    once per call, and (lambda, lambda_dot, alpha_1) once for all slices.
    The slices are taken in stacks of at most ``_STACK_ENTRIES`` matrix
    entries (16 slices at N=4, one from N=6 on): each stack's H'(t_k) are
    formed together and exponentiated by ``_expm_stack``, a degree-12
    Taylor polynomial with a shared scaling and squaring, and the factors
    are multiplied onto U in order.

    Against scipy's ``expm`` of each slice, multiplied the same way, the
    largest entry error is 6.2e-14 over N = 1..6, all three weight
    classes and (T, slices) in {(1, 1), (1, 3), (1, 100), (5, 1), (5, 7)},
    and over N=8 at (5, 7) and (1, 3) (1.4e-14 for the former
    ``numpy.linalg.eigh`` of each slice).  On the coarse grid T=20 with 2
    slices, 6 to 10 squarings a slice at N = 2, 4, 6, it is at most 2.4e-13
    (4.4e-14 by ``eigh``).
    """
    _check_count("steps", steps)
    if problem.n_qubits > 10:
        raise CapabilityError("exact_evolution capped at 10 qubits")
    operators = _with_cd(_operators(problem, rotated=True))
    dt = schedule.total_time / steps
    times = schedule.midpoints(steps)
    coefficients = np.array(list(_coefficients(problem, schedule, times)))
    d = 2**problem.n_qubits
    per_stack = max(1, _STACK_ENTRIES // (d * d))
    U = np.eye(d, dtype=complex)
    for lo in range(0, steps, per_stack):
        A = _hamiltonian(coefficients[lo:lo + per_stack], operators)
        A *= -1j * dt
        for factor in _expm_stack(A):
            U = factor @ U
        # free this stack before the next one is formed
        del A, factor
    return U

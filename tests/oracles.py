"""Independent second routes for the test suite.

``choi_of`` is the Choi matrix (M ⊗ id)[|alpha><alpha|] of a channel, in
the convention of ``ruwitness.protocol``: (1/d) sum_k rowvec(A_k)
rowvec(A_k)^dag, with no check.  Channels are equal when their Choi
matrices are.  ``partial_trace``, ``is_hermitian`` and ``is_psd`` are the
matrix predicates the Choi-state tests read.

``loop_tensor`` and ``loop_compose`` are the Kraus algebra of the tests:
one ``np.kron`` or one matrix product per pair of operators, first
argument outer.  ``kraus_noisy_gate`` composes a noisy gate with them, by
pairwise products of the Kraus lists of its parts (256 operators under
depolarising noise).  It is the first-principles reference for
``ruwitness.robustness.noisy_gate``, which composes Pauli transfer
matrices, and for the Kraus route of ``ruwitness.selftest``.

``reference_estimate`` is the shot estimator as it was before the
measurement plan: it decomposes the witness, assigns terms and builds each
setting's sign rows with ``np.kron`` on every call.  It is the reference for
``ruwitness.protocol``, which compiles all of that once per witness; it
takes its Born vectors from the production route, so the two must agree
bit for bit, sampling included.  It samples as the estimator's contract
says, by its own route: each Born probability rounded to a multiple of
2^-40 in Python integers, then one ``multinomial`` call per setting, in
settings order, on one ``default_rng(seed)``.

``rotation_born_vectors`` is the estimator's Born route as it was before
the Pauli-component kernel: ``diag(R^dag C R)`` with each setting's local
rotation R, whose columns are the outcome eigenvectors, and the Choi
matrix from ``choi_of``.  It is the independent reference for the
Walsh-Hadamard transform of Pauli components in ``ruwitness.protocol``.

``kraus_ptm`` is the Pauli transfer matrix of a channel from its Kraus
operators, through the superoperator sum_k A_k ⊗ conj(A_k).  It is the
reference for the integer noise PTM tables of ``ruwitness.robustness``;
``gate_ptm_int`` is the reference for the gate PTM ``ruwitness.channels``
forms from its formula.  ``noise_ptm`` evaluates one noise PTM from the
``_NOISES`` coefficients, as ``noisy_gate`` did before its PTM became one
evaluation of an integer table, and ``noisy_ptm`` composes a noisy gate's
PTM (D_2 ⊗ D_2) R_U (D_1 ⊗ D_1) from any two single-qubit PTMs, in range or
not, for the checks of ``ruwitness.channels._noisy_gate_channel``.

``ptm_slice_polynomial`` is the integer polynomial of a threshold slice
from the Pauli-transfer-matrix composition in exact integer arithmetic.  It
certifies ``ruwitness.thresholds._slice_polynomial``, which restricts the
integer table of the closed form to the slice.

``ptm_table`` is the integer table of a closed form, <R_U, DD[b] R_U DD[a]>,
derived in numpy from the gate PTM ``ruwitness.channels._gate_ptm`` and the
noise coefficients ``ruwitness.robustness._NOISES`` that ``noisy_gate``
composes.  It pins the literal tables of ``ruwitness.thresholds``, which
closed forms, sweeps and thresholds read.

``sympy_crossings`` is ``ruwitness.thresholds._crossings`` from sympy's
``real_roots``: the odd-multiplicity roots in [0, 1], evaluated to 50 digits
and rounded to the nearest float.  It is the reference for the integer Sturm
chain and its certified, correctly rounded roots.

``hand_closed_form`` holds the eight witness expectations as they were
transcribed by hand before they became the integer tables of one PTM
formula (``ptm_table``).  The tests expand it in sympy and require
each table to equal it term for term, so it certifies the transcription.

``reference_sweep_rows`` is the detection-map sweep as it was before the
grid became one array evaluation: one validated ``closed_form`` call per
point.  ``reference_sweep_texts`` writes those rows as CSV text with one
Decimal ``fmt12`` per number, and as JSON text with the stdlib's
``json.dumps(indent=2, sort_keys=True)``.  Together they are the
byte-for-byte reference for ``ruwitness.robustness.sweep``, its two writers
and ``ruwitness.serialize.dumps``.

``beta_search`` is the multi-start Nelder-Mead search that computed the
witness offset before the closed form in ``ruwitness.witness.beta_sru``
replaced it.  Every value it returns is the overlap of an actual product
unitary, so it is a certified lower bound on the exact offset.

The Choi-state cross-check routes live here, since nothing in the
pipeline runs them.  ``overlap_direct``, ``overlap_kraus``
and ``overlap_basis`` compute the channel overlap Tr[C_M C_L] three ways:
the trace of the product of the two Choi matrices, (1/d^2) sum_{k,l}
|Tr[A_k^dag B_l]|^2 over Kraus operators, and (1/d^2) sum_{i,j}
Tr[M(|i><j|) L(|j><i|)] over matrix-unit images.  ``_kraus_image`` is the
channel action sum_k A_k X A_k^dag, ``apply_via_choi`` reads the same action
off the Choi state, ``expectation_via_choi`` the witness
expectation, and ``setting_distribution`` the Born probabilities of one
local setting as the estimator reads them.  ``permute_qubits`` reorders
tensor factors, which shows the AC|BD factorisation of
``max_entangled(4)``; ``sample_channel`` draws generic CPT channels far
outside the random-unitary set.

``reference_validate_choi`` is the Choi-matrix validator the package ran
before Kraus-built channels were checked by trace preservation alone: it
tests Hermiticity, positivity, unit trace and the reference marginal.  It
is the reference that ``ruwitness.channels.validate_cpt`` must reject a
superset of.  ``reference_kraus_gram`` is the completeness sum sum_k A_k^dag A_k
as that check formed it before it became one product of the stacked operators.

``reference_pauli_basis`` stacks the Pauli strings as they were before the
basis was built by broadcasting: one ``np.kron`` chain per string.  It is the
reference for ``ruwitness.linalg.pauli_basis``.  ``reference_decompose`` is
the Pauli split as it was before it became one matrix-vector product: an
einsum over the 256 strings of that basis and one Python ``round`` per
coefficient.  ``reference_best_cover`` is the set-cover search as it was
before the strings were ordered by identity count and settings with equal
masks collapsed: it branches on the uncovered string with the fewest
candidates through ``min``.  These two are the references for
``ruwitness.witness``, which must return the same terms and the same
lexicographically smallest minimum cover.
"""

import json
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import ceil, sqrt

import numpy as np
import sympy
from scipy.optimize import minimize

from ruwitness.channels import KrausChannel, _gate_ptm, gate_matrix, unitary_channel
from ruwitness.linalg import PAULIS, all_pauli_strings
from ruwitness.protocol import EstimateResult, _outcome_probabilities, _substrings
from ruwitness.robustness import _NOISES, SweepRow, closed_form, single_qubit_noise
from ruwitness.serialize import fmt12
from ruwitness.cover import ALL_SETTINGS, minimal_settings, setting_covers
from ruwitness.witness import pauli_decompose


def choi_of(ch: KrausChannel) -> np.ndarray:
    """The d^2 x d^2 Choi matrix (1/d) sum_k rowvec(A_k) rowvec(A_k)^dag, by the identity
    (A ⊗ 1)|alpha> = rowvec(A)/sqrt(d)."""
    d = ch.dim
    vecs = ch.kraus.reshape(ch.n_kraus, d * d) / np.sqrt(d)
    return np.einsum("ki,kj->ij", vecs, vecs.conj())


def partial_trace(mat: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator on dims[0]*dims[1]."""
    d1, d2 = dims
    t = np.asarray(mat).reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("abcb->ac", t)
    if keep == 1:
        return np.einsum("abad->bd", t)
    raise ValueError("keep must be 0 or 1")


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_psd(a: np.ndarray, tol: float = 1e-10) -> bool:
    """Hermitian, with no eigenvalue below -tol."""
    return is_hermitian(a, tol) and bool(np.linalg.eigvalsh(a)[0] >= -tol)


def loop_tensor(a, b):
    """a ⊗ b with one np.kron per pair of Kraus operators, a-outer."""
    return KrausChannel(a.dim * b.dim, tuple(np.kron(x, y) for x in a.kraus for y in b.kraus))


def loop_compose(after, before):
    """after∘before with one matrix product per pair of Kraus operators, after-outer."""
    return KrausChannel(after.dim, tuple(b @ a for b in after.kraus for a in before.kraus))


def kraus_noisy_gate(gate: str, noise):
    """(N_2 ⊗ N_2) ∘ gate ∘ (N_1 ⊗ N_1) by pairwise Kraus products."""
    pre = single_qubit_noise(noise.kind, noise.q1)
    post = single_qubit_noise(noise.kind, noise.q2)
    core = loop_compose(unitary_channel(gate_matrix(gate)), loop_tensor(pre, pre))
    return loop_compose(loop_tensor(post, post), core)


# Single-qubit noise PTMs in the Pauli order I, X, Y, Z as integer matrix
# coefficients, D(x) = sum_k x^k D[k], with x = q, or x = s = sqrt(1 - gamma)
# for amplitude damping: diag(1, 1-x, 1-x, 1-x), diag(1, 1-2x, 1-2x, 1),
# diag(1, 1, 1-2x, 1-2x) and [[1,0,0,0],[0,x,0,0],[0,0,x,0],[1-x^2,0,0,x^2]].
_E = np.eye(4, dtype=np.int64)
_NOISE_PTM = {
    "depolarising": [_E, -np.diag([0, 1, 1, 1])],
    "dephasing": [_E, -2 * np.diag([0, 1, 1, 0])],
    "bitflip": [_E, -2 * np.diag([0, 0, 1, 1])],
    "amplitude_damping": [
        np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
        np.diag([0, 1, 1, 0]),
        np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]]),
    ],
}


def _poly_product(a, b, mul):
    """Coefficients of a(x) * b(x) for polynomials with matrix coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + mul(x, y)
    return out


def kraus_ptm(ch: KrausChannel) -> np.ndarray:
    """R_ij = Tr[P_i M(P_j)] / d of a one- or two-qubit channel, from its superoperator."""
    _, paulis = reference_pauli_basis(ch.dim.bit_length() - 1)
    k, flat = ch.kraus, paulis.reshape(len(paulis), -1)
    superop = np.einsum("kab,kcd->acbd", k, k.conj()).reshape(len(paulis), -1)  # sum A ⊗ conj(A)
    return (flat.conj() @ superop @ flat.T).real / ch.dim


def ptm_choi(r: np.ndarray) -> np.ndarray:
    """C = sum_ij R_ij P_i ⊗ P_j^T / 16 of a two-qubit PTM R, from the definition:
    (P ⊗ Q^T)[(a b), (c d)] = P[a, c] Q[d, b]."""
    _, p = reference_pauli_basis(2)
    return np.einsum("ij,iac,jdb->abcd", r, p, p).reshape(16, 16) / 16


def gate_ptm_int(gate: str) -> np.ndarray:
    """R_ij = Tr[P_i U P_j U^dag] / 4, rounded to the signed permutation it is."""
    u = gate_matrix(gate)
    _, p = reference_pauli_basis(2)
    r = np.einsum("iab,bc,jcd,ad->ij", p, u, p, u.conj()).real / 4
    r_int = np.rint(r).astype(np.int64)
    assert np.abs(r - r_int).max() < 1e-12
    assert (np.abs(r_int).sum(axis=0) == 1).all() and (np.abs(r_int).sum(axis=1) == 1).all()
    return r_int


def noise_ptm(kind: str, q: float) -> np.ndarray:
    """Single-qubit noise PTM D(x) = sum_k x^k D[k] from ``_NOISES``, x = q, or sqrt(1 - q)."""
    x = sqrt(1.0 - q) if kind == "amplitude_damping" else q
    d = _NOISES[kind][1]
    return np.tensordot([x**k for k in range(len(d))], d, 1)


def noisy_ptm(gate: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """R = (post ⊗ post) R_U (pre ⊗ pre) of a two-qubit gate from single-qubit PTMs."""
    return np.kron(post, post) @ gate_ptm_int(gate) @ np.kron(pre, pre)


def ptm_slice_polynomial(gate: str, kind: str, mode: str) -> list[int]:
    """Coefficients, lowest first, of 8 - <R_U, (D2⊗D2) R_U (D1⊗D1)> along a slice.

    This is 16 times the witness expectation.  The noiseless side of a
    one-sided slice is the identity (x = 0, or s = 1 for damping).
    """
    r_u = gate_ptm_int(gate)
    d = [np.asarray(m, dtype=np.int64) for m in _NOISE_PTM[kind]]
    dd, ident = _poly_product(d, d, np.kron), [np.eye(16, dtype=np.int64)]
    pre, post = {"before_only": (dd, ident), "after_only": (ident, dd), "equal": (dd, dd)}[mode]
    r_m = _poly_product(_poly_product(post, [r_u], np.matmul), pre, np.matmul)
    coeffs = [-int(np.sum(r_u * m)) for m in r_m]
    coeffs[0] += 8
    return coeffs


def ptm_table(gate: str, kind: str) -> tuple[tuple[int, ...], ...]:
    """T[a][b] = <R_U, DD[b] R_U DD[a]>, the integer coefficient of x1^a x2^b in <R_U, R_M>,
    where D(x) = sum_k x^k D[k] and DD[m] = sum_{k+l=m} D[k] ⊗ D[l]."""
    r_u = np.rint(r := _gate_ptm(gate)).astype(int)  # a signed permutation
    assert np.abs(r - r_u).max() <= 1e-12
    d = _NOISES[kind][1].reshape(-1, 4, 4)
    dd = [sum(np.kron(a, d[m - k]) for k, a in enumerate(d) if 0 <= m - k < len(d))
          for m in range(2 * len(d) - 1)]
    return tuple(tuple(int(np.sum(r_u * (post @ r_u @ pre))) for post in dd) for pre in dd)


def sympy_crossings(coeffs: list[int]) -> list[float]:
    """The float nearest each odd-multiplicity root in [0, 1] of the integer polynomial
    with ``coeffs`` (lowest first), ascending; exact roots are rounded directly."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    out = []
    for root, multiplicity in sympy.real_roots(poly, multiple=False):
        if multiplicity % 2 and 0 <= root <= 1:
            value = root if root.is_Rational else sympy.Rational(sympy.N(root, 50))
            out.append(int(value.p) / int(value.q))  # int division rounds to nearest
    return sorted(out)


def hand_closed_form(name: str, kind: str, q1, q2, sqrt):
    """Tr[W_U C_M] as transcribed by hand, on floats, arrays or sympy symbols."""
    if kind == "depolarising":
        b1 = 1.0 - 0.75 * q1
        b2 = 1.0 - 0.75 * q2
        s = (
            16.0 * b1 * b1 * b2 * b2
            + 2.0 * q1 * b1 * q2 * b2
            + q1 * q1 * q2 * b2
            + q1 * b1 * q2 * q2
            + (5.0 / 16.0) * q1 * q1 * q2 * q2
        )
        return 0.5 - s / 16.0

    if kind in ("dephasing", "bitflip") and name == "CNOT":
        return 0.5 - ((1 - q1) ** 2 * (1 - q2) ** 2 + q1 * q2 * (1 - q1 * q2))

    if kind == "dephasing":  # CZ
        return 0.5 - (1 - q1 - q2 + 2 * q1 * q2) ** 2

    if kind == "bitflip":  # CZ
        return 0.5 - (1 - q1) ** 2 * (1 - q2) ** 2

    # amplitude damping; q1, q2 play the role of gamma_1, gamma_2
    g1 = 1.0 - q1
    g2 = 1.0 - q2
    if name == "CNOT":
        core = (1.0 + sqrt(g1 * g2) * (1.0 + sqrt(g1) + sqrt(g2))) ** 2 + q1 * g1 * q2 * g2
        return 0.5 - core / 16.0
    return 0.5 - (1.0 + sqrt(g1 * g2)) ** 4 / 16.0


# Columns are the +1 and -1 eigenvectors of the measured Pauli axis.
_EIGENBASIS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2.0),
    "Z": np.eye(2, dtype=complex),
}


def rotation_born_vectors(ch: KrausChannel, settings) -> np.ndarray:
    """(n, 16) Born vectors diag(R^dag C R), one local rotation R per setting."""
    c = choi_of(ch)
    rotations = [reduce(np.kron, [_EIGENBASIS[a] for a in setting]) for setting in settings]
    return np.array([np.real(np.diag(r.conj().T @ c @ r)) for r in rotations]).reshape(-1, 16)


def _outcome_signs(string: str) -> np.ndarray:
    """Eigenvalue product of a Pauli string per outcome: the diagonal of its Z-type twin."""
    factors = [np.eye(2) if p == "I" else np.diag([1.0, -1.0]) for p in string]
    return np.real(np.diag(reduce(np.kron, factors)))


def reference_estimate(w, ch, plan=None, settings=None):
    """Witness estimate with every step redone per call; ``plan`` None is exact."""
    decomp = pauli_decompose(w)
    settings = minimal_settings(decomp) if settings is None else tuple(settings)
    assignment = {s: [] for s in settings}
    for coeff, string in decomp.terms:
        if string != "IIII":
            first = next(s for s in settings if setting_covers(s, string))
            assignment[first].append((float(coeff), string))
    born = _outcome_probabilities(ch, _substrings(settings))
    estimate = float(decomp.coefficient("IIII"))
    variance = 0.0
    per_setting = []
    rng = None if plan is None else np.random.default_rng(plan.seed)
    for index, setting in enumerate(settings):
        probs = born[index]
        if plan is None:
            weights, shots = probs, None
        else:
            shots = plan.shots_per_setting
            grid = [round(max(float(v), 0.0) * 2**40) for v in probs]
            total = sum(grid)
            weights = rng.multinomial(shots, [k / total for k in grid]).astype(float)
        denom = 1.0 if shots is None else float(shots)
        term_estimates = []
        combined = np.zeros(16)
        for coeff, string in assignment[setting]:
            signs = _outcome_signs(string)
            term_estimates.append((string, float(signs @ weights) / denom))
            combined += coeff * signs
        mean = float(combined @ weights) / denom
        estimate += mean
        if shots is not None:
            second = float((combined**2) @ weights) / denom
            sample_var = max(second - mean**2, 0.0) * shots / max(shots - 1, 1)
            variance += sample_var / shots
        per_setting.append((setting, tuple(term_estimates)))
    return EstimateResult(estimate, float(np.sqrt(variance)), tuple(per_setting))


def reference_sweep_rows(gate: str, kind: str, grid_points: int) -> list:
    """Row-major (q1 outer) sweep rows, one ``closed_form`` call per grid point."""
    rows = []
    for i in range(grid_points):
        q1 = i / (grid_points - 1)
        for j in range(grid_points):
            q2 = j / (grid_points - 1)
            value = closed_form(gate, kind, q1, q2)
            rows.append(SweepRow(q1=q1, q2=q2, value=value, detected=value < 0))
    return rows


def reference_sweep_texts(gate: str, kind: str, rows) -> tuple[str, str]:
    """CSV and JSON text of sweep rows, with one Decimal ``fmt12`` per number and stdlib JSON."""
    text = [(fmt12(r.q1), fmt12(r.q2), fmt12(r.value), r.detected) for r in rows]
    csv = "q1,q2,value,detected\n" + "".join(
        f"{a},{b},{v},{'true' if d else 'false'}\n" for a, b, v, d in text
    )
    obj = {
        "gate": gate.lower(),
        "noise": kind,
        "rows": [{"q1": float(a), "q2": float(b), "value": float(v), "detected": d} for a, b, v, d in text],
    }
    return csv, json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Start simplexes for the beta search live on [0, 2*pi)^6; the Euler-angle
# map in _negative_overlap_factory is surjective onto U(2) up to global
# phase, which cancels in |Tr|^2.
_N_ANGLES = 6


def _negative_overlap_factory(u: np.ndarray):
    """-|Tr[(V ⊗ W)^dag U]|^2 / 16 over two angle triples, for the optimizer loop.

    Each triple (theta, phi, lam) gives the single-qubit unitary
    [[c, -e^{i lam} s], [e^{i phi} s, e^{i (phi + lam)} c]] with
    c = cos(theta/2), s = sin(theta/2), and
    Tr[(V ⊗ W)^dag U] = sum_{a,b,c,d} conj(V_ac) conj(W_bd) U_(ab),(cd);
    contracting W first leaves four coefficients per (a, c).  Plain complex
    scalars beat numpy by an order of magnitude at this size.
    """
    u4 = np.asarray(u, dtype=complex).reshape(2, 2, 2, 2)
    slices = {(a, c): (u4[a, 0, c, 0], u4[a, 0, c, 1], u4[a, 1, c, 0], u4[a, 1, c, 1])
              for a in range(2) for c in range(2)}

    def negative(x) -> float:
        c1 = np.cos(x[0] / 2)
        s1 = np.sin(x[0] / 2)
        c2 = np.cos(x[3] / 2)
        s2 = np.sin(x[3] / 2)
        # conjugated su2 entries
        cv = {
            (0, 0): c1,
            (0, 1): -np.exp(-1j * x[2]) * s1,
            (1, 0): np.exp(-1j * x[1]) * s1,
            (1, 1): np.exp(-1j * (x[1] + x[2])) * c1,
        }
        cw00 = c2
        cw01 = -np.exp(-1j * x[5]) * s2
        cw10 = np.exp(-1j * x[4]) * s2
        cw11 = np.exp(-1j * (x[4] + x[5])) * c2
        t = 0j
        for ac, (m00, m01, m10, m11) in slices.items():
            t += cv[ac] * (m00 * cw00 + m01 * cw01 + m10 * cw10 + m11 * cw11)
        return -(t.real**2 + t.imag**2) / 16.0

    return negative


def beta_search(
    u: np.ndarray, restarts: int = 200, tol: float = 1e-8, seed: int = 0
) -> float:
    """Maximal squared overlap of C_U with product-unitary Choi vectors.

    Multi-start Nelder-Mead over 3 Euler-like angles per qubit, followed by
    one tight polish from the best coarse point.  Each restart draws its
    start from a private stream seeded by ``(seed, restart)``, so results
    are reproducible and monotone in the number of restarts.  Restart -1 is
    the deterministic identity start, which guarantees the |Tr U|^2/16
    floor.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4) or np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-10:
        raise ValueError("beta_search expects a 4x4 unitary")

    negative = _negative_overlap_factory(u)
    coarse = {"xatol": 1e-4, "fatol": 1e-6, "maxfev": 300}
    best = minimize(negative, np.zeros(_N_ANGLES), method="Nelder-Mead", options=coarse)
    for restart in range(restarts):
        rng = np.random.default_rng((seed, restart))
        x0 = rng.uniform(0.0, 2.0 * np.pi, _N_ANGLES)
        res = minimize(negative, x0, method="Nelder-Mead", options=coarse)
        if res.fun < best.fun:
            best = res
    polish = {"xatol": tol * 1e-2, "fatol": tol * 1e-4, "maxfev": 2000}
    refined = minimize(negative, best.x, method="Nelder-Mead", options=polish)
    return float(-min(best.fun, refined.fun))


@lru_cache(maxsize=None)
def reference_pauli_basis(n_qubits: int) -> tuple[tuple[str, ...], np.ndarray]:
    """All n-qubit Pauli strings and their matrices, one ``np.kron`` chain per string."""
    strings = tuple(all_pauli_strings(n_qubits))
    stack = np.stack([reduce(np.kron, (PAULIS[c] for c in s)) for s in strings])
    stack.setflags(write=False)
    return strings, stack


def reference_decompose(matrix: np.ndarray) -> tuple:
    """Pauli terms of a witness matrix, coefficient by coefficient."""
    strings, stack = reference_pauli_basis(4)
    coeffs = np.einsum("pij,ji->p", stack, matrix) / 16.0
    if np.max(np.abs(coeffs.imag)) > 1e-12:
        raise ArithmeticError("witness matrix is not Hermitian")
    terms = []
    for s, c in zip(strings, coeffs.real):
        snapped = round(c * 64)
        if abs(c - snapped / 64) > 1e-12:
            terms.append((float(c), s))
        elif snapped:
            terms.append((Fraction(snapped, 64), s))
    return tuple(terms)


def reference_cover_problem(strings) -> tuple[list[int], list[list[int]]]:
    """Per-setting masks over the strings in the given order, every candidate kept."""
    strings = [s for s in strings if s != "IIII"]
    masks = [0] * len(ALL_SETTINGS)
    cand_for = []
    for i, s in enumerate(strings):
        axes = ("XYZ" if p == "I" else p for p in s)
        candidates = [ALL_SETTINGS.index("".join(a)) for a in product(*axes)]
        for j in candidates:
            masks[j] |= 1 << i
        cand_for.append(candidates)
    return masks, cand_for


def reference_best_cover(strings, bound=None):
    """The smallest sorted cover of at most ``bound`` settings as axis strings, or None."""
    masks, cand_for = reference_cover_problem(strings)
    bound = len(cand_for) if bound is None else bound
    universe = (1 << len(cand_for)) - 1
    max_gain = max(m.bit_count() for m in masks)
    best = None

    def rec(covered: int, chosen: list[int]) -> None:
        nonlocal best, bound
        if covered == universe:
            cover = tuple(sorted(chosen))
            if len(cover) <= bound and (best is None or (len(cover), cover) < (len(best), best)):
                best, bound = cover, len(cover)
            return
        remaining = (universe & ~covered).bit_count()
        if len(chosen) + ceil(remaining / max_gain) > bound:
            return
        element = min(
            (i for i in range(len(cand_for)) if not covered >> i & 1),
            key=lambda i: len(cand_for[i]),
        )
        for j in cand_for[element]:
            chosen.append(j)
            rec(covered | masks[j], chosen)
            chosen.pop()

    rec(0, [])
    return None if best is None else tuple(ALL_SETTINGS[j] for j in best)


def real_part(z: complex, tol: float = 1e-12) -> float:
    """Collapse a should-be-real complex number, guarding the imaginary part."""
    z = complex(z)
    if abs(z.imag) >= tol:
        raise ArithmeticError(f"expected a real value, got imaginary part {z.imag!r}")
    return float(z.real)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.einsum("ij,ij->", a.conj(), b))


def max_entangled(d: int) -> np.ndarray:
    """Unit vector (1/sqrt d) sum_k |k>|k> on a d*d space."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    return v


def purity(c: np.ndarray) -> float:
    """Tr[C^2] of a Choi matrix; equals 1 exactly when the channel is unitary."""
    return real_part(np.einsum("ij,ji->", c, c), tol=1e-9)


def permute_qubits(state: np.ndarray, perm) -> np.ndarray:
    """Reorder the tensor factors of a 2^n vector or 2^n x 2^n matrix.

    ``perm[k]`` names the original qubit that ends up at position k; e.g.
    ``perm=(0, 2, 1, 3)`` maps the A,B,C,D ordering to A,C,B,D, under which
    the d=4 maximally entangled vector factorises into two Bell pairs.
    """
    perm = tuple(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{n - 1}")
    state = np.asarray(state)
    if state.ndim == 1:
        return state.reshape([2] * n).transpose(perm).reshape(-1)
    if state.ndim == 2:
        axes = list(perm) + [n + p for p in perm]
        return state.reshape([2] * (2 * n)).transpose(axes).reshape(state.shape)
    raise ValueError("state must be a vector or a square matrix")


def overlap_direct(c1: np.ndarray, c2: np.ndarray) -> float:
    """Tr[C1 C2] for two Choi matrices (real since both are Hermitian PSD)."""
    return real_part(hs_inner(c1, c2))


def overlap_kraus(m: KrausChannel, l: KrausChannel) -> float:
    """Tr[C_M C_L] from Kraus operators: (1/d^2) sum_{k,l} |Tr[A_k^dag B_l]|^2."""
    if m.dim != l.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {l.dim}")
    t = np.einsum("kij,lij->kl", m.kraus.conj(), l.kraus)
    return float(np.sum(t.real**2 + t.imag**2) / m.dim**2)


def _kraus_image(ch: KrausChannel, mat: np.ndarray) -> np.ndarray:
    """sum_k A_k mat A_k^dag for any matrix, not only a density matrix."""
    return np.einsum("kij,jl,kml->im", ch.kraus, mat, ch.kraus.conj())


def overlap_basis(m: KrausChannel, l: KrausChannel) -> float:
    """Tr[C_M C_L] from matrix-unit images: (1/d^2) sum_ij Tr[M(|i><j|) L(|j><i|)]."""
    if m.dim != l.dim:
        raise ValueError(f"dimension mismatch: {m.dim} vs {l.dim}")
    d = m.dim
    total = 0.0 + 0.0j
    for i in range(d):
        for j in range(d):
            e_ij = np.zeros((d, d), dtype=complex)
            e_ij[i, j] = 1.0
            total += np.trace(_kraus_image(m, e_ij) @ _kraus_image(l, e_ij.T))
    return real_part(total / d**2)


def apply_via_choi(c: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """M(rho) = d * Tr_2[ C_M (1 ⊗ rho^T) ], the inverse direction of the isomorphism."""
    rho = np.asarray(rho, dtype=complex)
    d = len(rho)
    m = c @ np.kron(np.eye(d), rho.T)
    return d * partial_trace(m, (d, d), keep=0)


def expectation_via_choi(w, m: KrausChannel) -> float:
    """Tr[W C_M] through the explicit Choi matrix."""
    return real_part(np.einsum("ij,ji->", w.matrix, choi_of(m)), tol=1e-9)


def sample_channel(dim: int, terms: int, seed: int = 0) -> KrausChannel:
    """Random CPT channel: Gaussian Kraus stack normalised through S^{-1/2}."""
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((terms, dim, dim)) + 1j * rng.standard_normal((terms, dim, dim))) / np.sqrt(2.0)
    w, v = np.linalg.eigh(reference_kraus_gram(g))
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return KrausChannel(dim, g @ inv_sqrt)


def reference_kraus_gram(kraus: np.ndarray) -> np.ndarray:
    """sum_k A_k^dag A_k as one einsum over the operators, as ``validate_cpt`` summed it
    before it became one product of the stacked operators."""
    return np.einsum("kji,kjl->il", kraus.conj(), kraus)


def reference_validate_choi(m: np.ndarray, d: int, tol: float) -> None:
    """Raise unless ``m`` is the Choi matrix of a CPT map on dimension ``d``.

    PSD is checked before the trace, since dropping negative eigenvalues also
    moves the trace.
    """
    if not is_hermitian(m, tol):
        raise ValueError("Choi matrix is not Hermitian")
    if np.linalg.eigvalsh(m)[0] < -tol:
        raise ValueError("Choi matrix is not positive semidefinite")
    if abs(np.trace(m).real - 1.0) > tol:
        raise ValueError("Choi matrix does not have unit trace")
    marginal = partial_trace(m, (d, d), keep=1)
    if np.max(np.abs(marginal - np.eye(d) / d)) > tol:
        raise ValueError("channel is not trace preserving (bad Choi marginal)")


def setting_distribution(ch: KrausChannel, setting: str) -> np.ndarray:
    """Born probabilities of the 16 joint outcomes of one setting, as the estimator reads them.

    Outcome index bits follow the qubit order A, B, C, D (big-endian);
    bit 0 means eigenvalue +1, bit 1 means -1.
    """
    return _outcome_probabilities(ch, _substrings((setting,)))[0]

"""The four benchmark workloads.

Each workload turns the run's seed into rounds of items.  A round is a fixed
mix of item kinds (every gate and noise kind, say); strengths, sizes, shot
counts and RNG seeds come from the seed.  Rounds therefore cost about the
same for every seed, and runs with different seeds compare.

A workload gives, for one item:

* ``run(item)``: the timed public ruwitness calls;
* ``check(item, out)``: the correctness check, run untimed after the item;
  it returns an error message or None;
* ``observe(item, out, tracer)``: counters for the traced run;
* ``digest(item, out)``: the output bytes whose SHA-256 pins this seed's
  results, so that a later change can show byte-identical output.

Calls into ruwitness go through attributes set by ``bind``: the plain
functions for timing, or the same functions wrapped in spans for tracing.
"""

from __future__ import annotations

import hashlib
import json
import math
import signal
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import ruwitness as rw
from ruwitness.protocol import result_json_obj
from ruwitness.robustness import sweep_json_obj, threshold_json_obj, write_sweep_csv
from ruwitness.serialize import dumps, fmt12

# Input names are the CLI's spellings; they are the benchmark's own inputs,
# not read from the package, so a renaming inside it cannot change them.
GATES = ("cnot", "cz")
KINDS = ("depolarising", "dephasing", "bitflip", "amplitude_damping")
MODES = {"before": "before_only", "after": "after_only", "equal": "equal"}
IDENTITY = "IIII"
# RNG streams past any round index: the CLI probes' inputs and the generic
# witnesses of the certify workload.
CLI_STREAM = 2**32 - 1
GENERIC_STREAM = 2**32 - 2


def _rng(seed: int, workload: int, round_: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, round_])


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _q(rng: np.random.Generator) -> float:
    """A strength in (0, 1) with three decimals, so argv text parses back exactly."""
    return int(rng.integers(1, 1000)) / 1000


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe_channel(ch, tracer) -> None:
    """Kraus count and Choi rank / Kraus count of one composed channel."""
    kraus = getattr(ch, "kraus", None)
    if kraus is None:  # a representation without a Kraus list
        return
    stacked = np.stack([k.ravel() for k in kraus])
    tracer.samples["channels.kraus_ops"].append(len(kraus))
    tracer.samples["channels.rank_over_kraus"].append(
        np.linalg.matrix_rank(stacked) / len(kraus)
    )


def observe_decomposition(decomp, settings, tracer) -> None:
    key = tuple(decomp.terms)
    tracer.counts["witness.decompositions"] += 1
    if key in tracer.seen:
        tracer.counts["witness.repeats"] += 1
    tracer.seen.add(key)
    tracer.samples["witness.terms"].append(len(decomp.terms))
    tracer.samples["witness.settings"].append(len(settings))


def expect_stdout(analytic: float, numeric: float) -> bytes:
    """What ``ruwitness expect`` prints for these two values."""
    return (
        f"closed_form = {fmt12(analytic)}\n"
        f"numeric     = {fmt12(numeric)}\n"
        f"difference  = {fmt12(analytic - numeric)}\n"
        f"detected    = {'true' if numeric < 0 else 'false'}\n"
    ).encode()


class Workload:
    name = ""
    index = 0
    warmup_rounds = 1
    # Tail percentile: the highest one with at least ten timed items beyond
    # it at this run length (100 means the maximum, for runs under 20 items).
    tail = 99.0
    calls: tuple = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bind(None)
        self.first_round = self.make_items(0)

    def bind(self, tracer) -> None:
        for attr, span, fn in self.calls:
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn))

    def rng(self, round_: int) -> np.random.Generator:
        return _rng(self.seed, self.index, round_)

    def items(self, round_: int) -> list:
        # round 0 is made during set-up, so setup_s includes input generation
        return self.first_round if round_ == 0 else self.make_items(round_)

    def label(self, item) -> str:
        return " ".join(str(x) for x in item[:3])

    def extra(self) -> list[dict]:
        """Untimed probes that the traced run reports by name."""
        return []


class OracleGrid(Workload):
    """closed_form vs the Kraus route on (gate, kind, q1, q2) points."""

    name = "oracle_grid"
    index = 1
    tail = 99.0
    calls = (
        ("closed_form", "robustness.closed_form", rw.closed_form),
        ("noisy_gate", "robustness.noisy_gate", rw.noisy_gate),
        ("expectation", "witness.expectation", rw.expectation),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.witness = {g: rw.gate_witness(g) for g in GATES}
        super().__init__(seed, workdir)

    def make_items(self, round_: int) -> list:
        rng = self.rng(round_)
        items = []
        for gate in GATES:
            for kind in KINDS:
                # the grid corners and edges, where zero Kraus operators drop out
                u = rng.uniform(0.0, 1.0, 4)
                points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                          (0.0, u[0]), (1.0, u[1]), (u[2], 0.0), (u[3], 1.0)]
                points += [tuple(p) for p in rng.uniform(0.0, 1.0, (8, 2))]
                items += [(gate, kind, float(q1), float(q2)) for q1, q2 in points]
        return _shuffled(rng, items)

    def run(self, item):
        gate, kind, q1, q2 = item
        analytic = self.closed_form(gate, kind, q1, q2)
        ch = self.noisy_gate(gate, rw.NoiseSpec(kind, q1, q2))
        return analytic, self.expectation(self.witness[gate], ch), ch

    def check(self, item, out):
        analytic, numeric, _ = out
        if abs(analytic - numeric) > 1e-10:
            return f"closed form {analytic!r} vs Kraus route {numeric!r}"
        return None

    def observe(self, item, out, tracer) -> None:
        observe_channel(out[2], tracer)

    def digest(self, item, out) -> bytes:
        return expect_stdout(out[0], out[1])

    def cli(self) -> list[dict]:
        rng = self.rng(CLI_STREAM)
        gate, kind = GATES[rng.integers(2)], KINDS[rng.integers(4)]
        q1, q2 = _q(rng), _q(rng)
        analytic = rw.closed_form(gate, kind, q1, q2)
        numeric = rw.expectation(rw.gate_witness(gate), rw.noisy_gate(gate, rw.NoiseSpec(kind, q1, q2)))
        argv = ["expect", "--gate", gate, "--noise", kind, "--q1", str(q1), "--q2", str(q2)]
        return [{"sub": "expect", "argv": argv, "expect": {"stdout": sha256(expect_stdout(analytic, numeric))}}]


def exact_roots() -> dict[tuple[str, str, str], list[float]]:
    """Threshold roots in closed (radical or polynomial-root) form.

    Every closed form is symmetric in (q1, q2), so the pre-only and
    post-only slices share their roots, and bit flip on CNOT coincides with
    dephasing on CNOT.
    """

    def unit_roots(coeffs):
        r = np.roots(coeffs)
        return sorted(float(x.real) for x in r if abs(x.imag) < 1e-9 and 0.0 <= x.real <= 1.0)

    s2 = math.sqrt(2.0)
    one_sided = {
        "depolarising": [(4 - 2 * s2) / 3],
        "dephasing": [1 - 1 / s2],
        "bitflip": [1 - 1 / s2],
        "amplitude_damping": [1 - (8**0.25 - 1) ** 2],
    }
    # equal-strength depolarising solves (q-2)^2 (5q^2 - 8q + 4) = 8; CNOT
    # dephasing solves 8q^3 - 14q^2 + 8q - 1 = 0; CNOT damping with
    # s = sqrt(1 - gamma) solves s^8 + 2s^6 + 4s^5 + 2s^4 + 4s^3 + 2s^2 = 7
    depol = unit_roots([5, -28, 56, -48, 8])
    deph_cnot = unit_roots([8, -14, 8, -1])
    ad_cnot = [1 - s**2 for s in unit_roots([1, 0, 2, 4, 2, 4, 2, 0, -7])]
    equal = {
        ("cnot", "depolarising"): depol,
        ("cz", "depolarising"): depol,
        ("cnot", "dephasing"): deph_cnot,
        ("cnot", "bitflip"): deph_cnot,
        ("cz", "dephasing"): [(1 - math.sqrt(s2 - 1)) / 2, (1 + math.sqrt(s2 - 1)) / 2],
        ("cz", "bitflip"): [1 - 2 ** (-0.25)],
        ("cnot", "amplitude_damping"): ad_cnot,
        ("cz", "amplitude_damping"): [2 - 8**0.25],
    }
    table = {}
    for gate in GATES:
        for kind in KINDS:
            table[(gate, kind, "before_only")] = one_sided[kind]
            table[(gate, kind, "after_only")] = one_sided[kind]
            table[(gate, kind, "equal")] = equal[(gate, kind)]
    return table


# Each (gate, kind) pair gets one grid size from this ladder per round, in a
# seeded order, so every round writes the same number of rows.
GRID_LADDER = (11, 21, 31, 41, 51, 61, 81, 101)
CLI_GRID = 41
SAMPLED_ROWS = 2


class DetectionMap(Workload):
    """Threshold slices and (q1, q2) sweeps, written to files as the CLI does."""

    name = "detection_map"
    index = 2
    tail = 95.0
    calls = (
        ("threshold", "robustness.threshold", rw.threshold),
        ("threshold_json_obj", "robustness.threshold_json_obj", threshold_json_obj),
        ("sweep", "robustness.sweep", rw.sweep),
        ("write_sweep_csv", "robustness.write_sweep_csv", write_sweep_csv),
        ("sweep_json_obj", "robustness.sweep_json_obj", sweep_json_obj),
        ("dumps", "serialize.dumps", dumps),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.roots = exact_roots()
        super().__init__(seed, workdir)

    def make_items(self, round_: int) -> list:
        rng = self.rng(round_)
        items = [("threshold", gate, kind, mode)
                 for gate in GATES for kind in KINDS for mode in MODES.values()]
        grids = iter(_shuffled(rng, list(GRID_LADDER)))
        for gate in GATES:
            for kind in KINDS:
                grid = next(grids)
                for fmt in ("csv", "json"):
                    rows = tuple(int(i) for i in rng.integers(0, grid * grid, SAMPLED_ROWS))
                    items.append(("sweep", gate, kind, fmt, grid, rows))
        return _shuffled(rng, items)

    def label(self, item) -> str:
        return " ".join(str(x) for x in item[:5])

    def path(self, item) -> Path:
        return self.workdir / ("-".join(str(x) for x in item[:4]))

    def run(self, item):
        path = self.path(item)
        if item[0] == "threshold":
            _, gate, kind, mode = item
            roots = self.threshold(gate, kind, mode)
            path.write_text(self.dumps(self.threshold_json_obj(gate, kind, mode, roots)))
            return path, len(roots)
        _, gate, kind, fmt, grid, _ = item
        rows = self.sweep(gate, kind, grid)
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                self.write_sweep_csv(rows, fh)
        else:
            path.write_text(self.dumps(self.sweep_json_obj(gate, kind, rows)))
        return path, len(rows)

    def check(self, item, out):
        path, _ = out
        if item[0] == "threshold":
            _, gate, kind, mode = item
            obj = json.loads(path.read_text())
            want = self.roots[(gate, kind, mode)]
            got = obj["roots"]
            if (obj["gate"], obj["noise"], obj["mode"]) != (gate, kind, mode):
                return f"threshold file labels {obj['gate']}/{obj['noise']}/{obj['mode']}"
            if len(got) != len(want) or any(abs(a - b) > 5e-9 for a, b in zip(got, want)):
                return f"roots {got} vs exact {want}"
            return None
        _, gate, kind, fmt, grid, sampled = item
        if fmt == "csv":
            lines = path.read_text().splitlines()
            if lines[0] != "q1,q2,value,detected":
                return f"CSV header {lines[0]!r}"
            rows = [line.split(",") for line in lines[1:]]
            rows = [(float(a), float(b), float(v), d == "true") for a, b, v, d in rows]
        else:
            obj = json.loads(path.read_text())
            rows = [(r["q1"], r["q2"], r["value"], r["detected"]) for r in obj["rows"]]
        if len(rows) != grid * grid:
            return f"{len(rows)} rows for grid {grid}"
        for index in sampled:
            q1, q2 = (index // grid) / (grid - 1), (index % grid) / (grid - 1)
            fq1, fq2, value, detected = rows[index]
            if abs(fq1 - q1) > 1e-12 or abs(fq2 - q2) > 1e-12:
                return f"row {index} at ({fq1}, {fq2}), expected ({q1}, {q2})"
            kraus = rw.numeric_expectation(gate, rw.NoiseSpec(kind, q1, q2))
            if abs(value - kraus) > 1e-10 or detected != (value < 0):
                return f"row {index}: {value!r} ({detected}) vs Kraus route {kraus!r}"
        return None

    def observe(self, item, out, tracer) -> None:
        path, n = out
        tracer.counts["serialize.bytes_out"] += path.stat().st_size
        tracer.counts["robustness.roots_total" if item[0] == "threshold" else "robustness.sweep.rows"] += n

    def digest(self, item, out) -> bytes:
        return out[0].read_bytes()

    def cli(self) -> list[dict]:
        rng = self.rng(CLI_STREAM)
        probes = []
        gate, kind = GATES[rng.integers(2)], KINDS[rng.integers(4)]
        fmt = ("csv", "json")[rng.integers(2)]
        item = ("sweep", gate, kind, fmt, CLI_GRID, ())
        ref = self.run(item)[0]
        out = self.workdir / f"cli-sweep.{fmt}"
        argv = ["sweep", "--gate", gate, "--noise", kind, "--grid", str(CLI_GRID),
                "--out", str(out), "--format", fmt]
        probes.append({"sub": "sweep", "argv": argv, "expect": {str(out): sha256(ref.read_bytes())}})
        gate, kind = GATES[rng.integers(2)], KINDS[rng.integers(4)]
        flag = sorted(MODES)[rng.integers(3)]
        ref = self.run(("threshold", gate, kind, MODES[flag]))[0]
        out = self.workdir / "cli-threshold.json"
        argv = ["threshold", "--gate", gate, "--noise", kind, "--mode", flag, "--out", str(out)]
        probes.append({"sub": "threshold", "argv": argv, "expect": {str(out): sha256(ref.read_bytes())}})
        return probes


SHOTS_RANGE = (1e3, 1e5)


class ShotExperiment(Workload):
    """``ruwitness simulate`` replayed in-process on seeded experiments."""

    name = "shot_experiment"
    index = 3
    tail = 95.0
    calls = (
        ("gate_witness", "witness.gate_witness", rw.gate_witness),
        ("pauli_decompose", "witness.pauli_decompose", rw.pauli_decompose),
        ("minimal_settings", "witness.minimal_settings", rw.minimal_settings),
        ("noisy_gate", "robustness.noisy_gate", rw.noisy_gate),
        ("estimate_expectation", "protocol.estimate_expectation", rw.estimate_expectation),
        ("dumps", "serialize.dumps", dumps),
    )

    def make_items(self, round_: int) -> list:
        rng = self.rng(round_)
        lo, hi = np.log10(SHOTS_RANGE)
        items = [(gate, kind, _q(rng), _q(rng), int(10 ** rng.uniform(lo, hi)),
                  int(rng.integers(0, 2**31)))
                 for gate in GATES for kind in KINDS]
        return _shuffled(rng, items)

    def run(self, item):
        gate, kind, q1, q2, shots, seed = item
        w = self.gate_witness(gate)
        decomp = self.pauli_decompose(w)
        settings = self.minimal_settings(decomp)
        ch = self.noisy_gate(gate, rw.NoiseSpec(kind, q1, q2))
        plan = rw.ShotPlan(shots_per_setting=shots, seed=seed)
        result = self.estimate_expectation(w, ch, plan, settings=settings)
        text = self.dumps(result_json_obj(result, plan, settings))
        return w, decomp, settings, ch, result, text

    def check(self, item, out):
        w, _, settings, ch, result, text = out
        exact = rw.expectation(w, ch)
        # 1e-12 absorbs round-off when every sampled outcome is certain (std_error 0)
        if abs(result.estimate - exact) > 6 * result.std_error + 1e-12:
            return f"estimate {result.estimate!r} +- {result.std_error!r} vs exact {exact!r}"
        if len(settings) != 9:
            return f"{len(settings)} settings, expected 9"
        obj = json.loads(text)
        if obj["settings"] != list(settings) or obj["shots_per_setting"] != item[4]:
            return "simulate JSON does not match its inputs"
        return None

    def observe(self, item, out, tracer) -> None:
        _, decomp, settings, ch, _, text = out
        observe_channel(ch, tracer)
        observe_decomposition(decomp, settings, tracer)
        tracer.counts["protocol.shots_total"] += item[4] * len(settings)
        tracer.counts["serialize.bytes_out"] += len(text.encode())

    def digest(self, item, out) -> bytes:
        return out[5].encode()

    def cli(self) -> list[dict]:
        item = self.make_items(CLI_STREAM)[0]
        gate, kind, q1, q2, shots, seed = item
        out = self.workdir / "cli-simulate.json"
        argv = ["simulate", "--gate", gate, "--noise", kind, "--q1", str(q1), "--q2", str(q2),
                "--shots", str(shots), "--seed", str(seed), "--out", str(out)]
        return [{"sub": "simulate", "argv": argv, "expect": {str(out): sha256(self.run(item)[5].encode())}}]


class OverBudget(Exception):
    """An item ran past its time budget; ``args[0]`` names the stage it was in."""


@contextmanager
def budget(seconds: float):
    """Raise OverBudget in this thread once ``seconds`` of wall time have passed."""

    def expire(_signum, _frame):
        raise OverBudget("budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cliffords() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords (up to phase), generated by H and S."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1, 1j])

    def key(m):
        flat = m.ravel()
        lead = flat[np.argmax(np.abs(flat) > 1e-9)]
        return tuple(np.round(flat * abs(lead) / lead, 9))

    found = {key(np.eye(2)): np.eye(2, dtype=complex)}
    frontier = list(found.values())
    while frontier:
        grown = [g @ m for m in frontier for g in (h, s)]
        frontier = [m for m in grown if key(m) not in found]
        for m in frontier:
            found.setdefault(key(m), m)
    return list(found.values())


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
_SQRT_SWAP = np.array([[1, 0, 0, 0], [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
                       [0, (1 - 1j) / 2, (1 + 1j) / 2, 0], [0, 0, 0, 1]])
# gate -> (unitary, exact beta); beta is invariant under local dressing
CERTIFY_GATES = {
    "cnot": (rw.gate_matrix("CNOT"), 0.5),
    "cz": (rw.gate_matrix("CZ"), 0.5),
    "swap": (_SWAP, 0.25),
    "iswap": (_ISWAP, 0.25),
}
DRESSINGS_PER_ROUND = 2
BETA_RESTARTS = 200  # the CLI default
# The CLI probe times start-up and the subcommand's path; the items above
# already time the 200-restart search in-process.
CLI_BETA_RESTARTS = 20
# About 2.5 times the slowest passing item seen on a 2-core Xeon VM.
ITEM_BUDGET_S = 6.0


class Certify(Workload):
    """Witness certification on distinct, locally dressed gates."""

    name = "certify"
    index = 4
    warmup_rounds = 0
    tail = 100.0
    calls = (
        ("beta_sru", "witness.beta_sru", rw.beta_sru),
        ("build_witness", "witness.build_witness", rw.build_witness),
        ("pauli_decompose", "witness.pauli_decompose", rw.pauli_decompose),
        ("minimal_settings", "witness.minimal_settings", rw.minimal_settings),
        ("cover_exists", "witness.cover_exists", rw.cover_exists),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.cliffords = _cliffords()
        super().__init__(seed, workdir)

    def dress(self, rng, u: np.ndarray) -> np.ndarray:
        a, b, c, d = (self.cliffords[i] for i in rng.integers(0, len(self.cliffords), 4))
        return np.kron(a, b) @ u @ np.kron(c, d)

    def make_items(self, round_: int) -> list:
        rng = self.rng(round_)
        items = [(gate, self.dress(rng, u), int(rng.integers(0, 2**31)))
                 for gate, (u, _) in CERTIFY_GATES.items()
                 for _ in range(DRESSINGS_PER_ROUND)]
        return _shuffled(rng, items)

    def label(self, item) -> str:
        return item[0]

    def run(self, item):
        _, u, seed = item
        stage = "beta_sru"
        try:
            with budget(ITEM_BUDGET_S):
                beta = self.beta_sru(u, restarts=BETA_RESTARTS, seed=seed)
                stage = "build_witness"
                w = self.build_witness(u, beta)
                stage = "pauli_decompose"
                decomp = self.pauli_decompose(w)
                stage = "minimal_settings"
                settings = self.minimal_settings(decomp)
                stage = "cover_exists"
                smaller = self.cover_exists(decomp, len(settings) - 1)
        except OverBudget:
            raise OverBudget(stage) from None
        return beta, decomp, settings, smaller

    def check(self, item, out):
        gate, u, _ = item
        beta, decomp, settings, smaller = out
        exact = CERTIFY_GATES[gate][1] if gate in CERTIFY_GATES else None
        if exact is not None and abs(beta - exact) > 1e-6:
            return f"beta {beta!r}, exact {exact}"
        # the identity start makes |Tr U|^2/16 a floor; 1e-12 is round-off
        if beta < abs(np.trace(u)) ** 2 / 16 - 1e-12:
            return f"beta {beta!r} below |Tr U|^2/16"
        strings = [s for _, s in decomp.terms if s != IDENTITY]
        uncovered = [s for s in strings
                     if not any(all(p in ("I", a) for p, a in zip(s, setting)) for setting in settings)]
        if uncovered or any(len(s) != 4 or set(s) - set("XYZ") for s in settings):
            return f"settings {settings} do not cover {uncovered}"
        if smaller:
            return f"a cover with {len(settings) - 1} settings exists"
        if exact is not None and (len(decomp.terms), len(settings)) != (16, 9):
            return f"{len(decomp.terms)} terms and {len(settings)} settings, expected 16 and 9"
        return None

    def observe(self, item, out, tracer) -> None:
        observe_decomposition(out[1], out[2], tracer)

    def digest(self, item, out) -> bytes:
        beta, decomp, settings, smaller = out
        return (fmt12(beta) + "\n" + dumps(decomp.to_json_obj()) + dumps(list(settings))).encode()

    def extra(self) -> list[dict]:
        """√SWAP and a Haar unitary, once each under the item budget.

        Their witnesses have 52 and 226 Pauli terms and the set cover does
        not finish on them within the budget.  They are reported by name in
        the traced run, not timed, so that no timed item is known to fail.
        """
        rng = self.rng(GENERIC_STREAM)
        generic = {"sqrt_swap": self.dress(rng, _SQRT_SWAP), "haar": rw.haar_unitary(4, rng)}
        report = []
        for gate, u in generic.items():
            start = perf_counter()
            try:
                out = self.run((gate, u, int(rng.integers(0, 2**31))))
            except OverBudget as exc:
                report.append({"gate": gate, "outcome": "timeout", "stage": exc.args[0],
                               "seconds": perf_counter() - start})
                continue
            error = self.check((gate, u, 0), out)
            report.append({"gate": gate, "outcome": error or "ok", "stage": None,
                           "seconds": perf_counter() - start, "terms": len(out[1].terms),
                           "settings": len(out[2])})
        return report

    def cli(self) -> list[dict]:
        rng = self.rng(CLI_STREAM)
        gate = GATES[rng.integers(2)]
        seed = int(rng.integers(0, 1000))
        w = rw.gate_witness(gate)
        decomp = rw.pauli_decompose(w)
        settings = rw.minimal_settings(decomp)
        dec_out, set_out = self.workdir / "cli-decomposition.json", self.workdir / "cli-settings.json"
        witness = {"sub": "witness",
                   "argv": ["witness", "--gate", gate, "--decomposition-out", str(dec_out),
                            "--settings-out", str(set_out)],
                   "expect": {str(dec_out): sha256(dumps(decomp.to_json_obj()).encode()),
                              str(set_out): sha256(dumps(list(settings)).encode())}}
        beta = rw.beta_sru(rw.gate_matrix(gate), restarts=CLI_BETA_RESTARTS, seed=seed)
        beta_probe = {"sub": "beta",
                      "argv": ["beta", "--gate", gate, "--restarts", str(CLI_BETA_RESTARTS), "--seed", str(seed)],
                      "expect": {"stdout": sha256(f"beta = {fmt12(beta)}\n".encode())}}
        return [witness, beta_probe]


WORKLOADS = {cls.name: cls for cls in (OracleGrid, DetectionMap, ShotExperiment, Certify)}

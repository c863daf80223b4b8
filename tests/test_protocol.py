from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ruwitness.channels import (
    KrausChannel,
    depolarising,
    gate_matrix,
    haar_unitary,
    identity_channel,
    sample_sru,
    tensor,
    unitary_channel,
)
from ruwitness.linalg import all_pauli_strings
from ruwitness.protocol import (
    EstimateResult,
    ShotPlan,
    _outcome_probabilities,
    _plan_for,
    _substrings,
    estimate_expectation,
    estimate_expectation_exact,
    result_json_obj,
)
from ruwitness.robustness import NOISE_KINDS, NoiseSpec, noisy_gate
from ruwitness.witness import (
    ALL_SETTINGS,
    Witness,
    build_witness,
    expectation,
    gate_witness,
    minimal_settings,
    pauli_decompose,
)

from oracles import reference_estimate, rotation_born_vectors, sample_channel, setting_distribution


def _cnot_channel():
    return unitary_channel(gate_matrix("CNOT"))


class TestShotPlan:
    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_setting=0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_setting=10, seed=-1)

    @pytest.mark.parametrize("shots,seed", [
        (2.5, 1), (2.0, 1), (True, 1), (np.bool_(True), 1), ("10", 1),
        (10, 1.0), (10, False), (10, None), (10, "1"),
    ])
    def test_rejects_non_integers(self, shots, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            ShotPlan(shots_per_setting=shots, seed=seed)

    def test_numpy_integers_become_ints(self):
        plan = ShotPlan(np.int64(10), np.int32(3))
        assert plan == ShotPlan(10, 3)
        assert type(plan.shots_per_setting) is int and type(plan.seed) is int


class TestSettingDistribution:
    def test_normalised_and_nonnegative(self):
        for setting in ("XXXX", "ZYZY", "YYYY"):
            p = setting_distribution(_cnot_channel(), setting)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p.min() > -1e-12

    def test_identity_channel_zzzz_parities(self):
        # Bell pairs across AC and BD: outcomes must satisfy o_A = o_C and
        # o_B = o_D, uniformly over the four allowed patterns
        p = setting_distribution(identity_channel(4), "ZZZZ")
        for outcome in range(16):
            a, b, c, d = (outcome >> 3) & 1, (outcome >> 2) & 1, (outcome >> 1) & 1, outcome & 1
            expected = 0.25 if (a == c and b == d) else 0.0
            assert p[outcome] == pytest.approx(expected, abs=1e-12)

    def test_fully_depolarised_is_uniform(self):
        ch = tensor(depolarising(1.0), depolarising(1.0))
        p = setting_distribution(ch, "XZYX")
        assert np.allclose(p, np.full(16, 1 / 16))

    def test_cnot_xxxx_stabilizer_correlations(self):
        # XXXI and IXIX generate the X-type stabilizers of the CNOT Choi
        # state, so exactly the outcomes with o_A o_B o_C = +1 and
        # o_B o_D = +1 appear, each with probability 1/4
        p = setting_distribution(_cnot_channel(), "XXXX")
        signs = lambda bit: 1 - 2 * bit
        for outcome in range(16):
            a, b, c, d = (outcome >> 3) & 1, (outcome >> 2) & 1, (outcome >> 1) & 1, outcome & 1
            allowed = signs(a) * signs(b) * signs(c) == 1 and signs(b) * signs(d) == 1
            assert p[outcome] == pytest.approx(0.25 if allowed else 0.0, abs=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_setting(self):
        with pytest.raises(ValueError):
            setting_distribution(_cnot_channel(), "XXQX")
        with pytest.raises(ValueError):
            setting_distribution(identity_channel(2), "XXXX")


class TestBornVectors:
    """The Walsh-Hadamard route against diag(R^dag C R) with local rotations, all 81 settings."""

    SUBSTRINGS = _substrings(ALL_SETTINGS)

    def _check(self, ch):
        got = _outcome_probabilities(ch, self.SUBSTRINGS)
        assert np.max(np.abs(got - rotation_born_vectors(ch, ALL_SETTINGS))) <= 1e-15

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_noisy_gates(self, gate, kind):
        for q1, q2 in ((0.0, 0.0), (1.0, 0.35), (0.2, 1.0), (0.55, 0.15), (0.3, 0.2)):
            self._check(noisy_gate(gate, NoiseSpec(kind, q1, q2)))

    def test_sampled_and_identity_channels(self):
        for seed in range(20):
            self._check(sample_sru(1 + seed % 4, seed=seed))
        self._check(identity_channel(4))
        for seed in range(5):
            self._check(sample_channel(4, terms=3, seed=seed))

    @pytest.mark.parametrize("kraus", [2 * np.eye(4), np.diag([1.0, 1.0, 1.0, 0.5])])
    def test_channel_that_is_not_trace_preserving_raises(self, kraus):
        w, ch = gate_witness("CZ"), KrausChannel(4, [kraus])
        with pytest.raises(ValueError, match="not trace preserving"):
            estimate_expectation(w, ch, ShotPlan(100, 1))
        with pytest.raises(ValueError, match="not trace preserving"):
            estimate_expectation_exact(w, ch)

    def test_no_eigensolver(self, monkeypatch):
        w, ch = gate_witness("CNOT"), sample_sru(3, seed=4)
        calls = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=solver, **k: calls.append(a) or _f(*a, **k))
        estimate_expectation(w, ch, ShotPlan(1000, 2))
        estimate_expectation_exact(w, ch)
        assert calls == []


class TestExactEstimator:
    def test_matches_expectation_on_noise_grid(self):
        for gate in ("CNOT", "CZ"):
            w = gate_witness(gate)
            settings = minimal_settings(pauli_decompose(w))
            for kind in ("depolarising", "dephasing", "bitflip", "amplitude_damping"):
                for q1, q2 in ((0.0, 0.0), (0.3, 0.1), (0.7, 0.7)):
                    ch = noisy_gate(gate, NoiseSpec(kind, q1, q2))
                    result = estimate_expectation_exact(w, ch, settings=settings)
                    assert result.estimate == pytest.approx(expectation(w, ch), abs=1e-10)
                    assert result.std_error == 0.0

    def test_identity_term_enters_exactly(self):
        # fully depolarising both qubits kills every non-identity term, so
        # the estimate is exactly the identity coefficient 7/16
        w = gate_witness("CNOT")
        ch = tensor(depolarising(1.0), depolarising(1.0))
        result = estimate_expectation_exact(w, ch)
        assert result.estimate == float(7 / 16)

    def test_per_setting_term_estimates_recorded(self):
        w = gate_witness("CNOT")
        result = estimate_expectation_exact(w, _cnot_channel())
        strings = [s for _, terms in result.per_setting for s, _ in terms]
        assert sorted(strings) == sorted(
            s for _, s in pauli_decompose(w).terms if s != "IIII"
        )


class TestMeasurementPlan:
    def _cnot(self):
        w = gate_witness("CNOT")
        return w, minimal_settings(pauli_decompose(w)), noisy_gate(
            "CNOT", NoiseSpec("depolarising", 0.2, 0.1))

    def test_repeated_setting_rejected(self):
        # each repeat would count the repeated setting's terms once more:
        # -0.242 in place of the exact -0.1205
        w, settings, ch = self._cnot()
        for repeated in (settings + settings[:1], settings[:1] * 2):
            with pytest.raises(ValueError, match="repeat"):
                estimate_expectation_exact(w, ch, settings=repeated)
            with pytest.raises(ValueError, match="repeat"):
                estimate_expectation(w, ch, ShotPlan(100, 1), settings=repeated)

    def test_compiled_once_per_witness_and_settings(self):
        w, settings, _ = self._cnot()
        plan = _plan_for(w, None)
        assert _plan_for(w, None) is plan
        assert _plan_for(w, list(settings)) is plan
        assert plan.settings == settings
        reversed_plan = _plan_for(w, settings[::-1])
        assert reversed_plan.settings == settings[::-1]
        assert _plan_for(w, None).settings == settings

    def test_plan_arrays_are_read_only(self):
        w, settings, _ = self._cnot()
        plan = _plan_for(w, settings)
        for name in ("term_setting", "signs", "combined", "combined_sq", "substrings"):
            array = getattr(plan, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.flat[0] = 0
        with pytest.raises(FrozenInstanceError):
            plan.settings = ()

    def test_plan_contents(self):
        w, settings, _ = self._cnot()
        plan = _plan_for(w, settings)
        assert plan.identity == 7 / 16
        assert sum(plan.term_counts) == len(plan.strings) == 15
        strings = tuple(all_pauli_strings(4))
        assert plan.substrings.shape == (len(settings), 16)
        for setting, row in zip(settings, plan.substrings):
            # row i, entry m: setting i's axis on qubit q where bit 3 - q of m is set, I elsewhere
            assert [strings[j] for j in row] == [
                "".join(a if m >> (3 - q) & 1 else "I" for q, a in enumerate(setting)) for m in range(16)]

    def test_invalid_input_raises_on_every_call(self):
        w, settings, ch = self._cnot()
        plan = ShotPlan(100, 1)
        cases = [
            (ch, settings[1:]),  # only XXXX covers XIXX
            (ch, ("XXQX",) + settings[1:]),
            (identity_channel(2), settings),
            (identity_channel(2), None),
        ]
        for channel, chosen in cases:
            for _ in range(3):
                with pytest.raises(ValueError):
                    estimate_expectation(w, channel, plan, settings=chosen)
                with pytest.raises(ValueError):
                    estimate_expectation_exact(w, channel, settings=chosen)
                # a good call in between leaves a compiled plan behind
                estimate_expectation_exact(w, ch, settings=settings)

    def test_identity_only_witness_needs_no_settings(self):
        w = Witness(beta=0.25, unitary=np.eye(4), matrix=0.25 * np.eye(16))
        ch = identity_channel(4)
        for result in (estimate_expectation(w, ch, ShotPlan(100, 1)),
                       estimate_expectation_exact(w, ch)):
            assert result == EstimateResult(0.25, 0.0, ())

    def test_generic_witness_matches_reference(self):
        # float coefficients and an 81-setting cover
        u = haar_unitary(4, np.random.default_rng(5))
        w = build_witness(u)
        ch = noisy_gate("CNOT", NoiseSpec("amplitude_damping", 0.3, 0.2))
        assert len(minimal_settings(pauli_decompose(w))) == 81
        plan = ShotPlan(5000, 9)
        got, want = estimate_expectation(w, ch, plan), reference_estimate(w, ch, plan)
        assert got.estimate == pytest.approx(want.estimate, abs=1e-12)
        assert got.std_error == pytest.approx(want.std_error, abs=1e-12)
        assert got.per_setting == want.per_setting
        exact = estimate_expectation_exact(w, ch)
        assert exact.estimate == pytest.approx(expectation(w, ch), abs=1e-10)


_STRENGTHS = ((0.0, 0.0), (1.0, 0.35), (0.2, 1.0), (0.55, 0.15))
_VARIANTS = (  # (shot plan, reverse the caller-supplied settings)
    (ShotPlan(1000, 0), False),
    (ShotPlan(23_456, 1), False),
    (ShotPlan(100_000, 2), False),
    (ShotPlan(4321, 3), True),
    (None, True),
)


@pytest.mark.parametrize("variant", range(len(_VARIANTS)))
@pytest.mark.parametrize("q1,q2", _STRENGTHS)
@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize("gate", ["CNOT", "CZ"])
def test_plan_matches_reference_route(gate, kind, q1, q2, variant):
    shot_plan, reverse = _VARIANTS[variant]
    w = gate_witness(gate)
    ch = noisy_gate(gate, NoiseSpec(kind, q1, q2))
    settings = minimal_settings(pauli_decompose(w))
    chosen = settings[::-1] if reverse else None
    if shot_plan is not None:
        got = estimate_expectation(w, ch, shot_plan, settings=chosen)
        assert got == reference_estimate(w, ch, shot_plan, settings=chosen)
        return
    for chosen in (None, settings[::-1]):
        got = estimate_expectation_exact(w, ch, settings=chosen)
        want = reference_estimate(w, ch, settings=chosen)
        assert abs(got.estimate - want.estimate) <= 1e-12
        assert got.std_error == want.std_error == 0.0
        assert [(s, [t for t, _ in terms]) for s, terms in got.per_setting] == [
            (s, [t for t, _ in terms]) for s, terms in want.per_setting]
        got_values = [v for _, terms in got.per_setting for _, v in terms]
        want_values = [v for _, terms in want.per_setting for _, v in terms]
        assert np.max(np.abs(np.subtract(got_values, want_values))) <= 1e-12


class TestSampledEstimator:
    def test_noiseless_cnot_exact(self):
        w = gate_witness("CNOT")
        plan = ShotPlan(shots_per_setting=100_000, seed=7)
        result = estimate_expectation(w, _cnot_channel(), plan)
        # every setting distribution is deterministic per sign pattern here
        assert result.estimate == -0.5
        assert result.std_error == 0.0
        assert result.detected

    def test_identity_channel_within_three_sigma(self):
        w = gate_witness("CNOT")
        plan = ShotPlan(shots_per_setting=100_000, seed=11)
        result = estimate_expectation(w, identity_channel(4), plan)
        assert result.std_error > 0
        assert abs(result.estimate - 0.25) <= 3 * result.std_error
        assert not result.detected

    def test_deterministic_for_fixed_seed(self):
        w = gate_witness("CZ")
        ch = noisy_gate("CZ", NoiseSpec("dephasing", 0.2, 0.1))
        plan = ShotPlan(shots_per_setting=2000, seed=123)
        r1 = estimate_expectation(w, ch, plan)
        r2 = estimate_expectation(w, ch, plan)
        assert r1 == r2

    def test_seed_changes_samples(self):
        w = gate_witness("CZ")
        ch = noisy_gate("CZ", NoiseSpec("depolarising", 0.3, 0.2))
        r1 = estimate_expectation(w, ch, ShotPlan(2000, seed=1))
        r2 = estimate_expectation(w, ch, ShotPlan(2000, seed=2))
        assert r1.estimate != r2.estimate

    def test_more_shots_shrink_std_error(self):
        w = gate_witness("CNOT")
        ch = noisy_gate("CNOT", NoiseSpec("depolarising", 0.2, 0.2))
        small = estimate_expectation(w, ch, ShotPlan(200, seed=5))
        large = estimate_expectation(w, ch, ShotPlan(200_000, seed=5))
        assert large.std_error < small.std_error / 10

    def test_two_sigma_coverage_calibration(self):
        # statistically correct error bars: over 200 seeded runs at a fixed
        # noisy channel, the exact value must fall inside +-2 sigma in at
        # least 92% of runs (binomial expectation ~95%)
        w = gate_witness("CNOT")
        ch = noisy_gate("CNOT", NoiseSpec("depolarising", 0.1, 0.05))
        settings = minimal_settings(pauli_decompose(w))
        exact = expectation(w, ch)
        hits = 0
        for seed in range(200):
            r = estimate_expectation(w, ch, ShotPlan(2000, seed=seed), settings=settings)
            if abs(r.estimate - exact) <= 2 * r.std_error:
                hits += 1
        assert hits >= 184  # 92% of 200

    def test_json_record(self):
        w = gate_witness("CNOT")
        settings = minimal_settings(pauli_decompose(w))
        plan = ShotPlan(shots_per_setting=1000, seed=3)
        result = estimate_expectation(w, _cnot_channel(), plan, settings=settings)
        obj = result_json_obj(result, plan, settings)
        assert obj["detected"] is True
        assert obj["shots_per_setting"] == 1000
        assert obj["seed"] == 3
        assert obj["settings"] == list(settings)
        assert obj["estimate"] == -0.5

import itertools
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy.stats import chisquare

from ruwitness import protocol
from ruwitness.channels import (
    KrausChannel,
    depolarising,
    gate_matrix,
    haar_unitary,
    sample_sru,
    unitary_channel,
)
from ruwitness.cli import main as cli_main
from ruwitness.linalg import all_pauli_strings
from ruwitness.protocol import (
    EstimateResult,
    ShotPlan,
    _outcome_probabilities,
    _plan_for,
    _sample_counts,
    _substrings,
    estimate_expectation,
    estimate_expectation_exact,
    result_json_obj,
)
from ruwitness.robustness import NOISE_KINDS, NoiseSpec, noisy_gate
from ruwitness.cover import ALL_SETTINGS, minimal_settings
from ruwitness.witness import (
    Witness,
    build_witness,
    expectation,
    gate_witness,
    pauli_decompose,
)

from oracles import (
    loop_tensor,
    reference_estimate,
    rotation_born_vectors,
    sample_channel,
    setting_distribution,
)


def _cnot_channel():
    return unitary_channel(gate_matrix("CNOT"))


class TestShotPlan:
    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_setting=0, seed=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_setting=10, seed=-1)

    def test_shot_count_fits_the_sampler(self):
        # numpy's multinomial draw takes its count as a C int64
        plan = ShotPlan(shots_per_setting=2**63 - 1, seed=1)
        ch = noisy_gate("CZ", NoiseSpec("dephasing", 0.1, 0.1))
        assert estimate_expectation(gate_witness("CZ"), ch, plan).detected
        for shots in (2**63, 10**20):
            with pytest.raises(ValueError, match="shots_per_setting"):
                ShotPlan(shots_per_setting=shots, seed=1)

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
        p = setting_distribution(unitary_channel(np.eye(4)), "ZZZZ")
        for outcome in range(16):
            a, b, c, d = (outcome >> 3) & 1, (outcome >> 2) & 1, (outcome >> 1) & 1, outcome & 1
            expected = 0.25 if (a == c and b == d) else 0.0
            assert p[outcome] == pytest.approx(expected, abs=1e-12)

    def test_fully_depolarised_is_uniform(self):
        ch = loop_tensor(depolarising(1.0), depolarising(1.0))
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
            setting_distribution(unitary_channel(np.eye(2)), "XXXX")


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

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_ptm_route_equals_kraus_route(self, gate, kind):
        grid = [i / 5 for i in range(6)]
        for q1, q2 in itertools.product(grid, grid):
            ch = noisy_gate(gate, NoiseSpec(kind, q1, q2))
            gram = _outcome_probabilities(KrausChannel(4, ch.kraus), self.SUBSTRINGS)
            assert np.max(np.abs(_outcome_probabilities(ch, self.SUBSTRINGS) - gram)) <= 1e-15, (q1, q2)

    def test_sampled_and_identity_channels(self):
        for seed in range(20):
            self._check(sample_sru(1 + seed % 4, seed=seed))
        self._check(unitary_channel(np.eye(4)))
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

    @pytest.mark.parametrize("gate", ["CNOT", "CZ"])
    def test_noisy_gate_estimate_builds_no_kraus_stack(self, gate, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=solver, **k: calls.append(a) or _f(*a, **k))
        w = gate_witness(gate)
        for kind in NOISE_KINDS:
            ch = noisy_gate(gate, NoiseSpec(kind, 0.35, 0.2))
            estimate_expectation(w, ch, ShotPlan(1000, 2))
            assert "kraus" not in vars(ch)
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

    def test_kraus_built_copy_matches(self):
        for gate, kind in itertools.product(("CNOT", "CZ"), NOISE_KINDS):
            w, ch = gate_witness(gate), noisy_gate(gate, NoiseSpec(kind, 0.35, 0.2))
            ptm, copy = estimate_expectation_exact(w, ch), estimate_expectation_exact(w, KrausChannel(4, ch.kraus))
            assert abs(ptm.estimate - copy.estimate) <= 1e-15
            assert abs(copy.estimate - expectation(w, ch)) <= 1e-12
            for (setting, terms), (copy_setting, copy_terms) in zip(ptm.per_setting, copy.per_setting):
                assert setting == copy_setting and [t for t, _ in terms] == [t for t, _ in copy_terms]
                assert np.max(np.abs([v for _, v in terms] - np.array([v for _, v in copy_terms]))) <= 1e-15

    def test_identity_term_enters_exactly(self):
        # fully depolarising both qubits kills every non-identity term, so
        # the estimate is exactly the identity coefficient 7/16
        w = gate_witness("CNOT")
        ch = loop_tensor(depolarising(1.0), depolarising(1.0))
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
            (unitary_channel(np.eye(2)), settings),
            (unitary_channel(np.eye(2)), None),
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
        ch = unitary_channel(np.eye(4))
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
        result = estimate_expectation(w, unitary_channel(np.eye(4)), plan)
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


def _sampler_channels():
    """Both gates under every noise at two strengths, and the noiseless gates."""
    for gate in ("CNOT", "CZ"):
        yield gate, unitary_channel(gate_matrix(gate))
        for kind in NOISE_KINDS:
            for q1, q2 in ((0.3, 0.15), (0.8, 0.45)):
                yield gate, noisy_gate(gate, NoiseSpec(kind, q1, q2))


class TestSampler:
    """``_sample_counts``: one stream per estimate, on the 2^-40 probability grid."""

    def test_counts_fit_the_born_vectors(self):
        # one chi-square test per setting on its support, at a familywise
        # significance of 1% (Bonferroni over all settings); outcomes
        # outside the support must never be drawn
        cases = list(_sampler_channels())
        alpha = 0.01 / (9 * len(cases))
        for seed, (gate, ch) in enumerate(cases):
            settings = minimal_settings(pauli_decompose(gate_witness(gate)))
            born = _outcome_probabilities(ch, _substrings(settings))
            counts = _sample_counts(born, ShotPlan(20_000, seed))
            assert counts.shape == born.shape and (counts.sum(axis=1) == 20_000).all()
            for row, probs in zip(counts, born):
                support = probs > 1e-12
                assert not row[~support].any()
                if support.sum() > 1:
                    expected = probs[support] * (20_000 / probs[support].sum())
                    assert chisquare(row[support], expected).pvalue > alpha

    def test_chi_square_sees_a_wrong_distribution(self):
        # the test above has power: counts of one setting against another
        # setting's Born vector are rejected
        ch = noisy_gate("CNOT", NoiseSpec("amplitude_damping", 0.3, 0.15))
        born = _outcome_probabilities(ch, _substrings(("XXXX", "ZZZZ")))
        counts = _sample_counts(born, ShotPlan(20_000, 1))
        assert chisquare(counts[0], born[1] * 20_000).pvalue < 1e-12

    @pytest.mark.parametrize("shots", [1, 1000, 54_321, 2**63 - 1])
    def test_one_draw_equals_rows_drawn_in_order(self, shots):
        # the 2-D draw reads the rows from the one generator in order, as a
        # loop of per-setting draws would
        settings = minimal_settings(pauli_decompose(gate_witness("CZ")))
        for seed, (_, ch) in enumerate(_sampler_channels()):
            born = _outcome_probabilities(ch, _substrings(settings))
            plan = ShotPlan(shots, seed)
            p = np.rint(np.maximum(born, 0.0) * 2.0**40)
            p /= p.sum(axis=1, keepdims=True)
            rng = np.random.default_rng(seed)
            looped = np.array([rng.multinomial(shots, row) for row in p])
            assert np.array_equal(_sample_counts(born, plan), looped)

    def test_later_settings_read_the_stream_after_earlier_ones(self):
        # one stream: dropping the first setting shifts every later draw
        ch = noisy_gate("CNOT", NoiseSpec("depolarising", 0.3, 0.15))
        settings = minimal_settings(pauli_decompose(gate_witness("CNOT")))
        born = _outcome_probabilities(ch, _substrings(settings))
        plan = ShotPlan(5000, 4)
        full, tail = _sample_counts(born, plan), _sample_counts(born[1:], plan)
        assert not np.array_equal(full[1:], tail)

    def test_certain_outcome_keeps_probability_one(self):
        born = np.zeros((2, 16))
        born[0, 5] = 1.0 - 2.0**-53
        born[1, [0, 3, 12, 15]] = 0.25
        counts = _sample_counts(born, ShotPlan(2**63 - 1, 3))
        assert counts[0, 5] == 2**63 - 1
        assert (counts[1, [0, 3, 12, 15]] > 0).all() and counts[1].sum() == 2**63 - 1


# The stability probe: both gates, the four noises and a 5x5 strength grid
# over [0, 1] (200 cases), with shots spread log-uniformly over 1e3..1e5 and
# one distinct seed per case.
_GRID_STRENGTHS = [str(q) for q in np.linspace(0.0, 1.0, 5)]
_PROBE = [
    (gate, kind, q1, q2, int(10 ** (3 + 2 * (37 * i % 200) / 199)), i)
    for i, (gate, kind, q1, q2) in enumerate(
        (gate, kind, q1, q2)
        for gate in ("cnot", "cz") for kind in NOISE_KINDS
        for q1 in _GRID_STRENGTHS for q2 in _GRID_STRENGTHS)
]


def _rotation_route(ch, substrings):
    """Born vectors by local rotations of the Choi matrix, for the settings of ``substrings``."""
    strings = tuple(all_pauli_strings(4))
    return rotation_born_vectors(ch, [strings[row[15]] for row in substrings])


class TestSeededOutputStability:
    """Seeded ``simulate`` output does not depend on round-off in the Born vectors."""

    def _simulate(self, capsys, path, gate, kind, q1, q2, shots, seed):
        argv = ["simulate", "--gate", gate, "--noise", kind, "--q1", q1, "--q2", q2,
                "--shots", str(shots), "--seed", str(seed), "--out", str(path)]
        assert cli_main(argv) == 0
        return capsys.readouterr().out + path.read_text()

    def test_rotation_route_gives_byte_identical_output(self, capsys, monkeypatch, tmp_path):
        assert len({case[5] for case in _PROBE}) == 200
        assert {min(case[4] for case in _PROBE), max(case[4] for case in _PROBE)} == {1000, 100_000}
        path = tmp_path / "simulate.json"
        package = [self._simulate(capsys, path, *case) for case in _PROBE]
        monkeypatch.setattr(protocol, "_outcome_probabilities", _rotation_route)
        rotated = [self._simulate(capsys, path, *case) for case in _PROBE]
        differing = [case for case, a, b in zip(_PROBE, package, rotated) if a != b]
        assert differing == []

    def test_dust_on_exact_zeros_leaves_counts(self):
        rng = np.random.default_rng(0)
        zeros = 0
        for gate, kind, q1, q2, shots, seed in _PROBE:
            ch = noisy_gate(gate.upper(), NoiseSpec(kind, float(q1), float(q2)))
            settings = minimal_settings(pauli_decompose(gate_witness(gate.upper())))
            born = _outcome_probabilities(ch, _substrings(settings))
            dusted = born.copy()
            mask = born == 0.0
            zeros += int(mask.sum())
            dusted[mask] = rng.uniform(-1e-16, 1e-16, int(mask.sum()))
            plan = ShotPlan(shots, seed)
            assert np.array_equal(_sample_counts(dusted, plan), _sample_counts(born, plan))
        assert zeros > 0

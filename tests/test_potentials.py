"""Boundary-angle potentials: presets, sampling, JSON round trips."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import psfront as pf
from psfront.potentials import DomainError, PotentialSpec


def test_pseudosphere_preset_anchors():
    spec = pf.preset_by_name("pseudosphere")
    assert abs(spec.alpha(0.0)) < 1e-15          # 4 atan(1) - pi
    assert abs(spec.beta(0.0) - np.pi) < 1e-15


def test_vacuum_preset_is_zero():
    spec = pf.preset_by_name("vacuum")
    assert spec.alpha(1.0) == 0.0
    assert np.all(spec.alpha_samples == 0.0)
    assert np.all(spec.beta_samples == 0.0)


def test_kink_preset_values():
    spec = pf.preset_by_name("c0_kink", 0.5)
    assert spec.alpha(-2.0) == 1.0
    assert spec.beta(1.5) == 0.75


def test_preset_by_name_dispatch():
    assert pf.preset_by_name("vacuum").name == "vacuum"
    assert pf.preset_by_name("c0_kink", amplitude=2.0).alpha(1.0) == 2.0
    with pytest.raises(ValueError):
        pf.preset_by_name("klein_bottle")


def test_eta_matrices():
    vac = pf.preset_by_name("vacuum")
    target = 0.5j * np.array([[0, 1], [1, 0]])
    np.testing.assert_allclose(pf.eta_plus(vac, 0.3), target, atol=1e-15)
    np.testing.assert_allclose(pf.eta_minus(vac, -1.0), -target, atol=1e-15)

    quarter = PotentialSpec.from_functions(
        lambda x: np.zeros_like(np.asarray(x, float)),
        lambda y: np.full_like(np.asarray(y, float), np.pi / 2))
    np.testing.assert_allclose(
        pf.eta_minus(quarter, 0.0),
        -0.5j * np.array([[0, 1j], [-1j, 0]]), atol=1e-15)

    kink = pf.preset_by_name("c0_kink", 1.0)
    np.testing.assert_allclose(
        pf.eta_plus(kink, -1.0),
        0.5j * np.array([[0, np.exp(-1j)], [np.exp(1j), 0]]), atol=1e-15)

    ps = pf.preset_by_name("pseudosphere")
    np.testing.assert_allclose(
        pf.eta_minus(ps, 0.0), -0.5j * np.array([[0, -1], [-1, 0]]), atol=1e-12)
    np.testing.assert_allclose(
        pf.eta_plus(ps, 0.0), 0.5j * np.array([[0, 1], [1, 0]]), atol=1e-12)


def test_eta_is_su2_after_assembly():
    spec = pf.preset_by_name("pseudosphere")
    for lam in (0.5, 1.0, 2.0):
        M = lam * pf.eta_plus(spec, 1.3) + pf.eta_minus(spec, -0.7) / lam
        np.testing.assert_allclose(M + M.conj().T, 0.0, atol=1e-15)
        assert abs(np.trace(M)) < 1e-15


def test_vectorized_evaluation_shapes():
    spec = pf.preset_by_name("pseudosphere")
    xs = np.linspace(-1, 1, 7)
    assert pf.eta_plus(spec, xs).shape == (7, 2, 2)
    assert np.isscalar(float(spec.alpha(0.25)))


def test_domain_error():
    spec = pf.preset_by_name("pseudosphere")
    with pytest.raises(DomainError):
        spec.alpha(4.5)
    with pytest.raises(DomainError):
        spec.beta(np.array([0.0, -4.2]))
    spec.alpha(4.0)                              # endpoint itself is fine


SAMPLES = [[-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]


@pytest.mark.parametrize("spec", [
    pf.preset_by_name("pseudosphere"),
    PotentialSpec.from_samples(SAMPLES, SAMPLES, interval=(-1, 1), step=0.25),
], ids=["preset", "samples"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_domain_error_on_a_non_finite_coordinate(spec, bad):
    for side in (spec.alpha, spec.beta):
        with pytest.raises(DomainError):
            side(np.array([0.0, bad]))


def test_lattice_must_contain_origin():
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    with pytest.raises(ValueError):
        PotentialSpec.from_functions(zero, zero, interval=(0.5, 1.5))
    with pytest.raises(ValueError):
        PotentialSpec.from_functions(zero, zero, interval=(-1.0, 1.0001))


@pytest.mark.parametrize("interval,step,needle", [
    ((-4, 4), 0, "step must be positive and finite, got 0"),
    ((-4, 4), -0.25, "step must be positive and finite, got -0.25"),
    ((-4, 4), np.nan, "step must be positive and finite, got nan"),
    ((-4, np.inf), 0.25, "interval [-4.0, inf] spans a non-finite number"),
    ((-1e308, 1e308), 0.25, "spans a non-finite number of steps"),
    # checked before the lattice is allocated
    ((-1e300, 1e300), 0.25, "needs 8e+300 lattice nodes, more than 1048576"),
    ((-4096, 4096), 1 / 256, "needs 2.09715e+06 lattice nodes, more than"),
])
def test_lattice_rejects_a_degenerate_step_or_interval(interval, step, needle):
    zero = lambda t: np.zeros_like(np.asarray(t, float))
    with pytest.raises(ValueError) as err:
        PotentialSpec.from_functions(zero, zero, interval=interval, step=step)
    assert needle in str(err.value)


def test_from_samples_interpolation_rules():
    # one rule, piecewise linear, between the pairs and between lattice nodes
    pairs = [[-1.0, 0.0], [0.0, 2.0], [1.0, 0.0]]
    lin = PotentialSpec.from_samples(pairs, pairs, interval=(-1, 1), step=0.25)
    assert abs(lin.alpha(-0.5) - 1.0) < 1e-15
    assert abs(lin.alpha(0.1) - 1.8) < 1e-15
    with pytest.raises(ValueError, match="unknown key 'interpolation'"):
        pf.from_json({"alpha": {"samples": pairs}, "beta": {"samples": pairs},
                      "interpolation": "piecewise-constant"})
    with pytest.raises(ValueError):
        PotentialSpec.from_samples([[0.0, 1.0, 2.0]], pairs, interval=(-1, 1))


def test_sample_array_shape_validated():
    xs = np.linspace(-1, 1, 9)
    with pytest.raises(ValueError):
        PotentialSpec(xs, np.zeros(5), np.zeros(9))


def test_json_round_trip_preset():
    spec = pf.preset_by_name("c0_kink", 0.75)
    obj = pf.to_json(spec)
    back = pf.from_json(json.dumps(obj))
    assert back.name == spec.name
    np.testing.assert_allclose(back.alpha_samples, spec.alpha_samples)
    assert back.interval == spec.interval and back.step == spec.step


def test_json_round_trip_samples(tmp_path):
    pairs = [[-2.0, 0.0], [0.0, 1.0], [2.0, 0.0]]
    spec = PotentialSpec.from_samples(pairs, pairs, interval=(-2, 2), step=0.5)
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(pf.to_json(spec)))
    back = pf.from_json(str(path))
    np.testing.assert_allclose(back.alpha_samples, spec.alpha_samples)
    np.testing.assert_allclose(back.beta_samples, spec.beta_samples)


def test_json_mixed_sides():
    obj = {"alpha": {"preset": "vacuum"},
           "beta": {"samples": [[-4.0, 1.0], [4.0, 1.0]]},
           "interval": [-4, 4]}
    spec = pf.from_json(obj)
    assert spec.alpha(2.0) == 0.0
    assert abs(spec.beta(0.0) - 1.0) < 1e-15


def test_json_missing_side():
    with pytest.raises(ValueError):
        pf.from_json({"alpha": {"preset": "vacuum"}})


def test_non_finite_samples_rejected():
    with pytest.raises(ValueError, match="finite"):
        PotentialSpec.from_samples([[-4, 0], [0, np.nan], [4, 0]],
                                   [[-4, 0], [4, 0]])
    with pytest.raises(ValueError, match="finite"):
        PotentialSpec.from_functions(lambda x: np.where(x > 1, np.inf, x),
                                     np.zeros_like)


amplitudes = st.floats(-2.0, 2.0, allow_nan=False)
preset_sides = st.one_of(
    st.sampled_from([{"preset": "pseudosphere"}, {"preset": "vacuum"},
                     {"preset": "c0_kink"}]),
    amplitudes.map(lambda a: {"preset": "c0_kink", "amplitude": a}))
# pairs in any order, some outside the interval
sample_sides = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0)),
                        min_size=1, max_size=8).map(
    lambda pairs: {"samples": [list(p) for p in pairs]})
sides = st.one_of(preset_sides, sample_sides)


def preset_of(side):
    """(preset, amplitude) a side resolves to; None for samples."""
    if "preset" not in side:
        return None
    if side["preset"] != "c0_kink":
        return side["preset"], None
    return side["preset"], side.get("amplitude", 1.0)


@settings(max_examples=150)
@given(sides, sides,
       st.sampled_from([((-4, 4), 1 / 256), ((-1, 3), 0.25),
                        ((-2, 0.5), 0.5)]))
# two coordinates so close that the slope between them overflows a float
@example({"preset": "pseudosphere"},
         {"samples": [[2.225073858507203e-309, 0.0], [-5e-324, 1.0]]},
         ((-4, 4), 1 / 256))
def test_json_round_trip_keeps_every_side(alpha, beta, lattice):
    obj = {"alpha": alpha, "beta": beta, "interval": list(lattice[0]),
           "step": lattice[1]}
    spec = pf.from_json(obj)
    back = pf.from_json(json.loads(json.dumps(pf.to_json(spec))))
    assert np.array_equal(back.alpha_samples, spec.alpha_samples)
    assert np.array_equal(back.beta_samples, spec.beta_samples)
    assert (back.xs.tolist(), back.name) == (spec.xs.tolist(), spec.name)
    one_preset = preset_of(alpha) is not None \
        and preset_of(alpha) == preset_of(beta)
    assert (spec.name is not None) == one_preset
    for side, samples in ((alpha, spec.alpha_samples),
                          (beta, spec.beta_samples)):
        if preset_of(side) and preset_of(side)[0] == "c0_kink":
            kink = preset_of(side)[1] * np.abs(spec.xs)
            assert np.array_equal(samples, kink)
        if "samples" in side:       # linear reading stays inside the values
            values = [v for _, v in side["samples"]]
            assert min(values) - 1e-12 <= samples.min()
            assert samples.max() <= max(values) + 1e-12


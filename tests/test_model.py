import math

import numpy as np
import pytest

from midpredict import expressions
from midpredict.model import (
    ModelError,
    check_triangular,
    demo_system,
    make_system,
    parse_system_config,
)
from oracles import canonical_weights, dilate, shift_map

RNG = np.random.default_rng(20240811)


def test_canonical_weights():
    assert canonical_weights(4) == (1, 2, 3, 4)
    with pytest.raises(ModelError):
        canonical_weights(0)


def test_dilate_identity_at_one():
    assert np.allclose(dilate((1, 2), 1.0, [3.0, -4.0]), [3.0, -4.0])


def test_dilate_direct():
    assert np.allclose(dilate((1, 2), 2.0, [1.0, 1.0]), [2.0, 4.0])


def test_dilate_group_law_example():
    r = (1, 2, 3)
    x = np.array([1.0, 1.0, 1.0])
    assert np.allclose(dilate(r, 0.5, dilate(r, 2.0, x)), x)


def test_dilate_rejects_nonpositive_scale():
    with pytest.raises(ModelError):
        dilate((1, 2), 0.0, [1.0, 2.0])


def test_dilate_group_law_randomized():
    for _ in range(200):
        n = int(RNG.integers(1, 7))
        r = RNG.uniform(0.2, 3.0, n)
        x = RNG.standard_normal(n)
        lam, mu = RNG.uniform(0.2, 5.0, 2)
        left = dilate(r, mu, dilate(r, lam, x))
        right = dilate(r, mu * lam, x)
        assert np.allclose(left, right, rtol=1e-12, atol=1e-300)


def test_shift_commutation_randomized():
    # the up-shift map gains exactly one dilation power under scaling
    for _ in range(200):
        n = int(RNG.integers(1, 8))
        r = canonical_weights(n)
        x = RNG.standard_normal(n)
        lam = RNG.uniform(0.1, 10.0)
        left = shift_map(dilate(r, lam, x))
        right = lam * dilate(r, lam, shift_map(x))
        assert np.allclose(left, right, rtol=1e-12, atol=1e-250)


def test_check_triangular_demo():
    assert check_triangular(demo_system()) is True


def test_check_triangular_rejects_upper_dependence():
    from midpredict.expressions import parse_expression
    from midpredict.model import CanonicalSystem

    system = CanonicalSystem(
        n=2,
        phi=(parse_expression("x2", ["x1", "x2", "u"]), parse_expression("0", [])),
        gamma=(0.0, 0.0),
        h=0.1,
        u_signal=parse_expression("0", ["t"]),
    )
    assert check_triangular(system) is False
    with pytest.raises(ModelError):
        make_system(2, ["x2", "0"], [0.0, 0.0], 0.1)


def test_check_triangular_constant_field():
    sys3 = make_system(3, ["0", "0", "0"], [0.0, 0.0, 0.0], 0.0)
    assert check_triangular(sys3) is True


def test_demo_system_shape():
    system = demo_system(0.25)
    assert system.n == 2
    assert system.h == 0.25
    assert system.gamma == (0.0, 1.1)
    assert system.input_value(0.0) == 0.0
    assert system.input_value(5.0) == pytest.approx(0.1 * math.sin(0.5), abs=1e-15)


def test_phi_value_demo():
    system = demo_system()
    out = system.phi_value([1.0, 0.0], 0.0)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-1.0 + 0.5 * math.tanh(1.0), abs=1e-14)


def test_dilated_lipschitz_bound_demo():
    # scaling the error up, applying the field difference, and scaling back
    # down never exceeds the aggregate constant, the root-sum-square of gamma
    system = demo_system()
    gamma_phi = float(np.linalg.norm(system.gamma))
    r = canonical_weights(2)
    for _ in range(200):
        x = RNG.uniform(-5.0, 5.0, 2)
        e = RNG.standard_normal(2) * 10.0 ** RNG.uniform(-3, 2)
        lam = RNG.uniform(1.0, 100.0)
        u = RNG.uniform(-0.1, 0.1)
        big = system.phi_value(x + dilate(r, lam, e), u) - system.phi_value(x, u)
        val = np.linalg.norm(dilate(r, 1.0 / lam, big))
        assert val <= gamma_phi * np.linalg.norm(e) * (1.0 + 1e-9)


DEMO_CONFIG = """
    # demo configuration
    n = 2
    h = 0.25
    phi = ["0", "-x1 + 0.5*tanh(x1+x2) + x1*u"]
    gamma = [0.0, 1.1]
    u = "0.1*sin(0.1*t)"
"""


def test_parse_system_config_round_trip():
    system = parse_system_config(DEMO_CONFIG)
    assert system.n == 2
    assert system.h == 0.25
    assert system.gamma == (0.0, 1.1)


@pytest.mark.parametrize("line", [
    "u = 5", "phi = [1, 2]", "phi = 5", "phi = '01'", "gamma = 'ab'", "gamma = [0, None]",
    "gamma = [1e999, 0]", "gamma = [True, 0]", "gamma = {0: 0, 1: 1}", "n = [2]", "n = 2.7",
    "n = 2.0", "n = True", "h = 1e999", "h = -1e999", "h = '1'", "h = None", "h = False",
])
def test_parse_system_config_refuses_a_value_of_the_wrong_type(line):
    # a later line overrides the demo's value of the same key
    with pytest.raises(ModelError):
        parse_system_config(DEMO_CONFIG + line)


def test_parse_system_config_keeps_integers_and_tuples():
    system = parse_system_config(DEMO_CONFIG + "h = 1\ngamma = (0, 2)\nphi = ('0', 'x1')")
    assert (system.h, system.gamma) == (1.0, (0.0, 2.0))
    assert system.phi_value([3.0, 0.0], 0.0).tolist() == [0.0, 3.0]


def test_building_and_evaluating_a_system_compiles_nothing(monkeypatch):
    def refuse(name, source):
        raise AssertionError("compiled " + name)

    monkeypatch.setattr(expressions, "_define", refuse)
    built = make_system(2, ["0", "-x1 + 0.5*tanh(x1+x2) + x1*u"], [0.0, 1.1], 0.25,
                        "0.1*sin(0.1*t)")
    for system in (built, demo_system(0.25)):
        assert system.phi_value([1.0, 0.0], 0.0).tolist() == [0.0, -1.0 + 0.5 * math.tanh(1.0)]
        assert system.input_value(5.0) == 0.1 * math.sin(0.1 * 5.0)


def test_parse_system_config_missing_key():
    with pytest.raises(ModelError):
        parse_system_config("n = 2\nh = 0.1\nphi = ['0', '0']")


def test_parse_system_config_unknown_key():
    with pytest.raises(ModelError):
        parse_system_config("n = 1\nh = 0\nphi = ['0']\ngamma = [0]\nbogus = 1")

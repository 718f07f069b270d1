import math

import numpy as np
import pytest

from midpredict import expressions
from midpredict.model import (
    ModelError,
    demo_system,
    make_system,
    parse_system_config,
)
from oracles import canonical_weights, dilate

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


def test_check_triangular_demo():
    # the demo's second component reads x2, which component 1 may not
    demo = "-x1 + 0.5*tanh(x1+x2) + x1*u"
    assert make_system(2, ["0", demo], [0.0, 1.1], 0.25).phi == demo_system().phi
    with pytest.raises(ModelError, match="not triangular"):
        make_system(2, [demo, "0"], [0.0, 1.1], 0.25)


def test_check_triangular_rejects_upper_dependence():
    # component i is parsed over x1..xi and u; a name past xn is unknown
    with pytest.raises(ModelError, match="^field is not triangular: component i may use "
                       "x1..xi and u only$"):
        make_system(2, ["x2", "0"], [0.0, 0.0], 0.1)
    with pytest.raises(expressions.UnknownNameError, match="'x3'"):
        make_system(2, ["x1", "x3"], [0.0, 0.0], 0.1)


def test_check_triangular_constant_field():
    sys3 = make_system(3, ["0", "0", "0"], [0.0, 0.0, 0.0], 0.0)
    assert sys3.phi == (expressions.Num(0.0),) * 3


def test_a_field_at_the_depth_limit_builds_at_any_caller_depth():
    # building walks no tree recursively: only the kernel's emitter does
    system = make_system(1, ["x1" + "*x1" * (expressions.MAX_DEPTH - 1)], [0.0], 0.5)
    assert system.n == 1


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

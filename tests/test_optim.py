import numpy as np
import pytest

from fallgcn.autodiff import parameter
from fallgcn.optim import SgdState, sgd_step


def test_plain_sgd_step():
    p = parameter(np.array(1.0))
    state = SgdState(learning_rate=0.1, momentum=0.0)
    sgd_step([p], [np.array(1.0)], state)
    assert np.isclose(p.data, 0.9)


def test_momentum_accumulates_velocity():
    # two identical unit gradients: steps of lr*1 then lr*1.9
    p = parameter(np.array(1.0))
    state = SgdState(learning_rate=0.1, momentum=0.9)
    sgd_step([p], [np.array(1.0)], state)
    assert np.isclose(p.data, 0.9)
    sgd_step([p], [np.array(1.0)], state)
    assert np.isclose(p.data, 0.9 - 0.19)


def test_zero_gradient_decays_velocity_only():
    p = parameter(np.array(1.0))
    state = SgdState(learning_rate=0.1, momentum=0.9)
    sgd_step([p], [np.array(2.0)], state)
    after_first = float(p.data)
    sgd_step([p], [np.array(0.0)], state)
    assert np.isclose(state.velocities[0], 2.0 * 0.9)
    assert np.isclose(p.data, after_first - 0.1 * 1.8)
    # with no momentum and zero gradient the parameter is untouched
    q = parameter(np.array(5.0))
    state2 = SgdState(learning_rate=0.1, momentum=0.0)
    sgd_step([q], [np.array(0.0)], state2)
    assert q.data == 5.0


def test_velocity_shapes_must_match():
    p = parameter(np.ones((2, 2)))
    state = SgdState()
    with pytest.raises(ValueError, match="shape"):
        sgd_step([p], [np.ones(3)], state)
    with pytest.raises(ValueError, match="shape mismatch for parameter 1"):
        sgd_step([parameter(np.ones(3)), p], [np.ones(3), np.ones(3)], SgdState())
    with pytest.raises(ValueError, match="grads"):
        sgd_step([p], [], SgdState())

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def _checkpoint_file(header, n_params: int) -> bytes:
    """Magic, header length, JSON header and n_params zero parameters, in
    the layout dqn.save_checkpoint writes."""
    blob = json.dumps(header).encode()
    return b"QNETCKPT" + struct.pack("<I", len(blob)) + blob + np.zeros(n_params).astype("<f8").tobytes()


_MALFORMED_CHECKPOINTS = {
    "magic_only": b"QNETCKPT",
    "no_n_params": _checkpoint_file({"config": None, "layer_shapes": [[3, 2]]}, 8),
    "list_header": _checkpoint_file([[3, 2]], 8),
    "float_shape": _checkpoint_file({"config": None, "layer_shapes": [[2.5, 2]], "n_params": 7}, 7),
}


@pytest.fixture(params=sorted(_MALFORMED_CHECKPOINTS))
def malformed_checkpoint(request, tmp_path):
    """Path of a hand-written checkpoint whose header cannot describe a
    network."""
    path = tmp_path / f"{request.param}.ckpt"
    path.write_bytes(_MALFORMED_CHECKPOINTS[request.param])
    return path

import numpy as np

import xstates.dense
from conftest import random_valid_params
from xstates import XParams, to_dense, werner

# The public names of the package: closed forms only, plus ``to_dense``.
PUBLIC_NAMES = [
    "ChannelResult", "Direction", "EPS_PSD", "EPS_TRACE",
    "InfoReport", "InvalidAngleError", "InvalidSpectrumError", "InvalidStateError",
    "ShannonReport", "StateClass", "TomogramTable", "XParams", "ZeroDenominatorError",
    "apply_power_channel", "classify", "concurrence",
    "direction_pairs", "marginals", "negativity", "ppt",
    "shannon_report_from_table", "spectrum", "system_entropies", "to_dense", "tomogram",
    "validate", "von_neumann_entropy", "werner", "werner_entanglement_threshold",
    "werner_entanglement_threshold_lower",
]


def test_public_names():
    assert sorted(xstates.__all__) == PUBLIC_NAMES
    assert all(hasattr(xstates, name) for name in PUBLIC_NAMES)
    assert xstates.dense.to_dense is to_dense


class TestToDense:
    def test_entry_placement(self):
        m = to_dense(XParams(a=0.33, b=0.17, c=0.1j, d=0.05))
        assert m[0, 0] == 0.33 and m[3, 3] == 0.33
        assert m[1, 1] == 0.17 and m[2, 2] == 0.17
        assert m[1, 2] == 0.1j and m[2, 1] == -0.1j
        assert m[0, 3] == 0.05 and m[3, 0] == 0.05

    def test_off_pattern_zero(self):
        m = to_dense(werner(0.7))
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)):
            assert m[i, j] == 0

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = to_dense(random_valid_params(rng))
            assert np.max(np.abs(m - m.conj().T)) == 0

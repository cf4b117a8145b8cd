from dataclasses import asdict

import numpy as np
import pytest

import abas
from perfbench.workloads import WORKLOADS, make_inputs

SEED_FIELDS = {"seed"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_inputs_and_nothing_else(name):
    w = WORKLOADS[name]
    a, b, a2 = make_inputs(w, 1, abas), make_inputs(w, 2, abas), make_inputs(w, 1, abas)
    for cfg_a, cfg_b in ((a.train_config, b.train_config), (a.vocode_config, b.vocode_config)):
        da, db = asdict(cfg_a), asdict(cfg_b)
        assert {k for k in da if da[k] != db[k]} == SEED_FIELDS
    assert a.vocode_seed != b.vocode_seed
    assert [c.shape for c in a.clips] == [c.shape for c in b.clips]
    assert all(not np.array_equal(x, y) for x, y in zip(a.clips, b.clips))
    # the corpus the training config describes differs too
    ca, cb = abas.train.load_corpus(a.train_config), abas.train.load_corpus(b.train_config)
    assert not np.array_equal(ca[0], cb[0])
    # and the same seed gives the same inputs
    assert asdict(a.train_config) == asdict(a2.train_config)
    assert all(np.array_equal(x, y) for x, y in zip(a.clips, a2.clips))

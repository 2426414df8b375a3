"""The keyed random streams every stochastic component draws from."""

import numpy as np

from stripesim.streams import stream, tag_id


def test_stream_is_pcg64_seeded_by_its_key():
    g = stream(7, 0, 3, "booster")
    assert type(g.bit_generator) is np.random.PCG64
    assert g.bit_generator.seed_seq.entropy == [7, 0, 3, tag_id("booster")]
    assert stream(7, 0, 3, "booster").integers(0, 1 << 62, 4).tolist() == \
        g.integers(0, 1 << 62, 4).tolist()

"""Stream canary: the first values of each numpy random stream that the
goldens read, drawn as the program draws them. The goldens were written
under one numpy; when one of them changes, this test names the stream that
moved, or shows that none did and the change lies in qic or in numpy's
arithmetic."""

import math

import numpy as np
import pytest


def split_permutation(r):
    # data.split: repetition r of master seed 1234 permutes the rows of a
    # 100-row Table-2 dataset
    return np.random.default_rng(np.random.SeedSequence((1234, r))).permutation(100)[:10]


def circles_draws():
    # data.circles: 100 angles, then the jitter of 100 points, from seed 0
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2.0 * math.pi, 100)
    jitter = rng.normal(0.0, 0.05, (100, 2))
    return angles[[0, 1, 2, 99]], jitter.ravel()[:3]


def sampler_uniforms(seed):
    # classifier.interfere_and_sample: the shot uniforms of default_rng(seed)
    return np.random.default_rng(seed).random(3)


STREAMS = {
    "split-permutation-1234-r0": (lambda: split_permutation(0),
                                  [26, 86, 84, 56, 66, 40, 89, 81, 99, 19]),
    "split-permutation-1234-r1": (lambda: split_permutation(1),
                                  [59, 42, 97, 72, 91, 36, 65, 20, 68, 9]),
    "split-permutation-1234-r2": (lambda: split_permutation(2),
                                  [78, 98, 35, 64, 90, 53, 9, 12, 76, 26]),
    "circles-uniform-angles": (lambda: circles_draws()[0],
                               [4.002148315014479, 1.6951199159934145,
                                0.25744424357926954, 5.1671271502276594]),
    "circles-normal-jitter": (lambda: circles_draws()[1],
                              [-0.06706098570383345, -0.0700760107458714,
                               0.025134142493743284]),
    "sampler-random-1234": (lambda: sampler_uniforms(1234),
                            [0.9766997666981422, 0.3801957350196178, 0.9232462337639554]),
    "sampler-random-0": (lambda: sampler_uniforms(0),
                         [0.6369616873214543, 0.2697867137638703, 0.04097352393619469]),
}


@pytest.mark.parametrize("draw, pinned", STREAMS.values(), ids=STREAMS.keys())
def test_stream_starts_with_its_pinned_values(draw, pinned, request):
    got = draw().tolist()
    assert got == pinned, f"numpy stream {request.node.callspec.id} changed: {got}"

"""The batched von Neumann sampler against the per-sample code it
replaced, which is kept below as the reference.

operators._draw_samples draws every sample of von_neumann_check into one
coefficient tensor, with one QR per group of colligations and one
recurrence per group for the Taylor truncations.  It is required to
agree bit for bit with drawing one sample at a time: the same rng
stream, the same coefficients (compared as bytes), and the same terms
in the same insertion order.
"""

import numpy as np
import pytest

from polydisklab.operators import _draw_samples, _sample_polynomial
from polydisklab.polynomials import Polynomial, _coefficient_stack, random_polynomial

# ---------------------------------------------------------------------------
# per-sample reference: one colligation and QR, and one dictionary
# recurrence on length-q vectors, per Taylor truncation; one Polynomial
# per sample


def ref_random_colligation(rng, d, max_block):
    blocks = [int(rng.integers(1, max_block + 1)) for _ in range(d)]
    q = sum(blocks)
    Z = rng.normal(size=(q + 1, q + 1)) + 1j * rng.normal(size=(q + 1, q + 1))
    Q, Rm = np.linalg.qr(Z)
    Q = Q * (np.diag(Rm) / np.abs(np.diag(Rm)))[None, :]
    reps = np.concatenate([[r] * blocks[r] for r in range(d)])
    return Q[0, 0], Q[0, 1:], Q[1:, 0], Q[1:, 1:], reps


def ref_transfer_taylor(rng, d, degree):
    A, Bv, Cv, Dm, reps = ref_random_colligation(rng, d, 2)
    masks = [reps == r for r in range(d)]

    coeffs = {(0,) * d: A}
    # state[expo] = accumulated row vector B E_{r1} D E_{r2} ... D E_{rm}
    state = {}
    for r in range(d):
        e = [0] * d
        e[r] = 1
        state[tuple(e)] = Bv * masks[r]
    for _level in range(degree):
        for e, u in state.items():
            coeffs[e] = coeffs.get(e, 0.0) + u @ Cv
        if _level == degree - 1:
            break
        nxt = {}
        for e, u in state.items():
            uD = u @ Dm
            for r in range(d):
                e2 = list(e)
                e2[r] += 1
                key = tuple(e2)
                add = uD * masks[r]
                if key in nxt:
                    nxt[key] = nxt[key] + add
                else:
                    nxt[key] = add
        state = nxt
    return Polynomial(d, coeffs)


def ref_sample_test_polynomial(rng, d, max_degree):
    if rng.uniform() < 0.7:
        return random_polynomial(rng, d, int(rng.integers(1, max_degree + 1)))
    return ref_transfer_taylor(rng, d, max_degree)


# ---------------------------------------------------------------------------


def _assert_same_polynomial(got, want):
    assert list(got.coeffs) == list(want.coeffs)
    assert (np.array(list(got.coeffs.values()), dtype=complex).tobytes()
            == np.array(list(want.coeffs.values()), dtype=complex).tobytes())


class TestDrawSamples:
    @pytest.mark.parametrize("d, seeds, samples, max_degree", [
        (1, 4, 600, 6),
        (2, 4, 600, 6),
        (3, 3, 400, 6),
        # up to 8 state dimensions: dot products past BLAS's unrolled block
        (4, 1, 150, 6),
        (2, 2, 300, 3),
    ])
    def test_matches_one_draw_at_a_time(self, d, seeds, samples, max_degree):
        kinds = set()
        for seed in range(seeds):
            rng = np.random.default_rng(9000 + 100 * d + seed)
            ref_rng = np.random.default_rng(9000 + 100 * d + seed)
            C, taylor = _draw_samples(rng, d, samples, max_degree)
            want = [ref_sample_test_polynomial(ref_rng, d, max_degree)
                    for _ in range(samples)]
            assert C.shape == (samples,) + (max_degree + 1,) * d
            assert C.tobytes() == _coefficient_stack(want, C.shape[1:]).tobytes()
            for row, t, p in zip(C, taylor, want):
                _assert_same_polynomial(_sample_polynomial(row, t), p)
            # the stream is left where the per-sample draws leave it
            assert rng.uniform() == ref_rng.uniform()
            kinds.update(taylor.tolist())
        assert kinds == {False, True}

    def test_batches_of_one_continue_the_stream(self):
        rng = np.random.default_rng(41)
        whole, whole_taylor = _draw_samples(rng, 2, 60, 6)
        rng = np.random.default_rng(41)
        parts = [_draw_samples(rng, 2, size, 6) for size in (1, 7, 1, 0, 21, 30)]
        assert np.concatenate([C for C, _t in parts]).tobytes() == whole.tobytes()
        assert np.array_equal(np.concatenate([t for _C, t in parts]), whole_taylor)

    def test_no_samples(self):
        C, taylor = _draw_samples(np.random.default_rng(0), 3, 0, 6)
        assert C.shape == (0, 7, 7, 7) and taylor.shape == (0,)

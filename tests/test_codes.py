import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import (
    CssCodePair,
    LinearCode,
    codewords,
    coset_representatives,
    dual,
    empirical_goodness,
    h2,
    load_code_pair,
    macwilliams_transform,
    meets_rate_bound,
    min_weight,
    r_css,
    sample_random_css,
    save_code_pair,
    steane_code,
    weight_distribution,
)
from corrqec.errors import DomainError, SizeLimitError

HAMMING_ROWS = [0b1111000, 0b1100110, 0b1010101]


def hamming74() -> LinearCode:
    return dual(LinearCode.from_rows(7, HAMMING_ROWS))


def random_code(n: int, dim: int, rng: np.random.Generator) -> LinearCode:
    while True:
        rows = [int(r) for r in rng.integers(1, 1 << n, size=dim)]
        code = LinearCode.from_rows(n, rows)
        if code.dim == dim:
            return code


def test_from_rows_canonical_and_contains():
    rep = LinearCode.from_rows(3, [0b111, 0b111])
    assert rep.dim == 1
    assert rep.contains(0b111) and rep.contains(0)
    assert not rep.contains(0b011)


def test_dual_of_repetition_is_even_weight_code():
    ev = dual(LinearCode.from_rows(3, [0b111]))
    assert ev.dim == 2
    assert weight_distribution(ev) == [1, 0, 3, 0]


@settings(max_examples=25)
@given(n=st.integers(2, 10), data=st.data())
def test_dual_involution(n, data):
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    code = LinearCode.from_rows(n, rows)
    assert dual(dual(code)) == code
    assert code.dim + dual(code).dim == n


def test_min_weight_known_codes():
    assert min_weight(hamming74()) == 3
    assert min_weight(LinearCode.from_rows(7, HAMMING_ROWS)) == 4
    assert min_weight(LinearCode.from_rows(5, [0b11111])) == 5


def test_min_weight_dimension_cap():
    rows = [1 << j for j in range(25)]
    with pytest.raises(SizeLimitError):
        min_weight(LinearCode.from_rows(30, rows))


def test_weight_distribution_sums_to_size(rng):
    code = random_code(9, 4, rng)
    dist = weight_distribution(code)
    assert sum(dist) == 1 << code.dim
    assert dist[0] == 1


def test_macwilliams_hamming_simplex():
    ham = hamming74()
    simplex = dual(ham)
    assert macwilliams_transform(weight_distribution(ham), 7) == weight_distribution(
        simplex
    )
    # and back again
    assert macwilliams_transform(weight_distribution(simplex), 7) == (
        weight_distribution(ham)
    )


@settings(max_examples=15)
@given(n=st.integers(2, 12), data=st.data())
def test_macwilliams_random_codes(n, data):
    rows = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    code = LinearCode.from_rows(n, rows)
    assert macwilliams_transform(weight_distribution(code), n) == (
        weight_distribution(dual(code))
    )


def test_binary_entropy_values():
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.5) == 1.0
    assert h2(0.11) == pytest.approx(0.49998, abs=1e-4)
    assert h2(0.3) == h2(0.7)


def test_rate_bound_zero_crossing():
    # R(delta) = 1 - 2 h2(delta) crosses zero near delta = 0.11
    assert abs(r_css(0.11)) < 2e-4
    lo, hi = 0.05, 0.11
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if r_css(mid) > 0.062:
            lo = mid
        else:
            hi = mid
    # rate 0.062 is attained at relative distance almost exactly 0.1
    assert 0.5 * (lo + hi) == pytest.approx(0.100, abs=5e-4)


def test_steane_structure():
    pair = steane_code()
    assert (pair.n, pair.k, pair.d1, pair.d, pair.t) == (7, 1, 3, 3, 1)
    assert pair.c2.is_subcode(pair.c1)
    assert dual(pair.c1) == pair.c2


def test_steane_dual_distance_is_four():
    # every nonzero word of the [7,3] dual has weight exactly 4
    pair = steane_code()
    assert pair.d1perp == 4
    assert weight_distribution(dual(pair.c1)) == [1, 0, 0, 0, 7, 0, 0, 0]


def test_css_pair_field_consistency_enforced():
    pair = steane_code()
    with pytest.raises(DomainError):
        CssCodePair(pair.c1, pair.c2, 0, pair.d1, pair.d1perp, pair.d, pair.t)
    with pytest.raises(DomainError):
        CssCodePair(pair.c1, pair.c2, 1, pair.d1, pair.d1perp, pair.d + 1, pair.t)


def test_from_codes_rejects_non_nested():
    c1 = LinearCode.from_rows(3, [0b011])
    c2 = LinearCode.from_rows(3, [0b111])
    with pytest.raises(DomainError):
        CssCodePair.from_codes(c1, c2)


def test_sample_random_css_shapes_and_reproducibility():
    rng = np.random.default_rng(7)
    pair = sample_random_css(15, 1, rng)
    assert pair.k == 1
    assert pair.c1.dim == 8 and pair.c2.dim == 7
    assert pair.c2.is_subcode(pair.c1)
    again = sample_random_css(15, 1, np.random.default_rng(7))
    assert again.c1 == pair.c1 and again.c2 == pair.c2


def test_sample_random_css_rejects_bad_sizes(rng):
    with pytest.raises(DomainError):
        sample_random_css(10, 0, rng)
    with pytest.raises(DomainError):
        sample_random_css(10, 10, rng)


def test_sample_random_css_odd_split(rng):
    # odd n - k is allowed; the subcode dimension is floored
    pair = sample_random_css(11, 2, rng)
    assert pair.k == 2
    assert pair.c2.dim == 4 and pair.c1.dim == 6


def test_rate_bound_vacuous_at_negative_rate():
    # Steane's d/n is far beyond the zero crossing, so the bound is <= 0
    # and any nonnegative rate clears it
    assert meets_rate_bound(steane_code(), 1.0)


def test_empirical_goodness_monotone_in_epsilon():
    # bound is k/n >= (1 - eps) * R, so slack grows with eps
    fracs = [
        empirical_goodness(14, 2, eps, 30, np.random.default_rng(3))
        for eps in (0.1, 0.5, 1.0)
    ]
    for a, b in zip(fracs, fracs[1:]):
        assert b >= a
    assert fracs[0] < 1.0  # the strict regime really rejects some samples
    assert fracs[-1] == 1.0  # eps = 1 degenerates to k/n >= 0


def test_empirical_goodness_improves_with_block_length():
    # same rate and epsilon, doubled length; Wilson intervals must overlap
    # or favor the longer code
    small = empirical_goodness(10, 1, 0.5, 60, np.random.default_rng(5))
    large = empirical_goodness(20, 2, 0.5, 60, np.random.default_rng(5))
    se = math.sqrt(0.25 / 60)
    assert large >= small - 3 * se


def test_coset_representatives_steane():
    pair = steane_code()
    reps = coset_representatives(pair)
    assert len(reps) == 2
    assert reps[0] == 0
    # the representative is the lexicographically smallest member of its coset
    other = reps[1]
    coset = {other ^ c for c in _all_words(dual(pair.c1))}
    assert other == min(coset, key=lambda v: _lex(v, 7))


def _all_words(code: LinearCode) -> list[int]:
    words = [0]
    for g in code.generators:
        words += [w ^ g for w in words]
    return words


def _lex(vec: int, n: int) -> str:
    return "".join("1" if (vec >> j) & 1 else "0" for j in range(n))


def test_codewords_steane_sixteen_terms():
    states = codewords(steane_code())
    assert len(states) == 2
    mats = []
    for st_ in states:
        nz = np.flatnonzero(st_.amplitudes)
        assert len(nz) == 16
        assert np.allclose(np.abs(st_.amplitudes[nz]), 0.25)
        mats.append(st_.amplitudes)
    gram = np.array(mats) @ np.array(mats).conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_save_load_roundtrip(tmp_path, rng):
    pair = sample_random_css(12, 2, rng)
    path = tmp_path / "pair.code"
    save_code_pair(path, pair)
    loaded = load_code_pair(path)
    assert loaded == pair


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("3 1 2 1\n111\n")
    with pytest.raises((DomainError, ValueError)):
        load_code_pair(path)


@pytest.mark.parametrize("row", ["1x1", "11", "1 1", "1_1"])
def test_load_rejects_bad_generator_row(tmp_path, row):
    path = tmp_path / "bad.code"
    path.write_text(f"3 1 1 0\n{row}\n")
    with pytest.raises(DomainError, match=r"bad generator row"):
        load_code_pair(path)

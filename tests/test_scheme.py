import itertools

import numpy as np
import pytest

import hamrecon as hr
from hamrecon import scheme

from oracles import face, full_support, hamming_distance, sphere, weight_support


def test_hamming_distance_examples():
    assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert hamming_distance((0, 1, 2), (0, 1, 0)) == 1
    assert hamming_distance((0, 1, 2, 1), (1, 2, 1, 2)) == 4
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0, 1, 2))


def test_distance_symmetric_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    p = hr.SchemeParams(4, 5)
    for _ in range(100):
        a = tuple(rng.integers(0, 4, 5))
        b = tuple(rng.integers(0, 4, 5))
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
    del p


def test_weight_support():
    assert weight_support((0, 0, 0, 0)) == (0, ())
    assert weight_support((0, 1, 0, 2)) == (2, (2, 4))
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = tuple(rng.integers(0, 3, 4))
        assert hr.weight(a) == hamming_distance(a, (0, 0, 0, 0))


def test_sphere_enumeration_counts_and_members():
    p = hr.SchemeParams(3, 2)
    got = set(sphere(p, (0, 0), 1))
    assert got == {(0, 1), (0, 2), (1, 0), (2, 0)}
    assert len(got) == 4  # C(2,1) * (q-1)

    import math

    for q, n in ((3, 4), (4, 3)):
        pp = hr.SchemeParams(q, n)
        center = tuple([1] * n)
        for r in range(n + 1):
            words = list(sphere(pp, center, r))
            assert len(words) == math.comb(n, r) * (q - 1) ** r
            assert len(set(words)) == len(words)
            assert all(hamming_distance(w, center) == r for w in words)
    with pytest.raises(ValueError):
        list(sphere(p, (0, 0), 3))


def test_face_enumeration():
    p = hr.SchemeParams(3, 2)
    assert list(face(p, (1,), (0, 0))) == [(0, 0), (1, 0), (2, 0)]
    pp = hr.SchemeParams(3, 4)
    anchor = (1, 2, 0, 1)
    words = list(face(pp, (2, 4), anchor))
    assert len(words) == 9  # q^|I|
    assert all(w[0] == 1 and w[2] == 0 for w in words)
    with pytest.raises(ValueError):
        list(face(p, (0,), (0, 0)))


def test_full_support_enumeration():
    p = hr.SchemeParams(3, 2)
    assert list(full_support(p, (1, 2))) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    pp = hr.SchemeParams(4, 4)
    words = list(full_support(pp, (1, 3)))
    assert len(words) == 9  # (q-1)^|I|
    assert all(hr.support(w) == (1, 3) for w in words)
    # lexicographic order of the text forms
    texts = [hr.word_text(w) for w in words]
    assert texts == sorted(texts)


def test_orthogonal_faces_meet_in_exactly_the_anchor():
    for q, n in ((3, 3), (4, 3)):
        p = hr.SchemeParams(q, n)
        anchor = (1, 0, 2)
        for k in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), k):
                a = set(face(p, I, anchor))
                b = set(face(p, hr.complement(I, n), anchor))
                assert a & b == {anchor}


def test_full_support_is_smaller_hamming_space():
    # distances inside S^I match the (q-1)-ary Hamming space after v -> v-1
    for q in (3, 4):
        for k in (1, 2, 3):
            n = k + 1
            p = hr.SchemeParams(q, n)
            I = tuple(range(1, k + 1))
            words = list(full_support(p, I))
            relabeled = [tuple(w[i - 1] - 1 for i in I) for w in words]
            assert all(0 <= x <= q - 2 for w in relabeled for x in w)
            for a, b in itertools.combinations(range(len(words)), 2):
                assert hamming_distance(words[a], words[b]) == hamming_distance(
                    relabeled[a], relabeled[b]
                )


def test_rank_word_round_trip_and_text():
    p = hr.SchemeParams(3, 4)
    for rank in range(p.size):
        w = hr.rank_word(p, rank)
        assert hr.word_rank(p, w) == rank
    assert hr.word_text((0, 1, 2, 0)) == "0120"
    assert hr.parse_word(p, "0120") == (0, 1, 2, 0)
    with pytest.raises(ValueError):
        hr.parse_word(p, "013")
    with pytest.raises(ValueError):
        hr.rank_word(p, p.size)


def test_rank_texts_and_text_ranks_match_per_word_forms():
    for q, n in ((3, 4), (4, 3), (10, 2)):
        p = hr.SchemeParams(q, n)
        ranks = np.arange(p.size)[::-1]
        texts = scheme.rank_texts(p, ranks)
        assert texts == [hr.word_text(hr.rank_word(p, int(r))) for r in ranks]
        assert np.array_equal(scheme.text_ranks(p, texts), ranks)
        assert [hr.word_rank(p, hr.parse_word(p, t)) for t in texts] == ranks.tolist()
    assert scheme.text_ranks(hr.SchemeParams(3, 4), []).shape == (0,)
    # digits above 9 have no text form
    wide = hr.SchemeParams(11, 2)
    assert scheme.rank_texts(wide, [hr.word_rank(wide, (9, 9))]) == ["99"]
    with pytest.raises(ValueError):
        scheme.rank_texts(wide, [hr.word_rank(wide, (10, 0))])
    with pytest.raises(ValueError):
        scheme.text_ranks(wide, ["00"])


def test_params_validation(monkeypatch):
    with pytest.raises(ValueError):
        hr.SchemeParams(2, 4)
    with pytest.raises(ValueError):
        hr.SchemeParams(3, 0)
    with pytest.raises(ValueError):
        hr.SchemeParams(3, 11)  # 3^11 > 65536
    monkeypatch.setenv(scheme.MAX_STATES_ENV, str(3**11))
    assert hr.SchemeParams(3, 11).size == 3**11
    monkeypatch.setenv(scheme.MAX_STATES_ENV, "100")
    with pytest.raises(ValueError):
        hr.SchemeParams(3, 5)


def test_position_helpers():
    assert hr.complement((2, 4), 5) == (1, 3, 5)
    with pytest.raises(ValueError):
        scheme.check_positions((0,), 4)
    with pytest.raises(ValueError):
        scheme.check_positions((1, 1), 4)
    assert scheme.check_positions((4, 2), 4) == (2, 4)


def test_weight_table_matches_enumeration():
    p = hr.SchemeParams(4, 3)
    wt = scheme.weight_table(4, 3)
    for rank in range(p.size):
        assert wt[rank] == hr.weight(hr.rank_word(p, rank))

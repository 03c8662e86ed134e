import pytest

from pbzlogic import (
    Orthopair,
    TermError,
    Universe,
    UniverseMismatchError,
    all_knowledge_bases,
    all_orthopairs,
    bottom,
    brouwer,
    default_universe,
    eval_term,
    join,
    kleene,
    leq,
    meet,
    pawlak,
    top,
)


@pytest.fixture
def u3():
    return Universe.of("o1", "o2", "o3")


def test_orthopair_rejects_overlap(u3):
    with pytest.raises(ValueError):
        Orthopair.from_names(u3, ["o1", "o2"], ["o2"])


def test_orthopair_rejects_mixed_universes(u3):
    other = Universe.of("o1", "o2", "o3", "o4")
    with pytest.raises(UniverseMismatchError):
        Orthopair(u3.subset(["o1"]), other.subset(["o2"]))


def test_boundary(u3):
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert p.boundary.names() == ("o3",)


def test_meet_examples(u3):
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert meet(p, top(u3)) == p
    assert meet(p, bottom(u3)) == bottom(u3)
    q = Orthopair.from_names(u3, ["o1", "o3"], [])
    assert meet(p, q) == Orthopair.from_names(u3, ["o1"], ["o2"])


def test_meet_rejects_orthopairs_over_two_universes(u3):
    with pytest.raises(UniverseMismatchError, match="different universes"):
        meet(top(u3), top(Universe.of("o1", "o2")))


def test_join_examples():
    u = Universe.of("o1", "o2", "o3", "o4")
    p = Orthopair.from_names(u, ["o1"], ["o2"])
    assert join(p, bottom(u)) == p
    assert join(p, top(u)) == top(u)
    q = Orthopair.from_names(u, ["o3"], ["o2", "o4"])
    assert join(p, q) == Orthopair.from_names(u, ["o1", "o3"], ["o2"])


def test_kleene_examples(u3):
    assert kleene(bottom(u3)) == top(u3)
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert kleene(kleene(p)) == p
    assert kleene(p) == Orthopair.from_names(u3, ["o2"], ["o1"])


def test_brouwer_examples(u3):
    assert brouwer(bottom(u3)) == top(u3)
    assert brouwer(Orthopair.from_names(u3, ["o1"], [])) == bottom(u3)
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert brouwer(p) == Orthopair.from_names(u3, ["o2"], ["o1", "o3"])


def test_pawlak_identity_partition(u3):
    from pbzlogic import KnowledgeBase

    kb = KnowledgeBase.from_partition(u3, [u3.subset([n]) for n in u3])
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert pawlak(kb, p) == p


def test_pawlak_six_object(six_kb, six_universe, six_pair):
    assert pawlak(six_kb, six_pair) == Orthopair.from_names(
        six_universe, ["o1", "o2"], []
    )
    assert pawlak(six_kb, bottom(six_universe)) == bottom(six_universe)


def test_pawlak_universe_mismatch(six_kb, u3):
    with pytest.raises(UniverseMismatchError):
        pawlak(six_kb, Orthopair.from_names(u3, ["o1"], []))


def test_induced_order(u3):
    p = Orthopair.from_names(u3, ["o1"], ["o2"])
    assert leq(bottom(u3), p)
    assert leq(p, top(u3))
    assert leq(p, p)
    assert not leq(top(u3), p)


def test_eval_term_empty_and_involution(six_kb, six_pair):
    assert eval_term(six_kb, six_pair, "") == six_pair
    assert eval_term(six_kb, six_pair, "--") == six_pair


def test_eval_term_upper_approximation_identity(six_kb, six_universe, six_pair):
    # Strict postfix reading: the word needs a final Kleene swap to put
    # the upper approximation of A in the positive slot.
    result = eval_term(six_kb, six_pair, "-~L~-")
    assert result == Orthopair.from_names(
        six_universe, ["o1", "o2", "o3", "o4"], ["o5", "o6"]
    )
    assert eval_term(six_kb, six_pair, "-~L~") == kleene(result)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_eval_term_closed_forms_exhaustive(size):
    u = default_universe(size)
    for kb in all_knowledge_bases(u):
        for p in all_orthopairs(u):
            assert eval_term(kb, p, "L") == pawlak(kb, p)
            expected = Orthopair(kb.upper(p.positive), kb.lower(~p.positive))
            assert eval_term(kb, p, "-~L~-") == expected


def test_eval_term_expressions(six_kb, six_pair):
    assert eval_term(six_kb, six_pair, "a") == six_pair
    assert eval_term(six_kb, six_pair, "(a)") == six_pair
    assert eval_term(six_kb, six_pair, "a & a") == six_pair
    assert eval_term(six_kb, six_pair, "a | 0") == six_pair
    assert eval_term(six_kb, six_pair, "a & 1") == six_pair
    assert eval_term(six_kb, six_pair, "(a | a^-)^L") == pawlak(
        six_kb, join(six_pair, kleene(six_pair))
    )


@pytest.mark.parametrize(
    "term", ["x", "a^", "(a", "a)", "a &", "aLx", "a^z", "a a", "b", "a = a"]
)
def test_eval_term_rejects_malformed(six_kb, six_pair, term):
    with pytest.raises(TermError):
        eval_term(six_kb, six_pair, term)


@pytest.mark.parametrize("term", [
    "a" + "-" * 1000,
    "&".join(["a"] * 1000),
    "|".join(["a"] * 1000),
    "(" * 1000 + "a" + ")" * 1000,
], ids=["word", "meets", "joins", "parentheses"])
def test_eval_term_nested_too_deeply_is_a_term_error(six_kb, six_pair, term):
    with pytest.raises(TermError, match="nested too deeply"):
        eval_term(six_kb, six_pair, term)


def test_eval_term_word_of_200_letters(six_kb, six_pair):
    # an even number of Kleene negations is the identity
    assert eval_term(six_kb, six_pair, "a" + "-" * 200) == six_pair


def test_eval_term_universe_mismatch(six_kb, u3):
    with pytest.raises(UniverseMismatchError):
        eval_term(six_kb, Orthopair.from_names(u3, ["o1"], []), "L")

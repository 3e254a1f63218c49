import sys

import pytest
from hypothesis import given, settings, strategies as st

from backchase import ChaseError, const, default_registry

REG = default_registry()


def dec(s):
    return const(s)


def test_decimal_addition_is_exact():
    assert REG.call("dec_add", (dec("1.7"), dec("3.3"))) == dec("5.0")
    assert REG.call("dec_add", (dec("2.0"), dec("2.7"))) == dec("4.7")
    assert REG.call("dec_add", (dec("0.1"), dec("0.2"))) == dec("0.3")


def test_integer_addition_stays_integer():
    assert REG.call("dec_add", (dec("2"), dec("3"))) == dec("5")


def test_mixed_addition_is_decimal():
    assert REG.call("dec_add", (dec("2"), dec("3.5"))) == dec("5.5")
    assert REG.call("dec_add", (dec("2"), dec("3.0"))) == dec("5.0")


def test_addition_rejects_text():
    with pytest.raises(ChaseError):
        REG.call("dec_add", (dec("a"), dec("1")))


def test_subtraction_inverse():
    total = REG.call("dec_add", (dec("1.7"), dec("3.3")))
    assert REG.call_inverse("dec_add", total, (dec("3.3"),)) == dec("1.7")


decimals = st.builds(
    lambda sign, whole, frac: const(f"{'-' if sign else ''}{whole}.{frac}"),
    st.booleans(), st.integers(0, 999), st.integers(0, 99),
)
integers = st.integers(-999, 999).map(lambda n: const(str(n)))


@settings(max_examples=200, deadline=None)
@given(decimals, decimals)
def test_decimal_roundtrip_law(x, y):
    total = REG.call("dec_add", (x, y))
    assert REG.call_inverse("dec_add", total, (y,)) == x


@settings(max_examples=200, deadline=None)
@given(integers, integers)
def test_integer_roundtrip_law(x, y):
    total = REG.call("dec_add", (x, y))
    assert REG.call_inverse("dec_add", total, (y,)) == x


def test_concat_and_inverse():
    joined = REG.call("concat_pipe", (const("left"), const("right")))
    assert joined == const("left|right")
    assert REG.call_inverse("concat_pipe", joined, (const("right"),)) == const("left")


texts = st.text(alphabet="abc|", min_size=0, max_size=6).map(const)


@settings(max_examples=150, deadline=None)
@given(texts, texts)
def test_concat_roundtrip_law(x, y):
    joined = REG.call("concat_pipe", (x, y))
    assert REG.call_inverse("concat_pipe", joined, (y,)) == x


def test_split_halves_recombine():
    value = const("ab|cd|e")
    head = REG.call("split_pipe_head", (value,))
    tail = REG.call("split_pipe_tail", (value,))
    assert (head, tail) == (const("ab"), const("cd|e"))
    assert REG.call("concat_pipe", (head, tail)) == value


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="abc", min_size=0, max_size=4),
       st.text(alphabet="abc|", min_size=0, max_size=5))
def test_split_recombine_law(head, tail):
    value = const(head + "|" + tail)
    h = REG.call("split_pipe_head", (value,))
    t = REG.call("split_pipe_tail", (value,))
    assert REG.call("concat_pipe", (h, t)) == value


def test_split_requires_separator():
    with pytest.raises(ChaseError):
        REG.call("split_pipe_head", (const("nosep"),))


def test_unknown_function_and_arity():
    with pytest.raises(ChaseError):
        REG.call("mystery", (const("1"),))
    with pytest.raises(ChaseError):
        REG.call("dec_add", (const("1"),))
    with pytest.raises(ChaseError):
        REG.call_inverse("split_pipe_head", const("a|b"), ())


def test_results_too_long_to_print_raise_chase_error():
    # both inputs are valid constants, but the sum and the difference have
    # more digits than str() converts
    wide = dec("9" * 3000 + "." + "9" * 3000)
    with pytest.raises(ChaseError, match="more than"):
        REG.call("dec_add", (wide, wide))
    with pytest.raises(ChaseError, match="more than"):
        REG.call_inverse("dec_add", wide, (dec("-" + "9" * 3000 + "." + "9" * 3000),))
    limit = sys.get_int_max_str_digits()
    edge = dec("9" * (limit - 1) + ".9")  # limit digits once scaled
    assert REG.call("dec_add", (edge, dec("0.0"))) == edge

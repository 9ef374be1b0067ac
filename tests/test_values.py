"""The immutable value classes: equality, hashing, immutability, arity and repr.

Each class keeps the behaviour of the frozen dataclass it replaces: the same
repr text, the hash of the field tuple, and ``AttributeError`` on any change.
"""

import pytest

from dlforge.expressions import GenRef, Power, Product, QOp, Sum
from dlforge.polynomial import Generator
from dlforge.series import SeriesSignature

X = GenRef("x")

# (class, {field: value} in field order, the repr a frozen dataclass gives)
VALUES = [
    (GenRef, {"name": "x"}, "GenRef(name='x')"),
    (QOp, {"s": 2, "arg": X}, "QOp(s=2, arg=GenRef(name='x'))"),
    (Product, {"factors": (X, X)}, "Product(factors=(GenRef(name='x'), GenRef(name='x')))"),
    (Power, {"base": X, "exp": 3}, "Power(base=GenRef(name='x'), exp=3)"),
    (Sum, {"terms": (X, QOp(2, X))}, "Sum(terms=(GenRef(name='x'), QOp(s=2, arg=GenRef(name='x'))))"),
    (Generator, {"name": "b1", "degree": 2}, "Generator(name='b1', degree=2)"),
    (
        SeriesSignature,
        {"variables": ("x", "y"), "weights": (1, 2), "orders": (5, 3), "total_order": None},
        "SeriesSignature(variables=('x', 'y'), weights=(1, 2), orders=(5, 3), total_order=None)",
    ),
]

each_value = pytest.mark.parametrize(
    "cls, fields, text", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES]
)


@each_value
def test_equal_fields_give_equal_values_and_the_hash_of_the_field_tuple(cls, fields, text):
    a, b = cls(*fields.values()), cls(*fields.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert [getattr(a, name) for name in fields] == list(fields.values())
    # the bare field tuple is not the value
    assert a.__eq__(tuple(fields.values())) is NotImplemented
    assert a != tuple(fields.values())


def test_unequal_fields_give_unequal_values():
    assert GenRef("x") != GenRef("y")
    assert QOp(2, X) != QOp(3, X)
    assert Power(X, 2) != Power(X, 3)
    assert Generator("b1", 2) != Generator("b1", 4)
    assert SeriesSignature(("x",), (1,), (5,)) != SeriesSignature(("x",), (1,), (5,), 4)


def test_a_product_and_a_sum_of_the_same_nodes_differ():
    nodes = (X, QOp(2, X))
    assert Product(nodes) != Sum(nodes)
    assert len({Product(nodes), Sum(nodes)}) == 2


@each_value
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    value = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*fields.values())
    assert [getattr(value, name) for name in fields] == list(fields.values())


@each_value
def test_the_wrong_number_of_arguments_is_a_type_error(cls, fields, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_a_two_field_value_needs_both_fields():
    for cls in (QOp, Power, Generator):
        with pytest.raises(TypeError):
            cls(1)


def test_total_order_defaults_to_none():
    assert SeriesSignature(("x",), (1,), (5,)) == SeriesSignature(("x",), (1,), (5,), None)
    assert SeriesSignature(("x",), (1,), (5,)).total_order is None
    with pytest.raises(TypeError):
        SeriesSignature(("x",), (1,))


@each_value
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize(
    "args, message",
    [
        ((("x", "x"), (1, 1), (3, 3)), "duplicate series variables"),
        ((("x",), (1, 2), (3,)), "weights/orders must match the variable tuple"),
        ((("x",), (1,), (3, 3)), "weights/orders must match the variable tuple"),
        ((("x",), (1,), (-1,)), "series orders and weights must be nonnegative"),
        ((("x",), (-1,), (3,)), "series orders and weights must be nonnegative"),
        ((("x",), (1,), (3,), -1), "total_order must be nonnegative"),
    ],
)
def test_series_signature_rejects_a_bad_layout(args, message):
    with pytest.raises(ValueError, match=message):
        SeriesSignature(*args)


def test_a_generator_needs_a_name():
    with pytest.raises(ValueError, match="generator needs a name"):
        Generator("", 2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Power(X, 0), "powers must be positive"),
        (lambda: Power(X, -1), "powers must be positive"),
        (lambda: Product(()), "a product needs at least one factor"),
        (lambda: Sum(()), "a sum needs at least one term"),
    ],
    ids=["power-0", "power-minus-1", "empty-product", "empty-sum"],
)
def test_a_node_rejects_a_shape_the_grammar_cannot_write(build, message):
    # no walk has a value for these: x^-1 has no normal form, and x^0 or an
    # empty product would be a unit that the free algebra prints as "0"
    with pytest.raises(ValueError, match=message):
        build()

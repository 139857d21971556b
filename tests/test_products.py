"""Star products against their operator tables; see `products.py`."""

from products import product_sweep


def test_products_of_random_families_agree_with_their_operator_tables():
    # a family that declares no termination rule is cut at the order, so no
    # term of B_k past min(deg f, deg g) goes missing
    agree, count = product_sweep(100)
    assert agree == count

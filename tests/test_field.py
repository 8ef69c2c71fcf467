import random
import threading

import pytest

from avcodes.field import build_field, count_ops


def test_gf11_basics():
    f = build_field(11)
    assert f.q == 11 and f.p == 11 and f.m == 1
    assert f.alpha == 2
    assert f.mul(5, 7) == 2
    assert f.add(5, 7) == 1
    assert f.sub(3, 7) == 7
    assert f.neg(4) == 7
    assert f.dlog(6) == 9
    assert f.pow(2, 10) == 1
    assert f.inv(2) == 6


def test_gf9_hermitian_modulus():
    # x^2 + x - 1 with root a: a^2 + a = 1
    f = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    assert f.q == 9
    assert f.add(f.mul(f.alpha, f.alpha), f.alpha) == 1
    assert f.pow(f.alpha, 8) == 1
    assert f.pow(f.alpha, 4) == 2  # a^4 = -1
    assert all(f.pow(f.alpha, k) != 1 for k in range(1, 8))


def test_gf9_default_modulus_is_least():
    f = build_field(3, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1 is the least irreducible


def test_gf2_edge():
    f = build_field(2)
    assert f.q == 2
    assert f.alpha == 1
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.pow(1, 0) == 1


def test_construction_errors():
    with pytest.raises(ValueError):
        build_field(4)  # not prime
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(0, 0, 1))  # x^2 reducible
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ValueError):
        build_field(11, alpha=10)  # order 2, not primitive
    with pytest.raises(ValueError):
        build_field(11, modulus=(1, 1))  # modulus with m == 1


def test_zero_division_and_dlog_errors():
    f = build_field(11)
    with pytest.raises(ZeroDivisionError):
        f.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        f.dlog(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0


@pytest.mark.parametrize("p,m", [(11, 1), (3, 2), (2, 3), (2, 2)])
def test_field_axioms_exhaustive(p, m):
    f = build_field(p, m)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert f.exp_alpha(f.dlog(a)) == a
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,m", [(11, 1), (3, 2), (2, 3)])
def test_unit_group_order(p, m):
    f = build_field(p, m)
    for a in f.units():
        k = f.dlog(a)
        assert f.pow(a, (f.q - 1)) == 1
        # order divides q-1 and dlog round-trips
        assert f.exp_alpha(k) == a


def test_pow_matches_repeated_mul():
    rng = random.Random(7)
    for f in (build_field(11), build_field(3, 2, modulus=(2, 1, 1), alpha=3)):
        for _ in range(50):
            a = rng.randrange(1, f.q)
            e = rng.randrange(0, 30)
            acc = 1
            for _ in range(e):
                acc = f.mul(acc, a)
            assert f.pow(a, e) == acc


def test_element_text_forms():
    f9 = build_field(3, 2, modulus=(2, 1, 1), alpha=3)
    assert f9.format(0) == "-1"
    assert f9.format(1) == "a^0"
    assert f9.format(f9.alpha) == "a^1"
    assert f9.format(2) == "a^4"
    assert f9.parse("a^4") == 2
    assert f9.parse("-1") == 0
    assert f9.parse("4") == 4  # packed int form
    assert f9.format(4, int_form=True) == "4"
    f11 = build_field(11)
    assert f11.format(7) == "7"
    assert f11.parse("7") == 7
    with pytest.raises(ValueError):
        f11.parse("11")


def test_op_counter_basic():
    f = build_field(11)
    with count_ops() as c:
        f.mul(3, 4)
    assert c.muldiv == 1 and c.addsub == 0
    with count_ops() as c:
        pass
    assert c.total() == 0


def test_op_counter_buckets():
    f = build_field(11)
    with count_ops() as c:
        f.add(1, 2)
        f.sub(1, 2)
        f.neg(1)
        f.mul(1, 2)
        f.div(1, 2)
        f.inv(2)
        f.pow(2, 5)
    assert c.addsub == 3
    assert c.muldiv == 4


def test_op_counter_nesting_and_isolation():
    f = build_field(11)
    with count_ops() as outer:
        f.mul(2, 3)
        with count_ops() as inner:
            f.add(1, 1)
        f.mul(2, 3)
    assert inner.addsub == 1 and inner.muldiv == 0
    assert outer.muldiv == 2 and outer.addsub == 0
    f.mul(2, 3)  # outside any scope: no crash, not counted
    assert outer.muldiv == 2


def test_op_counter_thread_confined():
    f = build_field(11)
    seen = {}

    def worker():
        with count_ops() as c:
            for _ in range(10):
                f.mul(2, 3)
        seen["worker"] = c.muldiv

    with count_ops() as main_c:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        f.mul(2, 3)
    assert seen["worker"] == 10
    assert main_c.muldiv == 1


def test_naive_dft_cost_shape():
    # a 10-point naive single-axis transform costs exactly 100 muls here
    f = build_field(11)
    line = [f.exp_alpha(3 * i) for i in range(10)]
    with count_ops() as c:
        out = []
        for a in range(10):
            s = 0
            for i, v in enumerate(line):
                s = f.add(s, f.mul(v, f.exp_alpha(i * a)))
            out.append(s)
    assert c.muldiv == 100
    assert c.addsub == 100

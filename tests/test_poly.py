"""Trial division and the completion names it feeds.

`prime_factors` and `_odd_primes` are checked against sympy; the names
of completions and completion quotients read the missing primes of the
determinant, so they are checked on prime powers, negative
determinants, composite determinants and a rank-2 matrix.
"""

import itertools
import random

import pytest

from towerlim.exactlat import IntMatrix
from towerlim.poly import _odd_primes, prime_factors
from towerlim.structured import StructuredGroup


def sympy_primes(n):
    sympy = pytest.importorskip("sympy")
    return sorted(p for p in sympy.factorint(n) if p > 1)


class TestPrimeFactors:
    def test_zero_has_no_primes(self):
        assert prime_factors(0) == []

    @pytest.mark.parametrize("n", [
        1, -1, 2, -2, 3, 97, 7919, 999_999_937,      # units and primes
        4, 8, 2 ** 29, -27, 3 ** 18, 7 ** 10,        # prime powers
        6, -15, 9991, 10403, 31_607 * 31_627,        # two primes
    ])
    def test_against_sympy(self, n):
        assert prime_factors(n) == sympy_primes(n)

    def test_random_against_sympy(self):
        rng = random.Random(26)
        for _ in range(300):
            n = rng.randrange(-10 ** 9 + 1, 10 ** 9)
            assert prime_factors(n) == sympy_primes(n), n


def test_odd_primes_against_sympy():
    sympy = pytest.importorskip("sympy")
    expected = list(itertools.islice(sympy.primerange(3, 10 ** 4), 200))
    assert list(itertools.islice(_odd_primes(), 200)) == expected


# (matrix rows, completion name, name of its quotient)
RENDERS = [
    ([[8]], "Z_2", "Z_2/Z"),
    ([[-9]], "Z_3", "Z_3/Z"),
    ([[2]], "Z_2", "Z_2/Z"),
    ([[6]], "Lambda_A(Z)", "Lambda_A(Z)/Z"),
    ([[-12]], "Lambda_A(Z)", "Lambda_A(Z)/Z"),
    ([[2, 0], [0, 4]], "Lambda_A(Z^2)", "Lambda_A(Z^2)/Z^2"),
]


@pytest.mark.parametrize("rows,completion,quotient", RENDERS)
def test_completion_renders(rows, completion, quotient):
    A = IntMatrix.from_rows(rows)
    assert StructuredGroup.completion(A.rows, A).render() == completion
    assert StructuredGroup.completion_quotient(A.rows, A).render() == quotient

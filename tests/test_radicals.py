import math

from bateman.radicals import factorial_sqrt, primes_up_to


def test_factorial_sqrt_squares_to_factorial():
    for n in range(0, 60):
        s, rad = factorial_sqrt(n)
        assert s * s * rad == math.factorial(n)
        # squarefree: no prime's square divides the radicand
        assert all(rad % (p * p) for p in primes_up_to(n))

"""The published counts against each other, by arithmetic alone, at every odd prime below 1000."""

from pcubed import published
from pcubed.groups import FAMILIES
from pcubed.modular import is_prime

PRIMES = [p for p in range(3, 1000, 2) if is_prime(p)]


def test_the_orbit_counts_add_up_to_6p_plus_43():
    # the total that classify's md output prints as the text 6*p+43
    for p in PRIMES:
        assert sum(published.orbit_count(fam, p) for fam in FAMILIES) == 6 * p + 43, p


def test_the_morita_histogram_holds_5p_plus_32_classes_of_6p_plus_43_orbits():
    # each orbit lies in exactly one class, so the class sizes add up to the orbit count
    for p in PRIMES:
        hist = published.morita_histogram(p)
        assert sum(hist.values()) == 5 * p + 32, p
        assert sum(size * count for size, count in hist.items()) == 6 * p + 43, p

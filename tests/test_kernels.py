"""The loop in ``inverter.invert`` against :func:`oracles._reference_newton_schulz`, bit for bit.

These are the cases of :func:`oracles._oracle_cases` other than the ``mt-*``
ones, which run from ``test_inverter.py``; the loop's other tests are there too.
"""

import pytest

from oracles import _check_bit_identical_to_reference, _oracle_cases


@pytest.mark.parametrize(
    "a, eps, max_iter", [case for case in _oracle_cases() if not case.id.startswith("mt-")]
)
def test_newton_schulz_bit_identical_to_reference(a, eps, max_iter):
    _check_bit_identical_to_reference(a, eps, max_iter)

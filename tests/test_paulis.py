import itertools

import numpy as np
import pytest

from dacqo.paulis import PAULI, pauli_on


@pytest.mark.parametrize("n", range(1, 5))
def test_pauli_on_equals_kron_reference(n):
    # every string of n letters, qubit 0 as the leftmost tensor factor;
    # a qubit left out of ``placed`` carries the identity
    for letters in itertools.product("IXYZ", repeat=n):
        ref = np.ones((1, 1))
        for letter in letters:
            ref = np.kron(ref, PAULI[letter])
        placed = dict(enumerate(letters))
        assert np.array_equal(pauli_on(n, placed), ref), letters
        sparse = {q: letter for q, letter in placed.items() if letter != "I"}
        assert np.array_equal(pauli_on(n, sparse), ref), letters


@pytest.mark.parametrize("placed", [{0: "W"}, {2: "X"}, {-1: "Z"}])
def test_rejects_bad_letter_or_qubit(placed):
    with pytest.raises(ValueError):
        pauli_on(2, placed)

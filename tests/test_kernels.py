from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacqo import _kernels


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return state / np.linalg.norm(state)


def _random_unitary(k, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal(
        (2**k, 2**k)
    )
    return np.linalg.qr(m)[0]


def _einsum_reference(mat, u, qubits, n):
    """``u`` on ``qubits`` of every column of ``mat``, by einsum indices."""
    k = len(qubits)
    axes = [chr(ord("a") + i) for i in range(n)] + ["z"]
    new = [chr(ord("A") + j) for j in range(k)]
    out = list(axes)
    for j, q in enumerate(qubits):
        out[q] = new[j]
    spec = "".join(new + [axes[q] for q in qubits]) + "," + "".join(axes) \
        + "->" + "".join(out)
    psi = np.einsum(spec, u.reshape((2,) * (2 * k)),
                    mat.reshape((2,) * n + (mat.shape[1],)))
    return psi.reshape(mat.shape)


class TestNumpyKernel:
    def test_single_qubit_bit_order(self):
        # qubit 0 is the most significant bit of the state index
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        out = _kernels.apply_unitary(state, x, (0,), 3)
        assert out[0b100] == 1.0
        out = _kernels.apply_unitary(state, x, (2,), 3)
        assert out[0b001] == 1.0

    def test_qubit_order_matters(self):
        # a non-symmetric 2-qubit unitary distinguishes (0,1) from (1,0)
        u = _random_unitary(2, 0)
        state = _random_state(3, 1)
        a = _kernels.apply_unitary(state, u, (0, 1), 3)
        swap = np.eye(4)[[0, 2, 1, 3]]
        b = _kernels.apply_unitary(state, swap @ u @ swap, (1, 0), 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_preserves_norm(self):
        state = _random_state(5, 2)
        out = _kernels.apply_unitary(state, _random_unitary(3, 3), (4, 0, 2), 5)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_input_state_not_mutated(self):
        state = _random_state(4, 9)
        before = state.copy()
        _kernels.apply_unitary(state, _random_unitary(2, 1), (1, 2), 4)
        np.testing.assert_array_equal(state, before)

    @pytest.mark.parametrize("n,qubits,m", [
        (3, (0,), 8),
        (4, (2, 0), 5),
        (5, (1, 4), 32),
        (6, (5, 2, 0), 3),
    ] + [
        # ascending runs at both ends of the register, at each width: the
        # runs ending on qubit 8 take the matmul path only at width 64
        (9, qubits, m)
        for qubits in ((0,), (0, 1, 2), (8,), (6, 7, 8))
        for m in (1, 4, 16, 64)
    ] + [
        # trajectory-chunk shapes of a 14-qubit solve that take the
        # permute branch
        (14, (10,), 4),
        (14, (13,), 4),
        (14, (3, 11), 4),
        (14, (12, 13), 4),
    ])
    def test_matrix_matches_column_loop(self, n, qubits, m):
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        u = _random_unitary(len(qubits), n + 10)
        before = mat.copy()
        out = _kernels.apply_unitary(mat, u, qubits, n)
        ref = np.empty_like(mat)
        for c in range(m):
            ref[:, c] = _kernels.apply_unitary(mat[:, c].copy(), u, qubits, n)
        assert out.shape == (2**n, m)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            out, _einsum_reference(mat, u, qubits, n), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(mat, before)


    @pytest.mark.parametrize("n,qubits,m", [
        (1, (0,), 3),
        (3, (2,), 8),
        (4, (3, 1), 5),
        (5, (0, 1, 2, 3, 4), 4),
        (6, (4, 0, 2), 2),
        (14, (10, 11, 12, 13), 4),
    ])
    def test_stacked_unitary_matches_column_loop(self, n, qubits, m):
        # u[b] acts on column b alone
        rng = np.random.default_rng(n + 20)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        us = np.stack([_random_unitary(len(qubits), 100 * n + b) for b in range(m)])
        before = mat.copy()
        out = _kernels.apply_unitary(mat, us, qubits, n)
        ref = np.empty_like(mat)
        for b in range(m):
            ref[:, b] = _kernels.apply_unitary(mat[:, b].copy(), us[b], qubits, n)
        assert out.shape == (2**n, m)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(mat, before)

    def test_non_unitary_matrices_match_column_loop(self):
        # the kernel is linear algebra only: a shared and a stacked
        # matrix that are not unitary apply like the per-column loop
        n, m = 5, 4
        rng = np.random.default_rng(60)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        for qubits in ((1, 2), (3, 0)):
            shape = (m, 2 ** len(qubits), 2 ** len(qubits))
            us = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert not np.allclose(us[0].conj().T @ us[0], np.eye(shape[1]))
            shared = _kernels.apply_unitary(mat, us[0], qubits, n)
            stacked = _kernels.apply_unitary(mat, us, qubits, n)
            for b in range(m):
                column = mat[:, b].copy()
                np.testing.assert_allclose(
                    shared[:, b], _kernels.apply_unitary(column, us[0], qubits, n),
                    rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    stacked[:, b], _kernels.apply_unitary(column, us[b], qubits, n),
                    rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                shared, _einsum_reference(mat, us[0], qubits, n),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,qubits,m,r", [
        (2, (1,), 3, 4),
        (3, (2, 0), 2, 8),
        (4, (0, 1, 2, 3), 4, 16),
    ])
    def test_stacked_unitary_acts_on_each_column_block(self, n, qubits, m, r):
        # on a (2^n, m, r) array u[b] acts on all r columns of state[:, b]
        rng = np.random.default_rng(n + 40)
        arr = rng.standard_normal((2**n, m, r)) + 1j * rng.standard_normal((2**n, m, r))
        us = np.stack([_random_unitary(len(qubits), 7 * n + b) for b in range(m)])
        out = _kernels.apply_unitary(arr, us, qubits, n)
        assert out.shape == arr.shape
        for b in range(m):
            np.testing.assert_allclose(
                out[:, b], _kernels.apply_unitary(arr[:, b], us[b], qubits, n),
                rtol=0, atol=1e-13)

    def test_stacked_unitary_needs_one_matrix_per_column(self):
        us = np.stack([_random_unitary(1, b) for b in range(3)])
        with pytest.raises(ValueError):
            _kernels.apply_unitary(np.ones((8, 2), dtype=complex), us, (0,), 3)
        with pytest.raises(ValueError):
            _kernels.apply_unitary(np.ones(8, dtype=complex), us, (0,), 3)


class TestOrderCarrying:
    """On a tensor-form state the axis order travels with the array."""

    @pytest.mark.parametrize("carry", [0, _kernels._CARRY_ENTRIES])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_chain_matches_einsum_reference(self, carry, data):
        # carry = 0 keeps every result in its matmul's order; the default
        # sends these small ones back to canonical order.  Each call names
        # no next qubits, the next gate's or random ones, and the state
        # may start with the first gate's axes innermost
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(1, 5), label="columns")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))

        def some_qubits(label):
            k = data.draw(st.integers(1, min(n, 4)), label=label)
            return tuple(data.draw(st.permutations(range(n)))[:k])

        gates = [some_qubits("k") for _ in range(data.draw(st.integers(1, 6), label="gates"))]
        ref, psi = mat, mat.reshape((2,) * n + (m,))
        if data.draw(st.booleans(), label="innermost"):
            # memory order: the column axis, the other qubits, then the
            # first gate's in order
            order = [n] + [a for a in range(n) if a not in gates[0]] + list(gates[0])
            psi = np.ascontiguousarray(psi.transpose(order)).transpose(np.argsort(order))
        with mock.patch.object(_kernels, "_CARRY_ENTRIES", carry):
            for j, qubits in enumerate(gates):
                k = len(qubits)
                following = data.draw(st.sampled_from(["none", "next", "random"]),
                                      label="next_qubits")
                if following == "next":
                    following = gates[j + 1] if j + 1 < len(gates) else None
                elif following == "random":
                    following = some_qubits("next k")
                else:
                    following = None
                if data.draw(st.booleans(), label="stacked"):
                    u = np.stack([_random_unitary(k, int(s))
                                  for s in rng.integers(0, 2**16, m)])
                    ref = np.stack([
                        _einsum_reference(ref[:, [b]], u[b], qubits, n)[:, 0]
                        for b in range(m)], axis=1)
                else:
                    u = _random_unitary(k, int(rng.integers(0, 2**16)))
                    ref = _einsum_reference(ref, u, qubits, n)
                psi = _kernels.apply_unitary(psi, u, qubits, n, next_qubits=following)
                assert psi.shape == (2,) * n + (m,)
        np.testing.assert_allclose(psi.reshape(2**n, m), ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_copy_is_laid_out_for_the_next_call(self, monkeypatch, stacked):
        # a copying call with next_qubits puts those axes innermost, in
        # order, behind the column axis, so the call on them reads the
        # state's own memory (view @ u^T); without next_qubits it copies
        n, m, first, second = 12, 4, (3, 7, 1), (10, 0, 5)
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        assert mat.size >= _kernels._CARRY_ENTRIES
        u1 = np.stack([_random_unitary(3, b) for b in range(m)])
        u2 = np.stack([_random_unitary(3, 10 + b) for b in range(m)])
        if not stacked:
            u2 = u2[0]
        matmul, operands = np.matmul, []

        def spy(a, b, *args, **kwargs):
            operands.extend((a, b))
            return matmul(a, b, *args, **kwargs)

        psi = mat.reshape((2,) * n + (m,))
        ref = _kernels.apply_unitary(_kernels.apply_unitary(mat, u1, first, n), u2, second, n)
        for following, copies in ((second, False), (None, True)):
            out = _kernels.apply_unitary(psi, u1, first, n, next_qubits=following)
            mem = sorted(range(n + 1), key=out.strides.__getitem__, reverse=True)
            assert (mem[0] == n and mem[-3:] == list(second)) is not copies
            operands.clear()
            monkeypatch.setattr(np, "matmul", spy)
            out2 = _kernels.apply_unitary(out, u2, second, n)
            monkeypatch.undo()
            assert any(np.shares_memory(x, out) for x in operands) is not copies
            np.testing.assert_allclose(out2.reshape(2**n, m), ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("carry", [0, _kernels._CARRY_ENTRIES])
    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("stacked", [True, False])
    def test_gate_axes_in_order_behind_others_take_the_copy_layout(self, stacked, n, carry):
        # the gate's axes adjacent and in order, but behind other axes
        # (the column axis, and for a shared gate qubit 0 as well): one
        # copy with the gate's axes in front, as for any other layout
        m, qubits = 4, (5, 2, 6)
        rng = np.random.default_rng(n)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        lead = [n] if stacked else [n, 0]
        mem = lead + list(qubits)
        mem += [a for a in range(n + 1) if a not in mem]
        psi = mat.reshape((2,) * n + (m,))
        psi = np.ascontiguousarray(psi.transpose(mem)).transpose(np.argsort(mem))
        if stacked:
            u = np.stack([_random_unitary(3, b) for b in range(m)])
            ref = np.stack([_einsum_reference(mat[:, [b]], u[b], qubits, n)[:, 0]
                            for b in range(m)], axis=1)
        else:
            u = _random_unitary(3, 5)
            ref = _einsum_reference(mat, u, qubits, n)
        with mock.patch.object(_kernels, "_CARRY_ENTRIES", carry):
            out = _kernels.apply_unitary(psi, u, qubits, n)
        np.testing.assert_allclose(out.reshape(2**n, m), ref, rtol=0, atol=1e-12)
        copy = ([n] if stacked else []) + list(qubits)
        copy += [a for a in mem if a not in copy]
        if out.size < carry:
            copy = list(range(n + 1))
        assert sorted(range(n + 1), key=out.strides.__getitem__, reverse=True) == copy

    def test_result_stays_in_matmul_order(self):
        # a stacked 4-qubit gate on a (2^14, 4) chunk: the result is a
        # view with the column axis, then the gate's axes, outermost, and
        # a second gate on the same qubits keeps that order
        n, m, qubits = 14, 4, (3, 5, 9, 12)
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2**n, m)) + 1j * rng.standard_normal((2**n, m))
        us = np.stack([_random_unitary(4, b) for b in range(m)])
        psi = mat.reshape((2,) * n + (m,))
        for _ in range(2):
            psi = _kernels.apply_unitary(psi, us, qubits, n)
            mem = sorted(range(n + 1), key=psi.strides.__getitem__, reverse=True)
            assert mem[:5] == [n, *qubits]
        ref = mat
        for _ in range(2):
            ref = _kernels.apply_unitary(ref, us, qubits, n)
        np.testing.assert_allclose(psi.reshape(2**n, m), ref, rtol=0, atol=1e-13)


class TestBackendSelection:
    def test_backend_name_valid(self):
        assert _kernels.backend_name() == "numpy"

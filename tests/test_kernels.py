"""Tests of the recurrence loop in ``inverter.invert``: its iterates, stop statuses and memory.

``test_newton_schulz_bit_identical_to_reference`` pins the in-place loop to
the recurrence written plainly, bit for bit.  The stop law, a function of the
residual history, is also driven directly with synthetic histories.
"""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import self_scaled_count

from lsqmatch.generate import more_toraldo, uniform_pattern
from lsqmatch.inverter import (
    InversionStatus,
    ScaleFactorKind,
    _stop_status,
    invert,
    iteration_bound,
    scale_factor,
)


def test_nonfinite_status():
    # V_1 A overflows: the run stops DIVERGED at update 1, with no warning.
    rep = invert(1e200 * np.eye(2))
    assert rep.status is InversionStatus.DIVERGED
    assert rep.iterations == 1
    assert list(rep.residual_history) == [1e200, math.inf]


def _counter_stop(history, eps, max_iter):
    """The stop rule in the counter form the loop once carried, run over ``history``.

    ``flat`` counts the updates in a row whose residual is at least 1 and no
    lower than the one before, ``grow`` those of them that also rose strictly
    above 1.  Returns the stop index and status, or None when the run goes on;
    a non-finite residual is DIVERGED.
    """
    flat = grow = 0
    prev = math.inf
    for t, r in enumerate(history):
        if not math.isfinite(r):
            return t, InversionStatus.DIVERGED
        if r < eps:
            return t, InversionStatus.CONVERGED
        if t == max_iter:
            return t, InversionStatus.HIT_CAP
        if r >= 1.0 and r >= prev:
            flat += 1
            grow = grow + 1 if r > 1.0 and r > prev else 0
            if flat >= 3:
                return t, InversionStatus.DIVERGED if grow >= 3 else InversionStatus.STALLED
        else:
            flat = grow = 0
        prev = r
    return None


def _reference_newton_schulz(a, eps, max_iter):
    """The recurrence written plainly, with a fresh array for every operation.

    It stops by :func:`_counter_stop`, the counter form of the stop rule.
    """
    n = a.shape[0]
    eye = np.eye(n)
    v = np.eye(n)
    history = []
    while True:
        u = 2.0 * eye - v @ a
        history.append(np.abs(u - eye).max())
        stop = _counter_stop(history, eps, max_iter)
        if stop is not None:
            return v, np.array(history), *stop
        v = u @ v


def _oracle_cases():
    for n in (1, 2, 3, 32, 128, 256):
        x = uniform_pattern(4 * n, n, 1000 + n)
        z = x.T @ x
        yield pytest.param(
            z * scale_factor(z, ScaleFactorKind.GERSHGORIN), 1e-6, 200, id=f"gram-n{n}"
        )
        if n == 1:
            continue
        for kappa in (2.0**10, 2.0**20):
            _, z = more_toraldo(n, kappa, 2000 + n)
            for kind in ScaleFactorKind:
                alpha = scale_factor(z, kind, (1.0, kappa))
                yield pytest.param(z * alpha, 1e-6, 200, id=f"mt-n{n}-k{kappa:g}-{kind.value}")
    _, z = more_toraldo(32, 2.0**10, 7)
    yield pytest.param(z * scale_factor(z, ScaleFactorKind.TRACE), 1e-300, 4, id="hit-cap")
    yield pytest.param(3.0 * np.eye(4), 1e-6, 200, id="diverged")
    yield pytest.param(np.array([[2.0]]), 1e-6, 200, id="stalled")
    # A rank-deficient Gram matrix: the residual climbs back to 1 and stops
    # there (STALLED) or climbs strictly above it (DIVERGED) after 50-odd updates.
    x = uniform_pattern(12, 2, 7)
    z = np.c_[x, x[:, :1]].T @ np.c_[x, x[:, :1]]
    for kind in ScaleFactorKind:
        yield pytest.param(
            z * scale_factor(z, kind), 1e-6, 200, id=f"singular-{kind.value}"
        )
    yield pytest.param(1e200 * np.eye(2), 1e-6, 200, id="nonfinite-inf")
    # V_2 overflows to -inf, and -inf * 0 gives NaN in U_2.
    yield pytest.param(np.diag([1e120, 0.5]), 1e-6, 200, id="nonfinite-nan")
    yield pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-6, 200, id="nan-input")
    # The first update copies A where the reference forms I A, which can turn
    # -0.0 into +0.0; U0 = 0.0 - P is +0.0 either way.
    signed = np.array([[0.5, -0.0, 0.25], [-0.0, 0.75, -0.0], [0.25, -0.0, 1.0]])
    yield pytest.param(signed, 1e-6, 200, id="negative-zeros")
    x = uniform_pattern(128, 32, 1032)
    z = x.T @ x
    signed = z * scale_factor(z, ScaleFactorKind.GERSHGORIN)
    signed[::3, 1::3] = -0.0
    signed[1::3, ::3] = -0.0
    yield pytest.param(signed, 1e-6, 200, id="negative-zeros-n32")


@pytest.mark.parametrize("a, eps, max_iter", _oracle_cases())
def test_newton_schulz_bit_identical_to_reference(a, eps, max_iter):
    if not np.isfinite(a).all():
        # Validation refuses it before the loop starts.
        with pytest.raises(ValueError, match="finite"):
            invert(a, eps)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        v_ref, hist_ref, iters_ref, status_ref = _reference_newton_schulz(a, eps, max_iter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("lsqmatch.inverter.MAX_ITERATIONS", max_iter)
        rep = invert(a, eps)
    assert (rep.iterations, rep.status) == (iters_ref, status_ref)
    assert rep.residual_history.tobytes() == hist_ref.tobytes()
    assert rep.inverse.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("delta", [1e-1, 1e-3, 2.0**-20])
def test_self_scaled_count_follows_recursion(delta):
    # On a diagonal A the entrywise residual is the spectral one, so every gain
    # is exact; a spectrum symmetric about 1 starts from rho = 1 - delta.
    a = np.diag(np.linspace(delta, 2.0 - delta, 16))
    rep = invert(a, self_scaled=True)
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == self_scaled_count(1.0 - delta, 1e-6)
    assert invert(a).iterations == iteration_bound(delta, 2.0 - delta, 1e-6)


def test_self_scaled_never_slower_than_plain():
    for kappa in (2.0**10, 2.0**20):
        _, z = more_toraldo(32, kappa, 2032)
        for kind in ScaleFactorKind:
            a = z * scale_factor(z, kind, (1.0, kappa))
            rep = invert(a, self_scaled=True)
            assert rep.status is InversionStatus.CONVERGED
            assert rep.iterations <= invert(a).iterations
            eye = np.eye(32)
            assert np.abs(2.0 * eye - rep.inverse @ a - eye).max() == rep.final_residual < 1e-6


def test_self_scaled_power_steps_stop_on_a_null_vector():
    # The start vector (1, 1)/sqrt(2) is an eigenvector of A for eigenvalue 1,
    # so R x = 0 at every update; the gain then rests on the residual alone.
    a = np.array([[0.75, 0.25], [0.25, 0.75]])
    rep = invert(a, self_scaled=True)
    assert rep.status is InversionStatus.CONVERGED
    assert rep.iterations == invert(a).iterations == 5


@pytest.mark.parametrize("a", [3.0 * np.eye(4), np.array([[2.0]])], ids=["diverged", "stalled"])
def test_self_scaled_applies_no_gain_at_or_above_one(a):
    plain = invert(a)
    scaled = invert(a, self_scaled=True)
    assert scaled.residual_history.tobytes() == plain.residual_history.tobytes()
    assert (scaled.iterations, scaled.status) == (plain.iterations, plain.status)


def test_invert_reads_a_read_only_input():
    _, z = more_toraldo(16, 2.0**10, 12)
    a = z * scale_factor(z, ScaleFactorKind.GERSHGORIN)
    assert a.tobytes() == a.T.copy().tobytes()  # so validation does not copy it
    kept = a.copy()
    a.setflags(write=False)
    for self_scaled in (False, True):
        rep = invert(a, self_scaled=self_scaled)
        ref = invert(kept, self_scaled=self_scaled)
        assert (rep.iterations, rep.status) == (ref.iterations, ref.status)
        assert rep.residual_history.tobytes() == ref.residual_history.tobytes()
        assert rep.inverse.tobytes() == ref.inverse.tobytes()
        assert a.tobytes() == kept.tobytes()


def test_newton_schulz_peak_memory():
    # V and two n x n work buffers, allocated once per call, in either mode;
    # validation neither copies the symmetric input nor keeps a temporary.
    n = 128
    _, z = more_toraldo(n, 2.0**10, 11)
    a = z * scale_factor(z, ScaleFactorKind.TRACE)
    for self_scaled in (False, True):
        tracemalloc.start()
        try:
            rep = invert(a, self_scaled=self_scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.status is InversionStatus.CONVERGED
        assert rep.iterations >= 10
        assert peak <= 3.25 * n * n * 8


# (name, history, max_iter, status) at eps = 1e-6; the run stops at the last entry.
_STOP_TABLE = [
    ("converged-at-start", [1e-7], 200, InversionStatus.CONVERGED),
    ("converged", [0.5, 0.25, 0.0625, 0.0039, 1.5e-05, 2.3e-10], 200, InversionStatus.CONVERGED),
    ("cap", [0.5, 0.25, 0.0625], 2, InversionStatus.HIT_CAP),
    ("cap-over-stall", [1.0, 1.0, 1.0, 1.0], 3, InversionStatus.HIT_CAP),
    ("flat-at-one", [1.0, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    ("up-to-one-then-flat", [0.5, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    ("strict-rise", [2.0, 4.0, 16.0, 256.0], 200, InversionStatus.DIVERGED),
    ("rise-rise-tie", [1.5, 2.0, 3.0, 3.0], 200, InversionStatus.STALLED),
    ("tie-rise-rise", [2.0, 1.0, 1.0, 1.5, 2.0], 200, InversionStatus.STALLED),
    ("rise-from-below-one", [0.5, 1.5, 2.0, 3.0], 200, InversionStatus.DIVERGED),
    # The first of the three rises ends at 1, not strictly above it.
    ("rise-through-one", [0.5, 1.0, 2.0, 3.0], 200, InversionStatus.STALLED),
    ("drop-restarts-count", [1.0, 1.0, 1.0, 0.75, 1.0, 1.0, 1.0], 200, InversionStatus.STALLED),
    # A non-finite residual stops the run at once, whatever came before.
    ("nan", [0.5, 0.75, math.nan], 200, InversionStatus.DIVERGED),
    ("inf-at-start", [math.inf], 200, InversionStatus.DIVERGED),
    ("inf-after-flat", [1.0, 1.0, math.inf], 200, InversionStatus.DIVERGED),
    # A plateau below 1 never stops before the cap, however long it lasts.
    ("plateau-below-one", [0.5] * 12, 200, None),
    ("too-short-to-stall", [1.0, 1.0, 1.0], 200, None),
]


@pytest.mark.parametrize(
    "history, max_iter, status",
    [pytest.param(*row[1:], id=row[0]) for row in _STOP_TABLE],
)
def test_stop_status_decision_table(history, max_iter, status):
    for t in range(1, len(history)):
        assert _stop_status(history[:t], 1e-6, max_iter) is None
    assert _stop_status(history, 1e-6, max_iter) is status


def _first_stop(history, eps, max_iter):
    """The first stop :func:`_stop_status` calls on the prefixes of ``history``, or None."""
    for t in range(len(history)):
        status = _stop_status(history[: t + 1], eps, max_iter)
        if status is not None:
            return t, status
    return None


def test_stop_status_matches_counter_rule():
    # Half the histories draw from values that tie with 1 and with each other:
    # the neighbours of 1, the non-finite values and ones below eps; the rest
    # are uniform, some rounded to tie.
    count, longest = 100_000, 15
    rng = np.random.default_rng(19)
    finite = [0.0, 1e-7, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 3.0]
    weights = np.r_[np.ones(len(finite)), 0.05, 0.05]
    drawn = rng.choice(finite + [math.inf, math.nan], (count, longest), p=weights / weights.sum())
    uniform = rng.uniform(0.0, 3.0, (count, longest))
    uniform[::2] = uniform[::2].round(1)
    rows = np.where(rng.random((count, 1)) < 0.5, drawn, uniform).tolist()
    lengths = rng.integers(1, longest + 1, count).tolist()
    epsilons = rng.choice([1e-6, 0.25], count).tolist()
    caps = rng.integers(1, 15, count).tolist()
    seen = set()
    for row, length, eps, max_iter in zip(rows, lengths, epsilons, caps):
        history = row[:length]
        want = _counter_stop(history, eps, max_iter)
        assert _first_stop(history, eps, max_iter) == want, (history, eps, max_iter)
        seen.add(want and want[1])
    assert seen == {*InversionStatus, None}

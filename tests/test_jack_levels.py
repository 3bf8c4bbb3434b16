"""The rank >= 3 Jack table, built one variable at a time, against the memoised
recursion it replaced: every entry bit for bit, with zero coordinates among the x."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tubekernels.partitions import (
    Partition,
    _c_norm,
    _engine,
    _horizontal_strips,
    _partition_tuples,
    jack_C_all,
)


def _recursive_table(al, x, kmax):
    """C_kappa(x) by the per-table memoised recursion J(kappa, n), branching on x_n."""
    engine, memo = _engine(al), {}

    def jack(parts, n):
        if not parts:
            return 1.0
        if (parts, n) in memo:
            return memo[parts, n]
        if n == 1:
            total = x[0] ** parts[0]
            for j in range(parts[0]):
                total *= 1.0 + j * al
        else:
            total = 0.0
            for mu in _horizontal_strips(parts, n - 1):
                skip = sum(parts) - sum(mu)
                if skip > 0 and x[n - 1] == 0.0:
                    continue
                sub = jack(mu, n - 1)
                if sub != 0.0:
                    total += sub * x[n - 1] ** skip * engine._beta(parts, mu)
        memo[parts, n] = total
        return total

    return {parts: _c_norm(parts, Partition(parts).conjugate(), al) * jack(parts, len(x))
            for k in range(kmax + 1) for parts in _partition_tuples(k, len(x))}


_coordinate = st.one_of(st.just(0.0), st.floats(-0.95, 0.95, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(
    al=st.floats(0.05, 20.0),
    x=st.one_of(st.tuples(*[_coordinate] * 3), st.tuples(*[_coordinate] * 4)),
    kmax=st.integers(0, 14),
)
def test_level_table_matches_the_memoised_recursion_bitwise(al, x, kmax):
    table = jack_C_all(al, x, kmax)
    want = _recursive_table(al, x, kmax)
    assert list(table) == list(want)
    assert {k: v.hex() for k, v in table.items()} == {k: v.hex() for k, v in want.items()}

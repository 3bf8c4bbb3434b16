"""Pins of the Jack engine: rank >= 3 tables, jack_C lookups and series values.

The hex values and digests were recorded with the per-call recursion that the
engine replaced; the engine must reproduce them bit for bit.
"""

import hashlib
import math

import pytest

from tubekernels.errors import InvalidArgumentError
from tubekernels.hypergeom import HyperParams, hyp2f1_multi
from tubekernels.partitions import (
    Partition,
    _column_hooks,
    _engine,
    _horizontal_strips,
    _jack_table_cached,
    _partition_tuples,
    _table_args,
    enumerate_partitions,
    jack_C,
    jack_C_all,
)

X3 = (0.31, -0.22, 0.13)
X4 = (0.27, -0.19, 0.11, 0.05)

# (alpha, x, kmax) -> (entries, sha256 over every (kappa, value.hex()), a few entries as hex)
TABLE_PINS = {
    (1.0, X3, 40): (2282, "4771b34c55369ab24fb87c033de483aa6c8b6cb7820b470a3a01b181cc27928c", {
        (1, 1, 1): "-0x1.22856605ee569p-7", (7, 4, 2): "0x1.4e837aff7bc52p-15", (20,): "0x1.29b4997d82d7cp-34",
        (13, 13, 13): "-0x1.0ea7d59b2910bp-43", (40,): "0x1.577f274d5240dp-68",
        (25, 10, 5): "0x1.4cb4700ca6a7cp-35", (18, 2): "0x1.2e97ce8ae3f47p-28",
    }),
    (2.0, X3, 40): (2282, "a55f261ca9b27eeaa004362fecab4dd28eb4cd116dc214ddd18b39899ba20a20", {
        (1, 1, 1): "-0x1.22856605ee569p-6", (7, 4, 2): "0x1.8d2d0a8fa7e12p-14", (20,): "0x1.29fc40c11556fp-34",
        (13, 13, 13): "-0x1.a8779604cae62p-39", (40,): "0x1.56f0e2f667264p-68",
        (25, 10, 5): "0x1.7d9c696605f01p-34", (18, 2): "0x1.9366650fedca0p-28",
    }),
    (1.0, (0.4, 0.0, -0.2), 20): (358, "e33c2238cfafe1a44ecee453bed943237ca9aecb86744768a35223d5fbca6dc2", {
        (1, 1, 1): "0x0.0p+0", (20,): "0x1.f7b8261f4636cp-28", (18, 2): "0x1.4e80e61ce217dp-22",
    }),
    (1.0, X4, 30): (2724, "baf527f51c3639d5285a76fde2ed87be1483f4ba46c4e5b8cdc41d1f36120cd4", {
        (1, 1, 1): "-0x1.fd1569f490602p-8", (7, 4, 2): "0x1.4a0507c813c96p-17", (20,): "0x1.6aab7ce5c4568p-38",
        (12, 9, 6, 3): "-0x1.0deaa95ec7a1ap-34", (30,): "0x1.876e6072d7df1p-57",
    }),
}

# (m, x, kmax) -> (value.real.hex(), value.imag.hex(), truncation degree) at a = 0.7, b = 0.4+0.2j, c = 1.3+0.5j
SERIES_PINS = {
    (2.0, X3, 40): ("0x1.10408f8dcbed6p+0", "0x1.bccfb222ff660p-8", 21),
    (1.0, X3, 40): ("0x1.10ebb093de5a8p+0", "0x1.28df0b2580882p-8", 21),
    (2.0, X4, 30): ("0x1.10e43e796cd1fp+0", "0x1.9d8bbf2e84fffp-8", 19),
}


def _digest(table):
    h = hashlib.sha256()
    for key in sorted(table):
        h.update(repr(key).encode() + b"=" + float(table[key]).hex().encode() + b";")
    return h.hexdigest()


def _recursive_strips(parts):
    """Horizontal strips kappa/mu in the order the series contract fixes: row 0 slowest."""
    if not parts:
        yield ()
        return
    lo = parts[1] if len(parts) > 1 else 0
    for v in range(parts[0], lo - 1, -1):
        for rest in _recursive_strips(parts[1:]):
            yield (v,) + rest if v or rest else ()


def test_strips_keep_their_order_and_length_cap():
    for k in range(1, 11):
        for kappa in _partition_tuples(k, 4):
            for cap in range(1, 5):
                want = [mu for mu in _recursive_strips(kappa) if len(mu) <= cap]
                assert list(_horizontal_strips(kappa, cap)) == want, (kappa, cap)


def _loop_beta(kappa, mu, al):
    """The branching coefficient column by column, as the per-call recursion formed it."""
    kc, mc = Partition(kappa).conjugate(), Partition(mu).conjugate()
    (ku, kl), (mu_u, mu_l) = _column_hooks(kappa, kc, al), _column_hooks(mu, mc, al)
    num = 1.0
    for j in range(len(kc)):
        num *= ku[j] if j < len(mc) and kc[j] == mc[j] else kl[j]
    den = 1.0
    for j in range(len(mc)):
        den *= mu_u[j] if kc[j] == mc[j] else mu_l[j]
    return num / den


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_branching_coefficient_matches_the_column_loop_bitwise(alpha):
    engine = _engine(alpha)
    for k in range(1, 13):
        for kappa in _partition_tuples(k, 4):
            for mu in _horizontal_strips(kappa, 4):
                assert engine._beta(kappa, mu).hex() == _loop_beta(kappa, mu, alpha).hex(), (kappa, mu)


@pytest.mark.parametrize("case", list(TABLE_PINS), ids=lambda c: f"alpha{c[0]}-r{len(c[1])}-k{c[2]}")
def test_table_is_bitwise_pinned(case):
    alpha, x, kmax = case
    entries, digest, picks = TABLE_PINS[case]
    table = jack_C_all(alpha, x, kmax)
    assert len(table) == entries
    assert {kappa: float(table[kappa]).hex() for kappa in picks} == picks
    assert _digest(table) == digest


@pytest.mark.parametrize("case", list(TABLE_PINS), ids=lambda c: f"alpha{c[0]}-r{len(c[1])}-k{c[2]}")
def test_jack_C_matches_the_table_bitwise(case):
    alpha, x, kmax = case
    table = jack_C_all(alpha, x, kmax)
    for k in range(kmax + 1):
        assert all(kappa.parts in table for kappa in enumerate_partitions(k, len(x)))
    for kappa in TABLE_PINS[case][2]:
        assert jack_C(Partition(kappa), alpha, x).hex() == float(table[kappa]).hex()


@pytest.mark.parametrize("case", list(SERIES_PINS))
def test_series_is_bitwise_pinned(case):
    m, x, kmax = case
    res = hyp2f1_multi(HyperParams(a=0.7, b=0.4 + 0.2j, c=1.3 + 0.5j, multiplicity_m=m, k_max=kmax), x)
    assert (res.value.real.hex(), res.value.imag.hex(), res.truncation_degree) == SERIES_PINS[case]
    assert res.converged


def test_engine_cache_holds_its_bound():
    maxsize = _engine.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 3):
        jack_C(Partition((3, 1, 1)), 0.25 + i, X3)
    assert _engine.cache_info().currsize <= maxsize


def test_rank3_kmax_ceiling_is_unchanged():
    with pytest.raises(InvalidArgumentError, match="branching-path maximum 100"):
        hyp2f1_multi(HyperParams(a=0.5, b=0.3, c=1.2, k_max=101), X3)
    with pytest.raises(InvalidArgumentError, match="branching-path maximum 100"):
        jack_C_all(1.0, X3, 101)
    with pytest.raises(InvalidArgumentError, match="supported maximum 200"):
        jack_C_all(1.0, X3, 201)
    assert _table_args(1.0, X3, 100) == (1.0, X3)  # the ceiling itself is accepted


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_rejected_before_any_table_work(bad):
    x = (0.1, bad, 0.1)
    tables, engines = _jack_table_cached.cache_info(), _engine.cache_info()
    for call in (
        lambda: hyp2f1_multi(HyperParams(a=0.5, b=0.3, c=1.2), x),
        lambda: jack_C(Partition((2, 1)), 1.0, x),
        lambda: jack_C_all(1.0, x, 10),
        lambda: jack_C_all(1.0, x[:2], 10),
    ):
        with pytest.raises(InvalidArgumentError, match="finite"):
            call()
    assert _jack_table_cached.cache_info() == tables
    assert _engine.cache_info() == engines

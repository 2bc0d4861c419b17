"""Additional property-based tests: drowsy cache, prefetcher, HTB/PVT
interplay, energy accounting invariants."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.uarch.cache.drowsy import DrowsySetAssocCache
from repro.uarch.cache.prefetch import StreamPrefetcher
from repro.uarch.config import SERVER
from repro.uarch.core import CoreModel
from repro.power.accounting import EnergyAccounting


# ------------------------------------------------------------------ drowsy

drowsy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("drowse"), st.just(0)),
    ),
    max_size=150,
)


@given(ops=drowsy_ops)
@settings(max_examples=60)
def test_drowsy_count_matches_entries(ops):
    cache = DrowsySetAssocCache(1, 2, 64, "d")
    now = 0.0
    for op, value in ops:
        now += 1.0
        if op == "access":
            cache.access_timed(value * 64, now, is_write=value % 3 == 0)
        else:
            cache.drowse_all(now)
        actual = sum(
            1
            for cache_set in cache._sets
            for entry in cache_set
            if len(entry) > 2 and entry[2]
        )
        assert cache.drowsy_count == actual
        assert 0 <= cache.drowsy_count <= cache.resident_lines()


@given(ops=drowsy_ops)
@settings(max_examples=30)
def test_drowsy_fraction_bounded(ops):
    cache = DrowsySetAssocCache(1, 2, 64, "d")
    now = 0.0
    for op, value in ops:
        now += 1.0
        if op == "access":
            cache.access_timed(value * 64, now)
        else:
            cache.drowse_all(now)
    assert 0.0 <= cache.drowsy_fraction(max(now, 1.0)) <= 1.0


# --------------------------------------------------------------- prefetcher


@given(lines=st.lists(st.integers(min_value=0, max_value=10_000), max_size=300))
def test_prefetcher_accounting_consistent(lines):
    prefetcher = StreamPrefetcher(n_streams=4, window=4)
    for line in lines:
        prefetcher.access(line)
    assert prefetcher.hits + prefetcher.misses == len(lines)
    assert 0.0 <= prefetcher.coverage <= 1.0


@given(start=st.integers(min_value=0, max_value=1000),
       length=st.integers(min_value=2, max_value=100))
def test_prefetcher_covers_pure_sequential(start, length):
    prefetcher = StreamPrefetcher(n_streams=2, window=4)
    hits = sum(prefetcher.access(start + i) for i in range(length))
    assert hits == length - 1  # everything after the stream head


# ------------------------------------------------------- energy accounting


@given(
    switch_points=st.lists(
        st.floats(min_value=1.0, max_value=999_999.0), min_size=0, max_size=10
    )
)
@example(
    switch_points=[
        1.6900161860394292,
        1.6900161860394292,
        524290.5973126028,
        524290.5973126028,
    ]
)
@settings(max_examples=40)
def test_vpu_residency_always_normalised(switch_points):
    core = CoreModel(SERVER)
    accountant = EnergyAccounting(SERVER, core)
    state = True
    for point in sorted(switch_points):
        state = not state
        core.apply_vpu_state(state)
        accountant.on_switch("vpu", state, point)
    report = accountant.finalize(1_000_000.0)
    assert 0.0 <= report.vpu_on_frac <= 1.0
    assert report.leakage_j >= 0.0
    assert report.switch_counts["vpu"] == len(switch_points)


@given(
    way_points=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=999_999.0),
            st.sampled_from([1, 4, 8]),
        ),
        max_size=8,
    )
)
@settings(max_examples=40)
def test_mlc_residency_sums_to_one(way_points):
    core = CoreModel(SERVER)
    accountant = EnergyAccounting(SERVER, core)
    for point, ways in sorted(way_points):
        core.apply_mlc_state(ways)
        accountant.on_switch("mlc", ways, point)
    report = accountant.finalize(1_000_000.0)
    assert abs(sum(report.mlc_way_residency.values()) - 1.0) < 1e-9
    # Leakage can never exceed the always-on budget.
    assert report.avg_leakage_w <= SERVER.core_leakage_w * (1 + 1e-9)

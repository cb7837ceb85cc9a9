"""Unit and property tests for the cache-contention models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.stack_distance import StackDistanceCounters
from repro.config.cache_config import CacheConfig
from repro.contention import (
    FOAModel,
    InductiveProbabilityModel,
    StackDistanceCompetitionModel,
    make_contention_model,
)
from repro.contention.base import ContentionModelError, ProgramCacheDemand


LLC = CacheConfig(name="L3", size_bytes=64 * 64 * 8, associativity=8, latency=16, shared=True)


def _demand(name, per_way_counts, misses, instructions=10_000):
    """Build a demand whose SDC has ``per_way_counts`` hits at each depth."""
    counts = np.array(list(per_way_counts) + [misses], dtype=np.float64)
    assert len(counts) == LLC.associativity + 1
    return ProgramCacheDemand(
        name=name,
        sdc=StackDistanceCounters(associativity=LLC.associativity, counts=counts),
        instructions=instructions,
    )


def _uniform_demand(name, accesses=800.0, misses=100.0):
    per_way = [(accesses - misses) / LLC.associativity] * LLC.associativity
    return _demand(name, per_way, misses)


def _deep_demand(name, accesses=800.0, misses=50.0):
    """Most reuse sits in the deepest ways: very sensitive to losing space."""
    per_way = [10.0] * 4 + [(accesses - misses - 40.0) / 4] * 4
    return _demand(name, per_way, misses)


def _shallow_demand(name, accesses=800.0, misses=50.0):
    """All reuse in the first two ways: insensitive to losing space."""
    per_way = [(accesses - misses) / 2] * 2 + [0.0] * 6
    return _demand(name, per_way, misses)


ALL_MODELS = [FOAModel(), StackDistanceCompetitionModel(), InductiveProbabilityModel()]


def _by_name(model, demands, llc):
    """The model's estimates keyed by program name."""
    return {estimate.name: estimate for estimate in model.estimate(demands, llc)}


class TestCommonBehaviour:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_single_program_sees_no_extra_misses(self, model):
        demand = _uniform_demand("alone")
        estimates = model.estimate([demand], LLC)
        assert len(estimates) == 1
        assert estimates[0].extra_conflict_misses == pytest.approx(0.0)
        assert estimates[0].shared_misses == pytest.approx(demand.isolated_misses)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_sharing_never_reduces_misses(self, model):
        demands = [_uniform_demand("a"), _deep_demand("b"), _shallow_demand("c"), _uniform_demand("d")]
        estimates = model.estimate(demands, LLC)
        assert len(estimates) == len(demands)
        for demand, estimate in zip(demands, estimates):
            assert estimate.name == demand.name
            assert estimate.shared_misses >= demand.isolated_misses - 1e-9
            assert estimate.shared_misses <= demand.sdc.total_accesses + 1e-9
            assert estimate.extra_conflict_misses >= 0.0

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_deep_reuse_suffers_more_than_shallow_reuse(self, model):
        demands = [_deep_demand("deep"), _shallow_demand("shallow"), _uniform_demand("other")]
        by_name = _by_name(model, demands, LLC)
        assert by_name["deep"].extra_conflict_misses >= by_name["shallow"].extra_conflict_misses

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_associativity_mismatch_is_rejected(self, model):
        bad = ProgramCacheDemand(
            name="bad",
            sdc=StackDistanceCounters(associativity=4),
            instructions=1_000,
        )
        with pytest.raises(ContentionModelError):
            model.estimate([bad, _uniform_demand("ok")], LLC)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_empty_demand_list_is_rejected(self, model):
        with pytest.raises(ContentionModelError):
            model.estimate([], LLC)

    def test_demand_validation(self):
        with pytest.raises(ContentionModelError):
            ProgramCacheDemand(
                name="x", sdc=StackDistanceCounters(associativity=8), instructions=0
            )


class TestFOA:
    def test_high_frequency_program_keeps_more_of_its_hits(self):
        model = FOAModel()
        heavy = _uniform_demand("heavy", accesses=1600.0, misses=100.0)
        light = _uniform_demand("light", accesses=200.0, misses=100.0)
        estimates = _by_name(model, [heavy, light], LLC)
        heavy_loss = estimates["heavy"].extra_conflict_misses / heavy.sdc.hits
        light_loss = estimates["light"].extra_conflict_misses / light.sdc.hits
        assert heavy_loss < light_loss

    def test_equal_programs_share_equally(self):
        model = FOAModel()
        a = _uniform_demand("a")
        b = _uniform_demand("b")
        estimates = model.estimate([a, b], LLC)
        assert estimates[0].extra_conflict_misses == pytest.approx(
            estimates[1].extra_conflict_misses
        )

    def test_more_co_runners_mean_more_conflict_misses(self):
        model = FOAModel()
        two = _by_name(model, [_uniform_demand("p0"), _uniform_demand("p1")], LLC)
        four = _by_name(model, 
            [_uniform_demand(f"p{i}") for i in range(4)], LLC
        )
        assert four["p0"].extra_conflict_misses >= two["p0"].extra_conflict_misses

    def test_zero_access_program_is_unaffected(self):
        model = FOAModel()
        idle = _demand("idle", [0.0] * 8, 0.0)
        busy = _uniform_demand("busy")
        estimates = _by_name(model, [idle, busy], LLC)
        assert estimates["idle"].extra_conflict_misses == 0.0
        # The busy program keeps essentially the whole cache.
        assert estimates["busy"].extra_conflict_misses == pytest.approx(0.0, abs=1e-6)

    @given(
        accesses=st.lists(
            st.floats(min_value=10.0, max_value=5_000.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_estimates_always_bounded_by_access_counts(self, accesses):
        model = FOAModel()
        demands = [
            _uniform_demand(f"p{i}", accesses=value, misses=value * 0.1)
            for i, value in enumerate(accesses)
        ]
        for estimate, demand in zip(model.estimate(demands, LLC), demands):
            assert demand.isolated_misses - 1e-6 <= estimate.shared_misses
            assert estimate.shared_misses <= demand.accesses + 1e-6


class TestSDCCompetitionAndProb:
    def test_sdc_competition_awards_ways_to_the_hotter_program(self):
        model = StackDistanceCompetitionModel()
        hot = _uniform_demand("hot", accesses=2000.0, misses=100.0)
        cold = _uniform_demand("cold", accesses=100.0, misses=20.0)
        estimates = _by_name(model, [hot, cold], LLC)
        hot_loss = estimates["hot"].extra_conflict_misses / hot.sdc.hits
        cold_loss = estimates["cold"].extra_conflict_misses / cold.sdc.hits
        assert hot_loss <= cold_loss

    def test_prob_model_dilation_grows_with_co_runner_traffic(self):
        model = InductiveProbabilityModel()
        victim = _deep_demand("victim")
        light_other = _uniform_demand("other", accesses=100.0, misses=50.0)
        heavy_other = _uniform_demand("other", accesses=3000.0, misses=1500.0)
        light = _by_name(model, [victim, light_other], LLC)["victim"]
        heavy = _by_name(model, [victim, heavy_other], LLC)["victim"]
        assert heavy.extra_conflict_misses >= light.extra_conflict_misses


class TestFactory:
    @pytest.mark.parametrize(
        "name, cls",
        [("foa", FOAModel), ("sdc", StackDistanceCompetitionModel), ("prob", InductiveProbabilityModel)],
    )
    def test_make_contention_model(self, name, cls):
        assert isinstance(make_contention_model(name), cls)
        assert isinstance(make_contention_model(name.upper()), cls)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_contention_model("oracle")


# ---------------------------------------------------------------------------
# Batched kernels against the scalar methods, bit for bit
# ---------------------------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _counter_rows(rng, shape, width, integral):
    """Counter vectors as ``rows[..., 5:]`` views (non-contiguous, like a
    window row's SDC columns).  Float magnitudes span eight decades so a
    changed summation order shows in the low bits; small integers make
    the SDC competition tie often.  About a fifth of the counters are 0."""
    full = shape + (width + 5,)
    if integral:
        rows = rng.integers(0, 4, size=full).astype(np.float64)
    else:
        rows = rng.random(full) * 10.0 ** rng.uniform(0.0, 8.0, size=full)
    rows[rng.random(full) < 0.2] = 0.0
    return rows[..., 5:]


def _llc(associativity):
    return CacheConfig(
        name="L3", size_bytes=64 * 64 * associativity, associativity=associativity,
        latency=16, shared=True,
    )


_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestSuffixMissesBitIdentity:
    """``suffix_misses`` (a ``where=``-masked reduce) must equal
    ``misses_for_ways`` (a slice sum) bit for bit at every width, including
    8/9 and 16/17 around numpy's eight-way pairwise unroll, on
    non-contiguous ``windows[..., 5:]`` views and on contiguous copies."""

    @pytest.mark.parametrize("width", range(2, 34))
    @settings(max_examples=15, deadline=None)
    @given(
        seed=_seeds,
        mixes=st.integers(min_value=1, max_value=5),
        programs=st.integers(min_value=1, max_value=4),
        lookups=st.integers(min_value=1, max_value=3),
        contiguous=st.booleans(),
    )
    def test_matches_misses_for_ways(self, width, seed, mixes, programs, lookups, contiguous):
        from repro.contention.base import suffix_misses

        rng = np.random.default_rng(seed)
        counts = _counter_rows(rng, (mixes, programs), width, integral=False)
        if contiguous:
            counts = np.ascontiguousarray(counts)
        ways = rng.integers(0, width, size=(lookups, mixes, programs))
        got = suffix_misses(counts, ways)
        assert got.shape == ways.shape
        for index in np.ndindex(ways.shape):
            sdc = StackDistanceCounters(associativity=width - 1, counts=counts[index[1:]])
            assert _bits(got[index]) == _bits(sdc.misses_for_ways(int(ways[index])))

    @pytest.mark.parametrize("width", [2, 8, 9, 16, 17, 33])
    @pytest.mark.parametrize("contiguous", [False, True], ids=["view", "contiguous"])
    def test_edge_lookups_on_a_sweep_sized_batch(self, width, contiguous):
        # A [125, 4, W] batch (one sweep unit's mixes), with all-zero
        # rows, read at w = A (the C>A column alone), at w = 0 (the
        # whole vector), at random ways, and through FOA's broadcast
        # (2, M, C) lookups of neighbouring way counts.
        from repro.contention.base import suffix_misses

        rng = np.random.default_rng(width)
        associativity = width - 1
        counts = _counter_rows(rng, (125, 4), width, integral=False)
        counts[3] = 0.0
        counts[7, 2] = 0.0
        if contiguous:
            counts = np.ascontiguousarray(counts)
        lower = rng.integers(0, max(associativity, 1), size=(125, 4))
        lookups = {
            "w=A": np.full((125, 4), associativity),
            "w=0": np.zeros((125, 4), dtype=np.int64),
            "random": rng.integers(0, width, size=(125, 4)),
            "foa": np.array((lower, lower + 1)),
        }
        for name, ways in lookups.items():
            got = suffix_misses(counts, ways)
            assert got.shape == ways.shape, name
            for index in np.ndindex(ways.shape):
                sdc = StackDistanceCounters(associativity=associativity, counts=counts[index[-2:]])
                want = sdc.misses_for_ways(int(ways[index]))
                assert _bits(got[index]) == _bits(want), (name, index)
        zero_rows = suffix_misses(counts, lookups["random"])[3]
        assert not _bits(zero_rows).any()  # +0.0, not -0.0

    @pytest.mark.parametrize("width", [2, 8, 9, 16, 17, 33])
    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds, mixes=st.integers(min_value=1, max_value=5))
    def test_interpolation_matches_misses_for_effective_ways(self, width, seed, mixes):
        from repro.contention.base import interpolated_misses

        rng = np.random.default_rng(seed)
        associativity = width - 1
        counts = _counter_rows(rng, (mixes, 3), width, integral=False)
        effective = rng.uniform(-1.0, associativity + 1.0, size=(mixes, 3))
        # Exact integers and the clamps' edges, too.
        effective[:, 0] = rng.integers(0, width, size=mixes)
        effective[0, 1] = associativity
        got = interpolated_misses(counts, effective)
        for index in np.ndindex(effective.shape):
            sdc = StackDistanceCounters(associativity=associativity, counts=counts[index])
            want = sdc.misses_for_effective_ways(float(effective[index]))
            assert _bits(got[index]) == _bits(want)


def _assert_batch_matches_scalar(model, associativity, seed, mixes, programs, integral):
    rng = np.random.default_rng(seed)
    llc = _llc(associativity)
    counts = _counter_rows(rng, (mixes, programs), associativity + 1, integral)
    counts[rng.random((mixes, programs)) < 0.1] = 0.0  # zero-access programs
    instructions = rng.uniform(1.0, 1e5, size=(mixes, programs))
    got = model.estimate_batch(counts, instructions, associativity)
    for m in range(mixes):
        demands = [
            ProgramCacheDemand(
                name=f"core{c}",
                sdc=StackDistanceCounters(associativity=associativity, counts=counts[m, c]),
                instructions=float(instructions[m, c]),
            )
            for c in range(programs)
        ]
        want = [estimate.shared_misses for estimate in model.estimate(demands, llc)]
        np.testing.assert_array_equal(_bits(got[m]), _bits(want))


class TestEstimateBatchBitIdentity:
    """Every built-in model's ``estimate_batch`` equals ``estimate`` run on
    each mix alone, bit for bit (ties, zero-access programs, 1-4 cores, and
    9 and 16 cores, where a pairwise reduce over the program axis would
    round differently from the scalar left fold)."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
    @pytest.mark.parametrize("associativity", [2, 8, 16, 32])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=_seeds,
        mixes=st.integers(min_value=1, max_value=6),
        programs=st.integers(min_value=1, max_value=4),
        integral=st.booleans(),
    )
    def test_matches_scalar_estimate(self, model, associativity, seed, mixes, programs, integral):
        _assert_batch_matches_scalar(model, associativity, seed, mixes, programs, integral)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
    @pytest.mark.parametrize("programs", [9, 16])
    @pytest.mark.parametrize("associativity", [8, 16])
    @settings(max_examples=8, deadline=None)
    @given(seed=_seeds, mixes=st.integers(min_value=1, max_value=4), integral=st.booleans())
    def test_matches_scalar_estimate_past_eight_programs(
        self, model, programs, associativity, seed, mixes, integral
    ):
        _assert_batch_matches_scalar(model, associativity, seed, mixes, programs, integral)

    @pytest.mark.parametrize("programs", [9, 16])
    def test_wide_mixes_tell_a_reduce_from_the_left_fold(self, programs):
        # The program-axis totals of a 300-mix batch: np.add.reduce blocks
        # them pairwise and misses the scalar sum() somewhere, while
        # np.add.accumulate is the left fold on every row, and FOA and
        # prob match their scalar paths on the whole batch.
        rng = np.random.default_rng(programs)
        counts = _counter_rows(rng, (300, programs), 17, integral=False)
        accesses = np.add.reduce(counts, axis=-1)
        folded = [sum(row) for row in accesses.tolist()]
        assert _bits(np.add.reduce(accesses, axis=1)).tolist() != _bits(folded).tolist()
        assert _bits(np.add.accumulate(accesses, axis=1)[:, -1]).tolist() == _bits(folded).tolist()
        for model in (FOAModel(), InductiveProbabilityModel()):
            got = model.estimate_batch(counts, np.ones((300, programs)), 16)
            for m in range(300):
                demands = [
                    ProgramCacheDemand(
                        name=f"core{c}",
                        sdc=StackDistanceCounters(associativity=16, counts=counts[m, c]),
                        instructions=1.0,
                    )
                    for c in range(programs)
                ]
                want = [estimate.shared_misses for estimate in model.estimate(demands, _llc(16))]
                np.testing.assert_array_equal(_bits(got[m]), _bits(want))


def _assert_mix_matches_batch(model, counts, instructions, associativity):
    got = model.estimate_mix(counts, instructions, associativity)
    want = model.estimate_batch(counts[None], instructions[None], associativity)[0]
    assert isinstance(got, list) and all(type(value) is float for value in got)
    np.testing.assert_array_equal(_bits(got), _bits(want))


class TestEstimateMixBitIdentity:
    """``estimate_mix`` on one mix's ``(C, A+1)`` rows equals
    ``estimate_batch`` on that mix alone, bit for bit, for every model:
    FOA's scalar override and the base default behind SDC and prob."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
    @pytest.mark.parametrize("associativity", [2, 8, 16, 32])
    @settings(max_examples=25, deadline=None)
    @given(seed=_seeds, programs=st.integers(min_value=1, max_value=9), integral=st.booleans())
    def test_matches_estimate_batch(self, model, associativity, seed, programs, integral):
        rng = np.random.default_rng(seed)
        counts = _counter_rows(rng, (programs,), associativity + 1, integral)
        counts[rng.random(programs) < 0.2] = 0.0  # zero-access programs
        instructions = rng.uniform(1.0, 1e5, size=programs)
        _assert_mix_matches_batch(model, counts, instructions, associativity)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 2.0, 3.0]],  # a single program
            [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]],  # one program has every access
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # no accesses at all
            [[5.0, 0.0, 1.0], [0.0, 0.0, 0.0], [2.0, 7.0, 0.5]],
        ],
        ids=["single", "all-accesses", "idle", "one-idle"],
    )
    def test_edge_rows(self, model, rows):
        # Window rows' SDC columns are ``rows[:, 5:]`` views.
        windows = np.zeros((len(rows), 8))
        windows[:, 5:] = rows
        instructions = np.full(len(rows), 1e4)
        _assert_mix_matches_batch(model, windows[:, 5:], instructions, 2)

    # The batched FOA divides by its 5e-324 floor on a non-positive total.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda model: model.name)
    @pytest.mark.parametrize(
        "rows",
        [[[5.0, 1.0, 1.0], [-3.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]],
        ids=["short-total", "negative-total"],
    )
    def test_negative_counters(self, model, rows):
        # Cancellation can leave window counters slightly negative (the
        # scalar ``estimate`` rejects them); an access total below one
        # program's accesses, or below zero, puts its effective ways past A.
        counts = np.array(rows)
        _assert_mix_matches_batch(model, counts, np.ones(len(rows)), 2)

    def test_foa_gives_the_whole_cache_to_the_only_active_program(self):
        # Its effective ways reach A, where FOA keeps the isolated count.
        counts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert FOAModel().estimate_mix(counts, np.ones(2), 2) == [3.0, 0.0]

    def test_rejects_a_width_that_is_not_the_associativity(self):
        with pytest.raises(ContentionModelError):
            FOAModel().estimate_mix(np.ones((2, 4)), np.ones(2), 2)

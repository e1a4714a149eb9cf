"""Exact OU-type simulation: increment sampling, the autoregressive
recursion, seeding discipline, and moment reporting."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest

from gtsou import inversion, ou, tempered
from gtsou import (
    EQUITY_PARAMS,
    PRESETS,
    IncrementSampler,
    Marginal,
    OuConfig,
    SamplePath,
    build_increment_sampler,
    burn_in_length,
    default_grid,
    empirical_moments,
    ensemble_moments,
    increment_cumulants,
    increment_exponent,
    invert_cf,
    path_moments,
    sample_marginal,
    simulate_ensemble,
    simulate_path,
    simulate_paths,
    stationary_moments,
)
from gtsou.tempered import tempered_stable

CFG = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=200, seed=5)


@pytest.fixture(scope="module")
def sampler():
    return build_increment_sampler(EQUITY_PARAMS, CFG)


def test_exprel_matches_scipy():
    from scipy.special import exprel

    points = [0.0, 1e-300, -1e-300, 700.0, -700.0]
    for x in points:
        assert ou.exprel(x) == pytest.approx(exprel(x), rel=1e-15, abs=0.0)
        assert isinstance(ou.exprel(x), float)
    x = np.concatenate([points, np.linspace(-40.0, 40.0, 801), np.geomspace(1e-20, 1.0, 41)])
    np.testing.assert_allclose(ou.exprel(x), exprel(x), rtol=1e-15, atol=0.0)


def test_config_derived_quantities():
    assert CFG.a == pytest.approx(np.exp(-0.3), rel=1e-15)
    assert CFG.stationary_start
    fixed = OuConfig(lambda_rate=0.3, dt=1.0, x0=1.5)
    assert not fixed.stationary_start


def test_config_validation():
    with pytest.raises(ValueError):
        OuConfig(lambda_rate=0.0, dt=1.0)
    with pytest.raises(ValueError):
        OuConfig(lambda_rate=0.3, dt=-1.0)
    with pytest.raises(ValueError):
        OuConfig(lambda_rate=0.3, dt=1.0, n_steps=0)
    with pytest.raises(ValueError, match="n_steps"):
        OuConfig(lambda_rate=0.3, dt=1.0, n_steps=2.5)
    with pytest.raises(ValueError):
        OuConfig(lambda_rate=0.3, dt=1.0, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        OuConfig(lambda_rate=0.3, dt=1.0, seed=1.5)
    for x0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x0"):
            OuConfig(lambda_rate=0.3, dt=1.0, x0=x0)


def test_sampler_and_paths_invert_nothing(monkeypatch):
    # increments and stationary starts are drawn exactly: building a sampler
    # and simulating a path evaluate no exponent and invert no grid
    calls = []
    for module, name in ((ou, "invert_cf"), (inversion, "invert_cf"),
                         (inversion, "default_xi_max"), (ou, "increment_exponent")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    fixed = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=200, x0=0.0)
    for c in (fixed, CFG):
        simulate_path(EQUITY_PARAMS, c, build_increment_sampler(EQUITY_PARAMS, c))
    assert calls == []
    assert [f.name for f in fields(IncrementSampler)] == ["params", "config"]


def _increment_z_scores(p, c, seed, n=100_000):
    """z of the sample mean and variance of n increments against the exact
    kappa_1, kappa_2; the variance's standard error comes from kappa_4."""
    y = build_increment_sampler(p, c).draw(np.random.default_rng(seed), n)
    k = increment_cumulants(p, c, 4)
    zm = (y.mean() - k[1]) / np.sqrt(k[2] / n)
    zv = (y.var() - k[2]) / np.sqrt((k[4] + 2.0 * k[2] ** 2) / n)
    return zm, zv


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("betas", ["preset", 0.0, 1e-6])
@pytest.mark.parametrize("mode", [Marginal.GTS, Marginal.SD])
@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_increment_draws_match_cumulants(preset, betas, mode, lam):
    # sample mean and variance of 1e5 increments within 4 standard errors
    p = PRESETS[preset]
    if betas != "preset":
        p = p.replace(beta_plus=betas, beta_minus=betas)
    c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode, x0=0.0)
    zm, zv = _increment_z_scores(p, c, 31)
    assert abs(zm) <= 4.0 and abs(zv) <= 4.0, (zm, zv)


@pytest.mark.parametrize("mode", [Marginal.GTS, Marginal.SD])
def test_long_step_draws_match_cumulants(mode):
    # lambda dt = 6 is drawn as six damped sub-steps of 1
    c = OuConfig(lambda_rate=3.0, dt=2.0, mode=mode, x0=0.0)
    zm, zv = _increment_z_scores(EQUITY_PARAMS, c, 37)
    assert abs(zm) <= 4.0 and abs(zv) <= 4.0, (zm, zv)


@pytest.mark.parametrize("mode", [Marginal.GTS, Marginal.SD])
def test_very_long_step_draws_its_last_37(mode, monkeypatch):
    # lambda dt = 1000: jumps older than 37 are damped below 2^-53, so at most
    # 37 sub-steps run (two sides each), and the draws still match kappa_1,2
    calls = []
    real = ou._side_jumps

    def counted(*args):
        calls.append(args[5])
        assert len(calls) <= 2 * 37, "more than 37 sub-steps"
        return real(*args)

    monkeypatch.setattr(ou, "_side_jumps", counted)
    c = OuConfig(lambda_rate=1000.0, dt=1.0, mode=mode, x0=0.0)
    zm, zv = _increment_z_scores(EQUITY_PARAMS, c, 41, n=20_000)
    assert abs(zm) <= 4.0 and abs(zv) <= 4.0, (zm, zv)
    assert len(calls) == 2 * 37 and calls[0] == pytest.approx(1.0)


def test_zero_size_draws_are_empty():
    # size 0 draws nothing and leaves the stream where it was
    for mode in (Marginal.GTS, Marginal.SD):
        s = build_increment_sampler(EQUITY_PARAMS, OuConfig(
            lambda_rate=3.0, dt=1.0, mode=mode, x0=0.0))
        rng = np.random.default_rng(8)
        assert s.draw(rng, 0).shape == (0,)
        np.testing.assert_array_equal(s.draw(rng, 5),
                                      s.draw(np.random.default_rng(8), 5))
    for beta, c in ((0.0, 2.0), (0.3, 0.1), (0.3, 2.0)):  # gamma, Kanter, DR
        rng = np.random.default_rng(9)
        assert tempered_stable(rng, 0, beta, c, 1.5).shape == (0,)
        np.testing.assert_array_equal(tempered_stable(rng, 3, beta, c, 1.5),
                                      tempered_stable(np.random.default_rng(9), 3, beta, c, 1.5))


@pytest.mark.parametrize("preset, mode, lam", [
    ("equity", Marginal.GTS, 0.1), ("equity", Marginal.GTS, 1.0),
    ("equity", Marginal.SD, 0.1), ("equity", Marginal.SD, 1.0),
    ("crypto", Marginal.GTS, 1.0), ("crypto", Marginal.SD, 1.0),
])
def test_increment_draws_match_inverted_law(preset, mode, lam):
    # KS at 1% against the increment CF inverted on a grid sized from the
    # increment's own mean and sd, wherever that inversion is feasible
    p = PRESETS[preset]
    c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode, x0=0.0)
    exponent = lambda xi: increment_exponent(xi, p, c)
    k = increment_cumulants(p, c, 2)
    reference = invert_cf(exponent, default_grid(exponent, k[1], float(np.sqrt(k[2])),
                                                 n_points=8192, span=20.0))
    y = build_increment_sampler(p, c).draw(np.random.default_rng(47), 20_000)
    assert kstest(y, reference.cdf_at).pvalue > 0.01


def test_increment_draw_moments(sampler):
    # 1e6 inverse-transform draws: mean within 4 standard errors
    k = increment_cumulants(EQUITY_PARAMS, CFG, 2)
    n = 1_000_000
    y = sampler.draw(np.random.default_rng(100), n)
    se = np.sqrt(k[2] / n)
    assert y.mean() == pytest.approx(k[1], abs=4.0 * se)
    assert y.std(ddof=1) == pytest.approx(np.sqrt(k[2]), rel=0.01)


def test_same_seed_same_draws(sampler):
    a = sampler.draw(np.random.default_rng(42), 1000)
    b = sampler.draw(np.random.default_rng(42), 1000)
    np.testing.assert_array_equal(a, b)


def test_path_recursion_unrolled(sampler):
    # replay the draws: from mu the chain runs m = ceil(37 / lambda dt) steps
    # of x_k = a x_{k-1} + y_k (same stream), and the path is the rest
    path = simulate_path(EQUITY_PARAMS, CFG, sampler)
    m = ceil(37.0 / (CFG.lambda_rate * CFG.dt))
    y = sampler.draw(np.random.default_rng(CFG.seed), m + CFG.n_steps)
    expect = EQUITY_PARAMS.mu
    for k in range(m + CFG.n_steps):
        expect = CFG.a * expect + y[k]
        if k + 1 >= m:
            assert path.x[k + 1 - m] == expect
    # a fresh array: the path does not keep the start's m steps alive
    assert path.x.shape == (CFG.n_steps + 1,) and path.x.base is None
    assert not path.x.flags.writeable


def _scalar_recursion(s, c, rngs) -> list:
    """Bit for bit what each path must be: its generator's draws, taken in
    list order, run through the float recursion x = a x + y[k] from x0 (mu
    for a stationary start), with the first m values dropped."""
    m = ceil(37.0 / (c.lambda_rate * c.dt)) if c.stationary_start else 0
    paths = []
    for rng in rngs:
        y = s.draw(rng, m + c.n_steps)
        x = s.params.mu if c.stationary_start else c.x0
        expect = [x]
        for k in range(m + c.n_steps):
            x = c.a * x + float(y[k])
            expect.append(x)
        paths.append(expect[m:])
    return paths


@pytest.mark.parametrize("lam", [0.1, 1.0, 50.0])
@pytest.mark.parametrize("mode", [Marginal.GTS, Marginal.SD])
@pytest.mark.parametrize("x0", [None, 0.7])
def test_paths_equal_scalar_recursion(lam, mode, x0):
    c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode, x0=x0, n_steps=150, seed=8)
    s = build_increment_sampler(EQUITY_PARAMS, c)
    paths = simulate_paths(EQUITY_PARAMS, c, [np.random.default_rng(k) for k in (3, 4)], s)
    expect = _scalar_recursion(s, c, [np.random.default_rng(k) for k in (3, 4)])
    for path, values in zip(paths, expect, strict=True):
        assert np.array_equal(path.x, values)
        assert path.config.stationary_start == (x0 is None)


POOL_CFG = OuConfig(lambda_rate=1.0, dt=1.0, mode=Marginal.SD, n_steps=60, seed=8)


@pytest.mark.parametrize("n_paths", [1, 2, 3, 5])
def test_paths_do_not_depend_on_core_count(n_paths, monkeypatch):
    # the generators are drawn on min(n_paths, cores) threads, the calling
    # one among them; every core count gives each generator's serial path
    s = build_increment_sampler(EQUITY_PARAMS, POOL_CFG)
    expect = _scalar_recursion(s, POOL_CFG, [np.random.default_rng(k) for k in range(n_paths)])
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(ou, "ThreadPoolExecutor", RecordingPool)
    for cores in (1, 2, 3):
        monkeypatch.setattr(ou, "_usable_cpus", lambda cores=cores: cores)
        rngs = [np.random.default_rng(k) for k in range(n_paths)]
        paths = simulate_paths(EQUITY_PARAMS, POOL_CFG, rngs, s)
        for path, values in zip(paths, expect, strict=True):
            assert np.array_equal(path.x, values)
    assert pools == [max(1, min(n_paths, cores) - 1) for cores in (1, 2, 3)]


@pytest.mark.parametrize("rngs", [[np.random.default_rng(0)],
                                  [np.random.default_rng(1)] * 2])
def test_one_worker_draws_on_the_calling_thread(rngs, monkeypatch):
    # one path, or a repeated generator, makes w = 1: the pool gets no share
    # and so starts no thread
    monkeypatch.setattr(ou, "_usable_cpus", lambda: 2)
    base = build_increment_sampler(EQUITY_PARAMS, POOL_CFG)
    callers = []

    class Recording:
        params, config = base.params, base.config

        def draw_group(self, rngs, size):
            callers.extend([threading.current_thread()] * len(rngs))
            return base.draw_group(rngs, size)

    started, start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    simulate_paths(EQUITY_PARAMS, POOL_CFG, rngs, Recording())
    assert callers == [threading.current_thread()] * len(rngs)
    assert started == []


def test_repeated_generator_draws_in_list_order(monkeypatch):
    # two threads sharing one generator would interleave its calls; the list
    # is drawn serially, the second path from where the first one stopped
    monkeypatch.setattr(ou, "_usable_cpus", lambda: 2)
    s = build_increment_sampler(EQUITY_PARAMS, POOL_CFG)
    rng = np.random.default_rng(3)
    paths = simulate_paths(EQUITY_PARAMS, POOL_CFG, [rng, rng], s)
    again = np.random.default_rng(3)
    expect = _scalar_recursion(s, POOL_CFG, [again, again])
    for path, values in zip(paths, expect, strict=True):
        assert np.array_equal(path.x, values)
    assert not np.array_equal(paths[0].x, paths[1].x)


@settings(max_examples=60, deadline=None)
@given(preset=st.sampled_from(sorted(PRESETS)), mode=st.sampled_from(list(Marginal)),
       side=st.sampled_from(["preset", "beta0", "double_rejection"]),
       lam=st.sampled_from([0.1, 1.0, 2.5]), n_gen=st.integers(1, 6),
       size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       short_rounds=st.booleans())
def test_grouped_draws_equal_per_path_draws(preset, mode, side, lam, n_gen, size, seed,
                                            short_rounds):
    # each row of a group is its generator's own draw, bit for bit: with a
    # beta = 0 side (gamma route), a side at Lam > 5 from lambda dt = 1 on
    # (double rejection), sub-steps at lambda dt = 2.5, and first Kanter
    # rounds cut short so that every row draws further rounds
    p = PRESETS[preset]
    if side == "beta0":
        p = p.replace(beta_minus=0.0)
    elif side == "double_rejection":
        p = p.replace(alpha_plus=4.0 * p.alpha_plus)
    s = build_increment_sampler(p, OuConfig(lambda_rate=lam, dt=1.0, mode=mode, x0=0.0))
    seeds = np.random.SeedSequence(seed).spawn(n_gen)
    with pytest.MonkeyPatch.context() as patch:
        if short_rounds:
            patch.setattr(tempered, "_proposals", lambda need, lam, m: need // 2 + 1)
        group = s.draw_group([np.random.default_rng(q) for q in seeds], size)
        alone = [s.draw(np.random.default_rng(q), size) for q in seeds]
    assert group.shape == (n_gen, size)
    for row, ref in zip(group, alone, strict=True):
        assert np.array_equal(row, ref)


class _GroupRecorder:
    """A sampler that records the generators of each ``draw_group`` call."""

    def __init__(self, base):
        self.base, self.params, self.config = base, base.params, base.config
        self.groups = []

    def draw_group(self, rngs, size):
        self.groups.append(list(rngs))
        return self.base.draw_group(rngs, size)


SHORT_CFG = OuConfig(lambda_rate=0.1, dt=1.0, mode=Marginal.SD, n_steps=4000, seed=8)


@pytest.mark.parametrize("cores", [1, 2])
def test_shares_are_drawn_in_near_equal_groups(cores, monkeypatch):
    # 11 paths at lambda dt = 0.1: each share is split into near-equal groups
    # of at most _group_size generators (5 here), each generator in exactly
    # one group, and every path is its serial one
    monkeypatch.setattr(ou, "_usable_cpus", lambda: cores)
    base = build_increment_sampler(EQUITY_PARAMS, SHORT_CFG)
    n = ou._start_steps(SHORT_CFG) + SHORT_CFG.n_steps
    assert ou._group_size(EQUITY_PARAMS, SHORT_CFG, n) == 5
    rngs = [np.random.default_rng(k) for k in range(11)]
    recorder = _GroupRecorder(base)
    paths = simulate_paths(EQUITY_PARAMS, SHORT_CFG, rngs, recorder)
    # one share of 11 in 3 groups; shares of 6 (2 groups) and 5 (1 group)
    assert sorted(len(g) for g in recorder.groups) == ([3, 4, 4] if cores == 1 else [3, 3, 5])
    assert sorted(id(r) for g in recorder.groups for r in g) == sorted(map(id, rngs))
    expect = _scalar_recursion(base, SHORT_CFG, [np.random.default_rng(k) for k in range(11)])
    for path, values in zip(paths, expect, strict=True):
        assert np.array_equal(path.x, values)


def test_repeated_generator_keeps_groups_of_one(monkeypatch):
    # a generator listed twice among others: w = 1, one generator per call,
    # and the paths are the list-order serial draws
    monkeypatch.setattr(ou, "_usable_cpus", lambda: 2)
    c = OuConfig(lambda_rate=0.1, dt=1.0, mode=Marginal.GTS, n_steps=300, seed=2)
    base = build_increment_sampler(EQUITY_PARAMS, c)
    r0, r1 = np.random.default_rng(5), np.random.default_rng(6)
    recorder = _GroupRecorder(base)
    paths = simulate_paths(EQUITY_PARAMS, c, [r0, r1, r0], recorder)
    assert [len(g) for g in recorder.groups] == [1, 1, 1]
    again = np.random.default_rng(5)
    expect = _scalar_recursion(base, c, [again, np.random.default_rng(6), again])
    for path, values in zip(paths, expect, strict=True):
        assert np.array_equal(path.x, values)


def _traced_peak(draw) -> int:
    draw()  # first calls allocate caches of their own
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_group_draw_memory_is_bounded_by_one_long_path(lam):
    # a group's buffers are budgeted by Kanter's proposal count: no preset
    # group at lambda dt = 0.1 or 1 traces more than a lone draw of the
    # largest path of the benchmark's ensembles (equity SD at lambda dt = 1)
    # with U and X in a buffer each, as before grouping: today's lone draw
    # plus one buffer of its k first-round proposals
    def path_draw(p, mode, lam, rngs):
        c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode, n_steps=5000)
        n = ou._start_steps(c) + c.n_steps
        return lambda: build_increment_sampler(p, c).draw_group(rngs, n)

    longest = OuConfig(lambda_rate=1.0, dt=1.0, mode=Marginal.SD, n_steps=5000)
    n = ou._start_steps(longest) + longest.n_steps
    k = max(tempered.kanter_proposals(n, beta, *ou._side_law(beta, alpha, lam_, 1.0,
                                                             Marginal.SD)[:2])
            for _, beta, alpha, lam_ in EQUITY_PARAMS.sides())
    assert k > 2**15
    bound = _traced_peak(path_draw(EQUITY_PARAMS, Marginal.SD, 1.0,
                                   [np.random.default_rng(0)])) + 8 * k
    for p in PRESETS.values():
        for mode in Marginal:
            c = OuConfig(lambda_rate=lam, dt=1.0, mode=mode, n_steps=5000)
            n_gen = ou._group_size(p, c, ou._start_steps(c) + c.n_steps)
            assert n_gen >= (4 if lam == 0.1 else 1)
            rngs = [np.random.default_rng(j) for j in range(n_gen)]
            assert _traced_peak(path_draw(p, mode, lam, rngs)) <= bound, (p, mode)


@pytest.mark.parametrize("cores", [1, 2])
def test_error_in_a_share_propagates_and_joins_the_pool(cores, monkeypatch):
    # index 1 is drawn by the worker thread when there are two cores
    monkeypatch.setattr(ou, "_usable_cpus", lambda: cores)
    s = build_increment_sampler(EQUITY_PARAMS, POOL_CFG)
    before = threading.active_count()
    with pytest.raises(AttributeError):
        simulate_paths(EQUITY_PARAMS, POOL_CFG, [np.random.default_rng(0), 1], s)
    assert threading.active_count() == before


def test_ensemble_is_one_path_per_spawned_stream(sampler):
    streams = np.random.SeedSequence(CFG.seed).spawn(3)
    ensemble = simulate_ensemble(EQUITY_PARAMS, CFG, 3, sampler)
    for stream, path in zip(streams, ensemble, strict=True):
        single = simulate_path(EQUITY_PARAMS, CFG, sampler, rng=np.random.default_rng(stream))
        assert np.array_equal(path.x, single.x)


def test_zero_increments_decay_geometrically(sampler):
    # with the noise silenced the recursion is x_k = a^k x0
    class Silent:
        def __init__(self, base):
            self._base = base
            self.params = base.params
            self.config = base.config

        def draw_group(self, rngs, size):
            return np.zeros((len(rngs), size))

    cfg = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=50, seed=5,
                   x0=2.0)
    silent = Silent(build_increment_sampler(EQUITY_PARAMS, cfg))
    path = simulate_path(EQUITY_PARAMS, cfg, silent)
    np.testing.assert_allclose(path.x, 2.0 * cfg.a ** np.arange(51), rtol=1e-12)


def test_path_reproducible_from_config_seed(sampler):
    a = simulate_path(EQUITY_PARAMS, CFG, sampler)
    b = simulate_path(EQUITY_PARAMS, CFG, sampler)
    np.testing.assert_array_equal(a.x, b.x)


def test_sampler_config_mismatch_rejected(sampler):
    other = OuConfig(lambda_rate=0.9, dt=1.0, mode=Marginal.SD, n_steps=200, seed=5)
    with pytest.raises(ValueError):
        simulate_path(EQUITY_PARAMS, other, sampler)


def test_ensemble_reproducible_and_independent(sampler):
    paths1 = simulate_ensemble(EQUITY_PARAMS, CFG, 3, sampler)
    paths2 = simulate_ensemble(EQUITY_PARAMS, CFG, 3, sampler)
    for p1, p2 in zip(paths1, paths2):
        np.testing.assert_array_equal(p1.x, p2.x)
    # distinct child streams: no two paths identical
    assert not np.array_equal(paths1[0].x, paths1[1].x)
    with pytest.raises(ValueError):
        simulate_ensemble(EQUITY_PARAMS, CFG, 0, sampler)


def test_empty_generator_list_rejected(sampler):
    with pytest.raises(ValueError, match="rngs is an empty list"):
        simulate_paths(EQUITY_PARAMS, CFG, [], sampler)


def test_terminal_values_follow_stationary_law():
    # exact simulation from a stationary start: the first and the terminal
    # value of every path are draws from the marginal; KS at 1% against the
    # marginal CF inverted on a grid sized from its own mean and sd
    cfg = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=40, seed=17)
    exponent = ou.marginal_exponent(EQUITY_PARAMS, Marginal.SD)
    sm = stationary_moments(EQUITY_PARAMS, Marginal.SD)
    reference = invert_cf(exponent, default_grid(exponent, sm.mean, sm.std_dev,
                                                 n_points=8192, span=20.0))
    paths = simulate_ensemble(EQUITY_PARAMS, cfg, 600)
    for values in ([p.x[0] for p in paths], [p.x[-1] for p in paths]):
        assert kstest(values, reference.cdf_at).pvalue > 0.01


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("mode", [Marginal.GTS, Marginal.SD])
def test_stationary_start_matches_long_step_law(preset, mode):
    # at beta = 0 no grid inverts the gts marginal, but a step with
    # lambda dt = 1000 is drawn from the stationary law itself: the starts of
    # 1000 paths pass a two-sample KS at 1% against 2e4 such steps, and their
    # mean lies within 4 standard errors of the exact one
    p = PRESETS[preset].replace(beta_plus=0.0, beta_minus=0.0)
    c = OuConfig(lambda_rate=1.0, dt=1.0, mode=mode, n_steps=1, seed=3)
    starts = np.array([path.x[0] for path in simulate_ensemble(p, c, 1000)])
    long_step = OuConfig(lambda_rate=1000.0, dt=1.0, mode=mode, x0=0.0)
    reference = build_increment_sampler(p, long_step).draw(np.random.default_rng(53), 20_000)
    assert ks_2samp(starts, reference).pvalue > 0.01
    sm = stationary_moments(p, mode)
    z = (starts.mean() - sm.mean) / (sm.std_dev / np.sqrt(starts.size))
    assert abs(z) <= 4.0, z


def test_stationary_start_at_infinite_lambda_dt():
    # lambda dt overflows to inf, so ceil(37 / lambda dt) = 0: the start still
    # takes one exact step and is drawn, not left at mu
    for mode in (Marginal.GTS, Marginal.SD):
        c = OuConfig(lambda_rate=1e308, dt=10.0, mode=mode, n_steps=1, seed=2)
        assert c.lambda_rate * c.dt == np.inf
        starts = np.array([path.x[0] for path in simulate_ensemble(EQUITY_PARAMS, c, 20)])
        assert np.isfinite(starts).all() and (starts != EQUITY_PARAMS.mu).all()
        assert np.unique(starts).size == starts.size


def test_slow_stationary_start_refused():
    # lambda dt = 1e-6 would need 3.7e7 start steps, past the cap of 2^20:
    # refused with a pointer to a fixed start, which still runs
    c = OuConfig(lambda_rate=1e-6, dt=1.0, n_steps=10)
    with pytest.raises(ValueError, match=r"lambda dt = 1e-06 .*x0"):
        simulate_path(EQUITY_PARAMS, c)
    fixed = OuConfig(lambda_rate=1e-6, dt=1.0, n_steps=10, x0=0.0)
    assert simulate_path(EQUITY_PARAMS, fixed).x.shape == (11,)


def test_burn_in_policy():
    assert burn_in_length(CFG) == 0  # stationary start needs no warm-up
    fixed = OuConfig(lambda_rate=0.005, dt=1.0, x0=0.0)
    assert burn_in_length(fixed) == int(np.ceil(10.0 / 0.005))
    short = OuConfig(lambda_rate=5.0, dt=1.0, x0=0.0)
    assert burn_in_length(short) == 100


def test_empirical_moments_on_known_sequence():
    m = empirical_moments(np.array([1.0, 1.0, 3.0, 3.0]))
    assert m["mean"] == 2.0
    assert m["variance"] == 1.0
    assert m["skewness"] == 0.0
    assert m["kurtosis"] == 1.0
    flat = empirical_moments(np.full(5, 7.0))
    assert flat["std_dev"] == 0.0
    assert np.isnan(flat["skewness"])


def test_path_moments_report(sampler):
    long_cfg = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=5000,
                        seed=9)
    s = build_increment_sampler(EQUITY_PARAMS, long_cfg)
    path = simulate_path(EQUITY_PARAMS, long_cfg, s)
    rep = path_moments(path, EQUITY_PARAMS)
    assert rep.n_observations == 5001
    assert not rep.degenerate
    sm = stationary_moments(EQUITY_PARAMS, Marginal.SD)
    rows = rep.table_rows()
    assert [r[0] for r in rows] == list(rep.INDICATORS)
    assert rows[0][1] == pytest.approx(sm.mean)
    assert rows[1][1] == pytest.approx(sm.std_dev)
    # a stationary 5000-step path lands near the exact values
    assert rep.empirical["std_dev"] == pytest.approx(sm.std_dev, rel=0.15)
    d = rep.to_dict()
    assert d["theoretical"]["mode"] == "sd"
    assert set(d["relative_error_pct"]) >= set(rep.INDICATORS)


def test_path_moments_needs_enough_observations(sampler):
    cfg = OuConfig(lambda_rate=0.3, dt=1.0, mode=Marginal.SD, n_steps=120, seed=5,
                   x0=0.0)  # burn-in 100 leaves only 21 points
    s = build_increment_sampler(EQUITY_PARAMS, cfg)
    path = simulate_path(EQUITY_PARAMS, cfg, s)
    with pytest.raises(ValueError, match="only 21 observations remain after burn-in"):
        path_moments(path, EQUITY_PARAMS)


def test_ensemble_moments_pools_paths(sampler):
    paths = simulate_ensemble(EQUITY_PARAMS, CFG, 4, sampler)
    rep = ensemble_moments(paths, EQUITY_PARAMS)
    assert rep.n_observations == 4 * (CFG.n_steps + 1)


def test_ensemble_moments_cuts_each_path_at_its_own_burn_in():
    assert [f.name for f in fields(SamplePath)] == ["x", "config"]
    rng = np.random.default_rng(3)
    slow, fast = (SamplePath(rng.standard_normal(3001),
                             OuConfig(lambda_rate=lam, dt=1.0, x0=0.0, n_steps=3000))
                  for lam in (0.005, 5.0))
    assert [burn_in_length(sp.config) for sp in (slow, fast)] == [2000, 100]
    for order in ([slow, fast], [fast, slow]):
        assert ensemble_moments(order, EQUITY_PARAMS).n_observations == 1001 + 2901


def test_sample_marginal_modes_differ():
    rng = np.random.default_rng(2)
    x_gts = sample_marginal(EQUITY_PARAMS, Marginal.GTS, 5000, rng)
    x_sd = sample_marginal(EQUITY_PARAMS, Marginal.SD, 5000,
                           np.random.default_rng(2))
    # SD marginal has half the variance of the GTS marginal
    ratio = x_sd.var() / x_gts.var()
    assert ratio == pytest.approx(0.5, abs=0.08)
    with pytest.raises(ValueError):
        sample_marginal(EQUITY_PARAMS, Marginal.GTS, 0, rng)

import importlib.util
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from robust_trees import GridGraph, kernels, optimize_leaves_local

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"
BENCH_PY = ROOT / "benchmarks" / "bench_kernels.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_reports_sane_values(demo_dataset, demo_space, depth1_tree):
    """The benchmark's tracer, loaded from ``perfbench/layers.py`` as it
    stands, finds every function it wraps, the benchmark worker's backend
    check holds, and the grid path and leaf fill kernels are counted
    under their public names."""
    layers = _load("layers", LAYERS_PY)
    for span in layers.SPANS:
        module, _, name = span.partition(".")
        obj = importlib.import_module(f"robust_trees.{module}")
        for attr in name.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), span
    assert kernels.BACKEND == "numpy"
    with layers.Tracer() as tracer:
        GridGraph(3).min_linear(np.arange(12.0))
        optimize_leaves_local(depth1_tree, demo_dataset, 1.0,
                              demo_space.enumerate())
    assert tracer.calls["kernels.grid_min_path"] == 1
    assert tracer.calls["kernels.assign_reach"] == 1


def test_bench_kernels_suite_runs():
    """``benchmarks/bench_kernels.py`` calls private names of the package;
    one pass of its whole suite keeps the script in step with them."""
    bench = _load("bench_kernels", BENCH_PY)
    results = bench.run_suite(1, None)
    assert list(results) == [name for name, _ in bench.BENCHMARKS]
    assert all(seconds > 0 for seconds in results.values())


class TestJitMatchesPython:
    """``effort_matrix`` returns bitwise what its loop in
    ``tests/oracles.py`` returns."""

    def test_effort_matrix(self):
        rng = np.random.default_rng(12)
        costs = rng.uniform(0, 10, size=(6, 3))
        # leaf 0 bounds item 0 (its item-2 slot is open), leaf 1 bounds
        # item 1 twice, leaf 2 has contradictory bounds on item 2
        item = np.array([[0, 2], [1, 1], [2, 2]], dtype=np.int64)
        lo = np.array([[[-np.inf, -np.inf], [2.0, 4.0], [6.0, -np.inf]],
                       [[1.0, -np.inf], [2.5, 4.0], [5.5, -np.inf]]])
        hi = np.array([[[3.0, np.inf], [np.inf, 9.0], [5.0, np.inf]],
                       [[3.0, np.inf], [np.inf, 8.0], [5.0, np.inf]]])
        nominal = rng.integers(0, 2, size=(2, 6))
        got = kernels.effort_matrix(costs, item, lo, hi, nominal)
        ref = oracles.effort_matrix_loop(costs, item, lo, hi, nominal)
        assert got.tobytes() == ref.tobytes()
        assert np.isinf(got[:, :, 2]).all()
        assert (np.take_along_axis(got, nominal[:, :, None], 2) == 0).all()


def _assert_same_search(got, ref):
    assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert got[1].dtype == ref[1].dtype
    assert got[1].tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("n_leaves", [1, 2, 4, 8])
def test_assign_minmax_matches_loop(monkeypatch, n_leaves):
    """The NumPy leaf search returns bitwise the value and tuple of the
    one-node-at-a-time branch and bound: random and integer-tied values,
    cutoffs of inf, below, at and far below the optimum, one to six
    scenarios, and blocks from the default down to one prefix a chunk
    (the default evaluates the small grids in one broadcast)."""
    rng = np.random.default_rng(13 + n_leaves)
    pools = (1, 2, 3) if n_leaves == 8 else (1, 3, 6)
    for n_scen in range(1, 7):
        for n_pool in pools:
            for tied in (False, True):
                shape = (n_scen, n_leaves, n_pool)
                agg = (rng.integers(0, 4, size=shape).astype(np.float64)
                       if tied else rng.uniform(0, 20, size=shape))
                minagg = agg.min(axis=2)
                opt = oracles.assign_minmax_loop(agg, minagg, np.inf)[0]
                for cutoff in (np.inf, opt - 0.5, opt, 0.0):
                    ref = oracles.assign_minmax_loop(agg, minagg, cutoff)
                    for block in (kernels._BLOCK_ELEMS, 400, 50, 1):
                        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block)
                        _assert_same_search(
                            kernels.assign_minmax(agg, cutoff), ref)
                    monkeypatch.undo()


def test_assign_minmax_memory_stays_within_blocks():
    """A grid-4 sized search (8 scenarios, 4 leaves, 20 paths: 1.28
    million tuple sums) keeps its temporaries in blocks: well under 1 MB
    at its peak, and the result is the loop's."""
    rng = np.random.default_rng(21)
    agg = rng.integers(0, 6, size=(8, 4, 20)).astype(np.float64)
    minagg = agg.min(axis=2)
    ref = oracles.assign_minmax_loop(agg, minagg, np.inf)
    tracemalloc.start()
    try:
        got = kernels.assign_minmax(agg, np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    _assert_same_search(got, ref)


def _reach_case(rng, n_samples, n_leaves, n_pool, tied):
    """Values, reach and the bound inputs of one ``assign_reach`` call:
    each sample reaches its own leaf and, at random, some others."""
    shape = (n_samples, n_pool)
    values = (rng.integers(0, 4, size=shape).astype(np.float64) if tied
              else rng.uniform(0, 20, size=shape))
    reach = rng.uniform(size=(n_samples, n_leaves)) < 0.3
    reach[np.arange(n_samples), rng.integers(0, n_leaves, size=n_samples)] = (
        True)
    last = n_leaves - 1 - np.argmax(reach[:, ::-1], axis=1)
    return values, reach, values.min(axis=1), last.astype(np.int64)


@pytest.mark.parametrize("n_leaves", [1, 2, 4, 8])
def test_assign_reach_matches_search(monkeypatch, n_leaves):
    """The one-block broadcast and the branch and bound each return
    bitwise the value and tuple of ``_assign_reach``, and the value and
    tuple of the brute-force enumeration: random and integer-tied values,
    one to twelve samples (more than eight shows a pairwise sum), every
    draw once with a block that holds its whole grid and once with one
    that holds none."""
    rng = np.random.default_rng(31 + n_leaves)
    pools = (1, 2, 3) if n_leaves == 8 else (1, 3, 6)
    for n_samples in range(1, 13):
        for n_pool in pools:
            for tied in (False, True):
                args = _reach_case(rng, n_samples, n_leaves, n_pool, tied)
                ref = kernels._assign_reach(*args)
                _assert_same_search(ref, oracles.assign_reach_brute(
                    *args[:2]))
                for block in (n_pool ** n_leaves * n_samples, 0):
                    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block)
                    _assert_same_search(kernels.assign_reach(*args[:2]),
                                        ref)
                monkeypatch.undo()


@pytest.mark.parametrize("n_pool", [6, 20])
def test_assign_reach_memory_stays_within_blocks(n_pool):
    """5 samples and 4 leaves with a 6-path pool (grid 3: 6,480 elements,
    one block, the broadcast) and a 20-path pool (grid 4: 800,000, the
    branch and bound) keep their temporaries within a few blocks of
    float64 and return the search's result."""
    args = _reach_case(np.random.default_rng(23), 5, 4, n_pool, True)
    ref = kernels._assign_reach(*args)
    tracemalloc.start()
    try:
        got = kernels.assign_reach(*args[:2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * kernels._BLOCK_ELEMS
    _assert_same_search(got, ref)


# Values with ties and with sums that depend on the order of addition.
_SCAN_VALUES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1e-3, 2.5, 1e6])


def _bitwise_equal(got, ref):
    assert len(got) == len(ref)
    assert np.float64(got[0]).tobytes() == np.float64(ref[0]).tobytes()
    assert got[1] == ref[1]
    for g, r in zip(got[2:], ref[2:]):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


def _scan_case(data, bits_shape, values_shape, depth, reference):
    """Draw the arguments of a scan: bits, values, depth, a window
    [start, stop), best_in and lb.

    best_in and lb are drawn among the objectives of the window's best
    structure, its first structure and two random structures, and values
    off them, so the early stop sometimes fires at the best structure,
    sometimes at an earlier one (also where best_in already lies below
    lb) and sometimes never (lb far below any objective).  The window is
    drawn at its widest about half the time.
    """
    bits = data.draw(hnp.arrays(np.uint8, bits_shape,
                                elements=st.integers(0, 1)))
    values = data.draw(hnp.arrays(np.float64, values_shape,
                                  elements=_SCAN_VALUES))
    total = bits_shape[0] ** (2 ** depth - 1)
    start = data.draw(st.integers(0, total - 1))
    widest = min(total, start + 400)
    stop = data.draw(st.one_of(st.just(widest),
                               st.integers(start + 1, widest)))

    def window_value(lo, hi):
        return float(reference(bits, values, depth, lo, hi, np.inf,
                               -1e300)[0])

    best = window_value(start, stop)
    picked = [window_value(t, t + 1)
              for t in data.draw(st.lists(st.integers(start, stop - 1),
                                          min_size=2, max_size=2))]
    best_in = data.draw(st.sampled_from([np.inf, best, best - 0.5]
                                        + picked))
    first = window_value(start, start + 1)
    lb = data.draw(st.sampled_from([-1e300, best, best - 1.0, best + 0.3,
                                    first] + picked))
    return bits, values, depth, start, stop, best_in, lb


# Block caps: the default, and small ones that put improvements and early
# stops inside and across blocks, down to one structure a block.
_SCAN_BLOCKS = st.sampled_from([None, 64, 1])


def _blocked(block, scan, args):
    """The kernel scan over the oracle's window [start, stop), as the
    contiguous codes of that range."""
    bits, values, depth, start, stop, best_in, lb = args
    with mock.patch.object(kernels, "_BLOCK_ELEMS",
                           block or kernels._BLOCK_ELEMS):
        return scan(bits, values, depth, np.arange(start, stop), best_in, lb)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_pat=st.integers(1, 12), n_samples=st.integers(1, 10),
       n_pool=st.integers(1, 6), depth=st.integers(1, 3), block=_SCAN_BLOCKS)
def test_free_scan_matches_loop(data, n_pat, n_samples, n_pool, depth, block):
    args = _scan_case(data, (n_pat, n_samples), (n_samples, n_pool), depth,
                      oracles.scan_structures_free)
    _bitwise_equal(_blocked(block, kernels.scan_structures_free, args),
                   oracles.scan_structures_free(*args))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_pat=st.integers(1, 12), n_scen=st.integers(1, 4),
       n_samples=st.integers(1, 10), depth=st.integers(1, 3),
       block=_SCAN_BLOCKS)
def test_fixed_scan_matches_loop(data, n_pat, n_scen, n_samples, depth,
                                 block):
    args = _scan_case(data, (n_pat, n_scen, n_samples),
                      (n_samples, 2 ** depth), depth,
                      oracles.scan_structures_fixed)
    _bitwise_equal(_blocked(block, kernels.scan_structures_fixed, args),
                   oracles.scan_structures_fixed(*args))


_BOUNDS = st.sampled_from([-np.inf, np.inf, -1.0, 0.0, 0.4999, 0.5, 1.0,
                           1.001, 2.5, 9.0])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_rows=st.integers(1, 4), n_samples=st.integers(1, 6),
       n_items=st.integers(1, 4), n_leaves=st.integers(1, 8),
       n_slots=st.integers(0, 3))
def test_effort_matrix_matches_loop(data, n_rows, n_samples, n_items,
                                    n_leaves, n_slots):
    costs = data.draw(hnp.arrays(np.float64, (n_samples, n_items),
                                 elements=_SCAN_VALUES | _BOUNDS.filter(
                                     np.isfinite)))
    item = data.draw(hnp.arrays(np.int64, (n_leaves, n_slots),
                                elements=st.integers(0, n_items - 1)))
    lo = data.draw(hnp.arrays(np.float64, (n_rows, n_leaves, n_slots),
                              elements=_BOUNDS))
    hi = data.draw(hnp.arrays(np.float64, (n_rows, n_leaves, n_slots),
                              elements=_BOUNDS))
    nominal = data.draw(hnp.arrays(np.int64, (n_rows, n_samples),
                                   elements=st.integers(0, n_leaves - 1)))
    got = kernels.effort_matrix(costs, item, lo, hi, nominal)
    ref = oracles.effort_matrix_loop(costs, item, lo, hi, nominal)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _distinct_patterns(data, n_pat, pairs_shape):
    """Bits of up to ``n_pat`` distinct patterns (first occurrences kept in
    order), as ``exact._split_patterns`` hands them to the scans."""
    bits = data.draw(hnp.arrays(np.uint8, (n_pat,) + pairs_shape,
                                elements=st.integers(0, 1)))
    _, first = np.unique(bits.reshape(n_pat, -1), axis=0, return_index=True)
    return np.ascontiguousarray(bits[np.sort(first)])


# The most patterns, per depth, whose full odometer the loops walk fast.
_MAX_PATTERNS = {1: 12, 2: 7, 3: 3}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), depth=st.integers(1, 3), n_scen=st.integers(1, 3),
       n_samples=st.integers(1, 4), size=st.sampled_from([1, 3, 10 ** 6]),
       block=_SCAN_BLOCKS)
def test_canonical_structures_match_brute_force(data, depth, n_scen,
                                                n_samples, size, block):
    """The codes are, in order, the first structure of each routing class
    (two structures in one class exactly when they route every pair
    alike), at most ``size`` a time, also when blocks are too small for
    one prefix's tuple grid."""
    n_pat = data.draw(st.integers(1, _MAX_PATTERNS[depth]))
    bits = _distinct_patterns(data, n_pat, (n_scen, n_samples))
    with mock.patch.object(kernels, "_BLOCK_ELEMS",
                           block or kernels._BLOCK_ELEMS):
        windows = list(kernels.canonical_structures(bits, depth, size))
    assert all(0 < w.shape[0] <= size and w.dtype == np.int64
               for w in windows)
    assert (np.concatenate(windows).tolist()
            == oracles.canonical_structures(bits, depth))


def _canonical_scan(scan, bits, values, depth, best_in, lb, size):
    """The kernel scan over every canonical window in turn, carrying the
    incumbent as ``exact.solve_master`` does."""
    lb_stop = lb + 1e-12 * (1.0 + abs(lb))
    out = None
    best = best_in
    for codes in kernels.canonical_structures(bits, depth, size):
        got = scan(bits, values, depth, codes, best, lb)
        if got[1]:
            out, best = got, got[0]
        if best <= lb_stop:
            break
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), depth=st.integers(1, 3), n_scen=st.integers(1, 3),
       n_samples=st.integers(1, 5), n_pool=st.integers(1, 4),
       free=st.booleans(), size=st.sampled_from([1, 5, 10 ** 6]),
       block=_SCAN_BLOCKS)
def test_canonical_scans_match_full_loop(data, depth, n_scen, n_samples,
                                         n_pool, free, size, block):
    """Free-leaf (one scenario) and fixed-leaf scans over the canonical
    windows return bitwise what the loops return over the whole odometer:
    the same first strict minimum, or the same first improvement that
    reaches lb, from any incoming best.  lb is drawn reachable (the
    optimum, above it) and out of reach (below it, -1e300)."""
    n_pat = data.draw(st.integers(1, _MAX_PATTERNS[depth]))
    if free:
        n_scen = 1
    bits = _distinct_patterns(data, n_pat, (n_scen, n_samples))
    if free:
        bits = bits[:, 0]
        values_shape = (n_samples, n_pool)
        kernel, loop = kernels.scan_structures_free, oracles.scan_structures_free
    else:
        values_shape = (n_samples, 2 ** depth)
        kernel = kernels.scan_structures_fixed
        loop = oracles.scan_structures_fixed
    values = data.draw(hnp.arrays(np.float64, values_shape,
                                  elements=_SCAN_VALUES))
    total = bits.shape[0] ** (2 ** depth - 1)
    opt = float(loop(bits, values, depth, 0, total, np.inf, -1e300)[0])
    lb = data.draw(st.sampled_from([-1e300, opt - 1.0, opt, opt + 0.3]))
    best_in = data.draw(st.sampled_from([np.inf, opt + 0.5, opt]))
    ref = loop(bits, values, depth, 0, total, best_in, lb)
    with mock.patch.object(kernels, "_BLOCK_ELEMS",
                           block or kernels._BLOCK_ELEMS):
        got = _canonical_scan(kernel, bits, values, depth, best_in, lb, size)
    if not ref[1]:
        assert got is None
        return
    _bitwise_equal(got, ref)


@pytest.mark.parametrize("depth,windows", [(2, None), (3, 300)])
def test_canonical_structures_memory_stays_within_blocks(depth, windows):
    """64 patterns over 2 scenarios of 8 samples: the whole depth-2
    enumeration (up to 262,144 structures) and the first windows of the
    depth-3 one keep their temporaries in blocks, well under 1 MB at the
    peak, and the codes ascend."""
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2, size=(64, 2, 8)).astype(np.uint8)
    _, first = np.unique(bits.reshape(64, -1), axis=0, return_index=True)
    bits = np.ascontiguousarray(bits[np.sort(first)])
    assert bits.shape[0] >= 60
    count, last = 0, -1
    tracemalloc.start()
    try:
        gen = kernels.canonical_structures(bits, depth, 2048)
        for k, codes in enumerate(gen):
            if k == windows:
                break
            assert codes[0] > last and (np.diff(codes) > 0).all()
            count, last = count + codes.shape[0], codes[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert count >= (windows or 10 ** 4)

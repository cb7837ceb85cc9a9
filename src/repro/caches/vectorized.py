"""Vectorized trace-replay kernel: batch per-set LRU stack distances.

The single-core profiler historically walked every memory access through
a stateful :class:`~repro.caches.set_associative.SetAssociativeCache`
chain in a Python loop.  For LRU caches that is unnecessary: by the
classic stack-inclusion property (Mattson et al., 1970), an access hits
an A-way set-associative LRU cache iff its *per-set stack distance* —
the 1-based position of its line in the accessed set's recency stack —
is at most A.  Hit/miss outcomes for every cache level, the filtered
LLC stream and the stack-distance counters are therefore all pure
functions of stack distances, and stack distances for a whole access
stream can be computed with a handful of O(n log n) array passes.

The distance computation works in *set-grouped* coordinates (a stable
argsort by set index makes every set's accesses contiguous, in program
order) and has three stages:

1. **MRU prefilter.**  An access whose predecessor in its set touched
   the same line has stack distance 1 and is an LRU no-op: removing it
   changes nobody else's distance.  These accesses — a sizeable slice
   of any cache-friendly stream — are answered with one comparison and
   dropped before the expensive stages.
2. **Coverage.**  For each surviving access ``q`` let ``next(q)`` be
   the next occurrence of the same line (none for last occurrences)
   and ``prev(q)`` the previous one.  ``cov(q)`` — the accessed set's
   stack depth just before ``q`` — counts the earlier positions whose
   line is still live at ``q``: all of them, minus re-used positions
   already past their next use (a ``bincount``/``cumsum`` over next
   indices), minus earlier groups' last occurrences (a per-group
   prefix count).
3. **Containment.**  ``G(p)``, the number of reuse intervals
   ``(j, next(j))`` strictly containing the interval ``(p, q)`` of the
   queried access, splits by interval kind: every same-group last
   occurrence before ``p`` contains it outright (closed-form prefix
   count), and among re-used positions it is a preceding-greater count
   over the ``next`` sequence, computed for all positions at once by
   top-down radix partitioning (:func:`_count_preceding_greater`).
   The distance of a non-cold access is then ``cov(q) - G(prev(q))``:
   stack depth minus the lines buried deeper than the reused one.

Callers that only need hit or miss for one associativity A — the
detailed multi-core interleave — use :func:`llc_hits`, which decides
each access without its distance.  In the same grouped coordinates, a
reuse ``q`` of position ``p`` has distance one more than the number of
other lines accessed between them, which lies between the number of
*first* occurrences in ``(p, q)`` and ``q - p - 1``.  So:

* a first occurrence is a miss;
* a reuse with ``q - p <= A`` is a hit;
* a reuse with at least A first occurrences in ``(p, q)`` is a miss
  (one ``cumsum``);
* only the rest is counted exactly.  The other lines are the first
  occurrences plus the reuses in ``(p, q)`` whose own previous
  occurrence lies before ``p``.  The first A reuses of the range (at
  most 32) usually settle it.  Longer ranges are scanned to their end
  while the scans stay linear in the stream length, and otherwise
  counted with one :func:`_count_preceding_greater` pass over the
  reuses, so adversarial streams cost no more than the distances.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.config.machine import MachineConfig


def _count_preceding_greater(values: np.ndarray) -> np.ndarray:
    """For each element, count the earlier elements that are strictly greater.

    Top-down radix partitioning: a pair ``t < k`` with ``v[t] > v[k]``
    is counted exactly once — at the highest bit where the two values
    differ.  Sweeping bits from most to least significant while keeping
    elements grouped by their value prefix (in original order within
    each group), the bit-``b`` contribution for an element whose bit is
    0 is the number of earlier same-group elements whose bit is 1 — one
    ``cumsum`` — after which each group is stably split by the bit.
    O(n log(max value)) array work, no sorts and no per-access Python.

    Group bounds live in compact per-group arrays (broadcast to elements
    with ``repeat``), each element's original position rides in the high
    bits of its value word, and the running counts travel with the
    elements, so a level costs one ``cumsum`` and two scatters.

    ``values`` must be non-negative and below 2^31, as must ``len(values)``.
    """
    values = np.asarray(values)
    n = len(values)
    if n >= 2**31:  # pragma: no cover - int32 coordinate space exhausted
        raise ValueError("streams beyond 2^31 accesses are not supported")
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    vmax = int(values.max())
    if vmax == 0:
        return np.zeros(n, dtype=np.int64)
    if vmax >= 2**31:  # pragma: no cover - callers pass coordinates < 2n
        raise ValueError("values beyond 2^31 are not supported")

    position = np.arange(n, dtype=np.int32)
    # Value in bits 0..30, original position above: bit tests need no
    # unpacking, and one scatter moves both fields.
    packed = (position.astype(np.int64) << 31) | values.astype(np.int64)
    counts = np.zeros(n, dtype=np.int32)
    group_start = np.zeros(1, dtype=np.int32)
    group_size = np.array([n], dtype=np.int32)
    ones_cum = np.empty(n + 1, dtype=np.int32)  # padded cumsum scratch
    ones_cum[0] = 0
    for bit in range(vmax.bit_length() - 1, -1, -1):
        bit_set = ((packed >> bit) & 1).astype(np.int32)
        np.cumsum(bit_set, out=ones_cum[1:])
        total_ones = int(ones_cum[n])
        if total_ones == 0 or total_ones == n:
            continue  # constant bit: nothing to count, nothing to split
        start_ones = ones_cum[group_start]  # per group, not per element
        ones_before = ones_cum[:n] - np.repeat(start_ones, group_size)
        zero_mask = bit_set == 0
        # Earlier same-prefix elements with the bit set are strictly
        # greater than a bit-0 element, whatever the lower bits say.
        counts += np.where(zero_mask, ones_before, 0)
        if bit == 0:
            break
        # Stable partition of every group by the bit: zeros first.  A
        # bit-0 element keeps its rank among zeros, so its destination
        # collapses to position - ones_before.
        ones_total = ones_cum[group_start + group_size] - start_ones
        zeros_total = group_size - ones_total
        zeros_boundary = group_start + zeros_total
        destination = np.where(
            zero_mask,
            position - ones_before,
            np.repeat(zeros_boundary, group_size) + ones_before,
        )
        new_packed = np.empty_like(packed)
        new_counts = np.empty_like(counts)
        new_packed[destination] = packed
        new_counts[destination] = counts
        packed, counts = new_packed, new_counts
        # Interleave the zero/one subgroups, dropping the empty ones.
        split_starts = np.empty(2 * len(group_start), dtype=np.int32)
        split_sizes = np.empty_like(split_starts)
        split_starts[0::2] = group_start
        split_starts[1::2] = zeros_boundary
        split_sizes[0::2] = zeros_total
        split_sizes[1::2] = ones_total
        occupied = split_sizes > 0
        group_start = split_starts[occupied]
        group_size = split_sizes[occupied]
        if int(group_size.max()) <= 1:
            break  # every group is a singleton: no pair left to count
    out = np.empty(n, dtype=np.int64)
    out[packed >> 31] = counts
    return out


def _stable_argsort(values: np.ndarray) -> np.ndarray:
    """Stable argsort of an int64 array, via the faster default sort when safe.

    Values spanning fewer than 2^16 (set indices) are sorted as 16-bit
    keys, for which numpy's stable sort is a radix sort.  Otherwise
    stability is bought by sorting the collision-free combined key
    ``(value - min) * n + position`` with numpy's default introsort,
    which is noticeably faster than ``kind="stable"`` on int64; inputs
    whose value span would overflow the key fall back to the stable sort.
    """
    n = len(values)
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    low = int(values.min())
    span = int(values.max()) - low
    if span < 2**16:
        return np.argsort((values - low).astype(np.uint16), kind="stable")
    if span <= (2**62 - n) // n:
        return np.argsort((values - low) * n + np.arange(n, dtype=np.int64))
    return np.argsort(values, kind="stable")


def _reuse_chains(
    lines: np.ndarray, num_sets: int
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Set grouping and previous-occurrence chains of a non-empty stream.

    Returns ``(order, sizes, prev)`` in *grouped* coordinates
    (contiguous per set, program order inside): ``order`` maps grouped
    positions to original ones (``None`` for a single set, where the
    two coincide), ``sizes`` holds the non-empty group sizes in grouped
    order, and ``prev[q]`` is the grouped position of the previous
    occurrence of ``q``'s line, or -1 for a first occurrence.
    """
    n = len(lines)
    # A line always maps to one set, so occurrences keep their relative
    # order under the grouping permutation: chain them up in original
    # coordinates and translate.  Single-set caches skip the grouping.
    occ_original = _stable_argsort(lines)
    if num_sets == 1:
        order = None
        sizes = np.array([n], dtype=np.int64)
        occ = occ_original
    else:
        if num_sets & (num_sets - 1) == 0:
            sets = lines & (num_sets - 1)
        else:
            sets = lines % num_sets
        order = _stable_argsort(sets)  # grouped coords -> original
        inverse_order = np.empty(n, dtype=np.int64)
        inverse_order[order] = np.arange(n, dtype=np.int64)
        # Group sizes (groups appear in ascending set order; one
        # bincount instead of a boundary scan).
        sizes = np.bincount(sets, minlength=num_sets)
        sizes = sizes[sizes > 0].astype(np.int64)
        occ = inverse_order[occ_original]
    same_line = lines[occ_original[1:]] == lines[occ_original[:-1]]
    prev = np.full(n, -1, dtype=np.int64)
    prev[occ[1:][same_line]] = occ[:-1][same_line]
    return order, sizes, prev


def stack_distances(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Per-set LRU stack distance of every access of a stream.

    Returns an ``int64`` array aligned with ``lines``: the 1-based
    position of each access's line in the recency stack of its set
    (``line % num_sets``) just before the access, or 0 for a line never
    seen before.  Equivalent to feeding the stream through
    :class:`~repro.caches.stack_distance.StackDistanceProfiler` and
    collecting the per-access return values, but computed with array
    passes only.
    """
    if num_sets <= 0:
        raise ValueError(f"num_sets must be positive, got {num_sets}")
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    order, sizes, prev = _reuse_chains(lines, num_sets)

    # MRU prefilter: distance-1 accesses (same line as the set's
    # previous access) are LRU no-ops — record them and drop them; the
    # expensive stages run on the compacted survivors only.
    position = np.arange(n, dtype=np.int64)
    mru_repeat = prev == position - 1
    mru_repeat[0] = False  # a cold first access has prev == -1 == 0 - 1
    kept = ~mru_repeat
    kept_cum = np.empty(n + 1, dtype=np.int64)  # kept positions before q
    kept_cum[0] = 0
    np.cumsum(kept, out=kept_cum[1:])
    m = int(kept_cum[n])

    if m == n:
        prev_c = prev
        group_sizes_c = sizes
    else:
        # Translate the survivors' reuse chains: a dropped run collapses
        # onto its (kept) head, which holds the same line.
        head = np.maximum.accumulate(np.where(kept, position, -1))
        prev_kept = prev[kept]
        warm_kept = prev_kept >= 0
        prev_c = np.full(m, -1, dtype=np.int64)
        prev_c[warm_kept] = kept_cum[head[prev_kept[warm_kept]]]
        group_sizes_c = np.diff(kept_cum[np.concatenate(([0], np.cumsum(sizes)))])

    # Next occurrence is the inverse relation of previous occurrence.
    # Positions with none (each set-line's last occurrence) keep their
    # line in the stack until the end of the trace.
    nxt_c = np.full(m, -1, dtype=np.int64)
    warm_c = np.flatnonzero(prev_c >= 0)
    nxt_c[prev_c[warm_c]] = warm_c
    is_real = nxt_c >= 0  # re-used positions
    real_cum = np.empty(m + 1, dtype=np.int64)  # re-used positions before q
    real_cum[0] = 0
    np.cumsum(is_real, out=real_cum[1:])
    real_nxt = nxt_c[is_real]

    # Per position: last occurrences in *earlier* groups (their lines
    # are dead for q — a set only sees its own group).
    group_starts = np.cumsum(group_sizes_c) - group_sizes_c
    earlier_lasts = np.repeat(group_starts - real_cum[group_starts], group_sizes_c)

    # cov(q) — the stack depth of q's set — counts the accesses before q
    # whose line is still live at q: all of them, minus re-used
    # positions already past their next use, minus earlier groups' last
    # occurrences.
    dead_reused = np.empty(m + 1, dtype=np.int64)
    dead_reused[0] = 0
    np.cumsum(np.bincount(real_nxt, minlength=m), out=dead_reused[1:])
    position_c = np.arange(m, dtype=np.int64)
    cov = position_c - dead_reused[:m] - earlier_lasts

    # G(p) = number of reuse intervals strictly containing interval p,
    # split by interval kind.  Every same-group *last occurrence* before
    # p contains p's interval outright (its line stays in the stack to
    # the group's end), which is a closed-form prefix count; only the
    # re-used positions need the pairwise counter — a much smaller
    # problem, over plain next-occurrence indices (queried positions
    # always have a next occurrence, namely the query's access).
    containing_real = _count_preceding_greater(real_nxt)
    queried = prev_c[warm_c]
    lasts_before = (queried - real_cum[queried]) - earlier_lasts[queried]
    distances_c = np.zeros(m, dtype=np.int64)
    distances_c[warm_c] = cov[warm_c] - (
        containing_real[real_cum[queried]] + lasts_before
    )

    if m == n:
        grouped_distances = distances_c
    else:
        grouped_distances = np.ones(n, dtype=np.int64)  # dropped accesses: distance 1
        grouped_distances[kept] = distances_c
    if order is None:
        return grouped_distances
    out = np.empty(n, dtype=np.int64)
    out[order] = grouped_distances
    return out


def lru_hit_mask(distances: np.ndarray, associativity: int) -> np.ndarray:
    """Which accesses hit an ``associativity``-way LRU cache, by distance."""
    return (distances > 0) & (distances <= associativity)


#: Reuses :func:`llc_hits` reads at the head of each undecided range
#: before counting the rest: one per way, but at most this many, so
#: highly associative caches do not widen the scan.
_HEAD_SCAN = 32


def _count_below(
    values: np.ndarray, low: np.ndarray, high: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Per query ``i``, how many of ``values[low[i]:high[i]]`` are below ``bounds[i]``.

    One flat scan over all the ranges: linear in their total length.
    """
    widths = high - low
    total = int(widths.sum())
    owner = np.repeat(np.arange(len(low)), widths)
    scanned = np.arange(total) + np.repeat(low - (np.cumsum(widths) - widths), widths)
    below = values[scanned] < bounds[owner]
    return np.bincount(owner[below], minlength=len(low))


def llc_hits(lines: np.ndarray, num_sets: int, associativity: int) -> np.ndarray:
    """Which accesses of a stream hit an LRU cache of the given geometry.

    Exactly ``lru_hit_mask(stack_distances(lines, num_sets),
    associativity)``, but each access is decided by the cheapest test
    that settles it (see the module docstring); only the reuses no
    prefix count settles get an exact distinct-line count.
    """
    if num_sets <= 0:
        raise ValueError(f"num_sets must be positive, got {num_sets}")
    if associativity <= 0:
        raise ValueError(f"associativity must be positive, got {associativity}")
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if n == 0:
        return np.zeros(0, dtype=bool)

    order, _, prev = _reuse_chains(lines, num_sets)
    # Grouped coordinates: every access between a reuse q and its
    # previous occurrence p is in q's set, and the other lines among
    # them are exactly the lines stacked above q's before the access.
    first = prev < 0
    first_cum = np.empty(n + 1, dtype=np.int64)  # first occurrences before q
    first_cum[0] = 0
    np.cumsum(first, out=first_cum[1:])
    reuse = np.flatnonzero(~first)
    reuse_prev = prev[reuse]
    # Other lines between p and q: at most q - p - 1 (one per access),
    # at least the first occurrences among them.
    firsts_between = first_cum[reuse] - first_cum[reuse_prev + 1]
    certain_hit = reuse - reuse_prev <= associativity
    undecided = np.flatnonzero(~certain_hit & (firsts_between < associativity))

    grouped_hits = np.zeros(n, dtype=bool)
    grouped_hits[reuse[certain_hit]] = True
    if len(undecided):
        # The rest of the count: reuses r in (p, q) whose own previous
        # occurrence lies before p (each is another line's first access
        # since p).  The reuses in (p, q) are the index range
        # [low, high) of ``reuse``; ``needed`` such lines make q a miss.
        query_prev = reuse_prev[undecided]
        low = (query_prev + 1) - first_cum[query_prev + 1]
        high = undecided
        needed = associativity - firsts_between[undecided]
        # The first reuses of the range settle most queries: enough
        # older lines among them, or nothing left to scan.
        head_width = min(associativity, _HEAD_SCAN)
        head = np.minimum(high, low + head_width)
        padded = np.concatenate((reuse_prev, np.zeros(head_width, dtype=np.int64)))
        rows = sliding_window_view(padded, head_width)[low]  # contiguous row copies
        older = (
            (rows < query_prev[:, None]) & (np.arange(head_width) < (head - low)[:, None])
        ).sum(axis=1)
        still_open = np.flatnonzero((older < needed) & (head < high))
        if len(still_open):
            rest_low = head[still_open]
            rest_high = high[still_open]
            if int((rest_high - rest_low).sum()) <= n:
                older[still_open] += _count_below(
                    reuse_prev, rest_low, rest_high, query_prev[still_open]
                )
            else:
                # Bounded worst case (long open ranges): previous
                # positions of reuses are distinct, so the reuses in
                # (p, q) whose previous occurrence lies *after* p are
                # exactly the earlier reuses with a greater previous
                # position — one preceding-greater pass over the reuses.
                nested = _count_preceding_greater(reuse_prev)[high[still_open]]
                older[still_open] = high[still_open] - low[still_open] - nested
        grouped_hits[reuse[undecided[older < needed]]] = True

    if order is None:
        return grouped_hits
    out = np.empty(n, dtype=bool)
    out[order] = grouped_hits
    return out


def replay_llc(stream: np.ndarray, num_sets: int) -> np.ndarray:
    """Per-set LLC stack distances of a private-filtered access stream.

    The LLC pass on top of :func:`replay_private_levels`: a filtered
    access is an LLC hit iff it missed every private level and its
    distance here is at most the LLC's associativity.  The distances
    depend on the set count only, so by stack inclusion one pass serves
    every LLC with ``num_sets`` sets (:func:`lru_hit_mask` per
    associativity).
    """
    return stack_distances(stream, num_sets)


def replay_private_levels(
    lines: np.ndarray, machine: MachineConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter an access stream through the private cache levels only.

    Returns ``(served_level, surviving, stream)``: the served-level
    array with every access that missed all private levels still marked
    ``P + 1``, the indices of those surviving accesses, and their line
    addresses.  :func:`replay_llc` resolves the LLC on top of the
    surviving stream.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    num_private = len(machine.private_levels)
    served_level = np.full(n, num_private + 1, dtype=np.int64)
    surviving = np.arange(n, dtype=np.int64)
    stream = lines
    for level_index, level in enumerate(machine.private_levels):
        distances = stack_distances(stream, level.num_sets)
        hits = lru_hit_mask(distances, level.associativity)
        served_level[surviving[hits]] = level_index
        surviving = surviving[~hits]
        stream = stream[~hits]
    return served_level, surviving, stream

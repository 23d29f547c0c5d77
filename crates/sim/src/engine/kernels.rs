//! Branch-lean, word-at-a-time kernels behind the converging-phase hot
//! loop, plus the cache-engineered columnar layouts they operate on.
//!
//! The quiet path costs (near) zero by construction — dirty sets empty,
//! event queue drained — so the engine's remaining cost center is the
//! **converging phase**: every node active, every beacon flying, every
//! step a full pass over the dirty bitsets, the per-edge reception
//! epochs and the delivered-frame lists. This module extracts those
//! inner loops into standalone kernels with three properties:
//!
//! * **word-at-a-time** — dirty sets live in u64 words ([`BitWords`],
//!   backed by cache-line-aligned [`BitLine`]s); membership is a bit
//!   test, dense iteration decodes set bits with `trailing_zeros` (with
//!   an all-ones fast path that turns the cold-start storm into a
//!   near-memcpy), and draining never sorts — bit order *is* node
//!   order, so the sort the list-backed set needed disappears;
//! * **branch-lean** — the epoch/heard comparisons ([`any_fresh`],
//!   [`count_eq_u32`]) accumulate compare bits instead of early-exiting,
//!   so the loop body is straight-line code the compiler autovectorizes
//!   (SIMD compares on the contiguous `u32` epoch rows); the sorted
//!   join ([`sorted_positions`]) replaces the per-frame binary search
//!   of the old pass with a two-pointer merge over the (sorted)
//!   delivered-sender and adjacency lists;
//! * **contiguous** — [`HeardTable`] flattens the per-node reception
//!   rows (`Vec<Vec<u32>>`, one heap allocation per node) into one CSR
//!   arena: each row is a contiguous `&[u32]` slice, rows are laid out
//!   back-to-back in node order (the order the pass visits them), and
//!   wholesale invalidation is a single bulk fill instead of n
//!   re-allocations.
//!
//! # Alignment and padding audit
//!
//! The crate forbids `unsafe`, so heap alignment is obtained by
//! construction rather than by custom allocation: the bitset columns
//! are `Vec<BitLine>` with `#[repr(align(64))] BitLine([u64; 8])`, so
//! every line of dirty bits starts on a cache-line boundary and the
//! decode loop streams whole lines. The `u32` epoch columns
//! ([`HeardTable::row`], `NodeTable::epoch`) rely on autovectorization
//! with unaligned loads (peeled prologues) — measured on par with
//! aligned access on current x86-64. Sharded workers write disjoint
//! contiguous windows ([`HeardRowsMut`]), sharing a cache line only at
//! a window boundary; their `#[repr(align(64))]` scratch slots never
//! share one (`ShardScratch` in `network.rs`).
//!
//! Every kernel has a scalar reference implementation next to it
//! (`*_scalar`), property-tested equal in this module and benchmarked
//! against it in `crates/bench/benches/kernels.rs`.

use mwn_graph::NodeId;

/// Beacon-epoch sentinel meaning "never received anything from this
/// neighbor" (mirrored from the engine so the kernels are
/// self-contained).
const NEVER: u32 = u32::MAX;

/// Bits per bitset word.
const WORD_BITS: usize = 64;

/// Words per cache line.
const WORDS_PER_LINE: usize = 8;

/// One cache line of bitset words: the backing unit of [`BitWords`].
/// The `align(64)` guarantees every line — and therefore the whole
/// heap buffer — starts on a cache-line boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(64))]
pub struct BitLine([u64; WORDS_PER_LINE]);

/// A fixed-capacity bitset over node indices, stored in cache-line
/// aligned u64 words. All hot operations are O(1) bit ops; dense
/// iteration is a word scan with `trailing_zeros` decode.
#[derive(Clone, Debug, Default)]
pub struct BitWords {
    lines: Vec<BitLine>,
    nbits: usize,
}

impl BitWords {
    /// An empty set over `n` indices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        BitWords {
            lines: vec![BitLine::default(); words.div_ceil(WORDS_PER_LINE)],
            nbits: n,
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// `true` when the set holds no indices at all capacity 0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    #[inline]
    fn slot(i: usize) -> (usize, usize, u64) {
        let word = i / WORD_BITS;
        (
            word / WORDS_PER_LINE,
            word % WORDS_PER_LINE,
            1u64 << (i % WORD_BITS),
        )
    }

    /// Tests bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        let (l, w, m) = Self::slot(i);
        self.lines[l].0[w] & m != 0
    }

    /// Sets bit `i`; returns `true` when it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        let (l, w, m) = Self::slot(i);
        let word = &mut self.lines[l].0[w];
        let fresh = *word & m == 0;
        *word |= m;
        fresh
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        let (l, w, m) = Self::slot(i);
        self.lines[l].0[w] &= !m;
    }

    /// Sets every bit in `0..len()` (bulk fill, tail word masked so
    /// out-of-range bits stay clear).
    pub fn fill_all(&mut self) {
        self.lines.fill(BitLine([u64::MAX; WORDS_PER_LINE]));
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn zero_all(&mut self) {
        self.lines.fill(BitLine::default());
    }

    /// Zeroes the bits past `nbits` that the bulk fill set.
    fn mask_tail(&mut self) {
        let full_words = self.nbits / WORD_BITS;
        let rem = self.nbits % WORD_BITS;
        let total_words = self.lines.len() * WORDS_PER_LINE;
        if rem != 0 {
            let (l, w, _) = Self::slot(self.nbits);
            self.lines[l].0[w] &= (1u64 << rem) - 1;
        }
        let first_dead = full_words + usize::from(rem != 0);
        for word in first_dead..total_words {
            self.lines[word / WORDS_PER_LINE].0[word % WORDS_PER_LINE] = 0;
        }
    }

    /// Appends every set bit to `out` in ascending index order — the
    /// bitset-scan kernel. Each word decodes with `trailing_zeros`;
    /// an all-ones word (the converging-phase common case) takes a
    /// straight-line fast path.
    pub fn decode_into(&self, out: &mut Vec<NodeId>) {
        for (li, line) in self.lines.iter().enumerate() {
            if line.0 == [0u64; WORDS_PER_LINE] {
                continue;
            }
            for (wi, &w) in line.0.iter().enumerate() {
                decode_word(w, ((li * WORDS_PER_LINE + wi) * WORD_BITS) as u32, out);
            }
        }
    }

    /// [`BitWords::decode_into`] that also clears the set: the drain
    /// used by the per-step dirty-set collection.
    pub fn decode_and_zero_into(&mut self, out: &mut Vec<NodeId>) {
        for (li, line) in self.lines.iter_mut().enumerate() {
            if line.0 == [0u64; WORDS_PER_LINE] {
                continue;
            }
            for (wi, w) in line.0.iter_mut().enumerate() {
                decode_word(*w, ((li * WORDS_PER_LINE + wi) * WORD_BITS) as u32, out);
                *w = 0;
            }
        }
    }

    /// Scalar reference for [`BitWords::decode_into`]: per-bit test
    /// loop. Kept for equivalence tests and the micro-benches.
    pub fn decode_into_scalar(&self, out: &mut Vec<NodeId>) {
        for i in 0..self.nbits {
            if self.test(i) {
                out.push(NodeId::new(i as u32));
            }
        }
    }
}

/// Decodes one bitset word into `out` (bit `b` → `base + b`).
#[inline]
fn decode_word(w: u64, base: u32, out: &mut Vec<NodeId>) {
    if w == u64::MAX {
        // Dense fast path: the converging storm sets whole words.
        for b in 0..WORD_BITS as u32 {
            out.push(NodeId::new(base + b));
        }
    } else {
        let mut m = w;
        while m != 0 {
            out.push(NodeId::new(base + m.trailing_zeros()));
            m &= m - 1;
        }
    }
}

/// Minimum haystack width for the two-pointer merge strategy in
/// [`sorted_positions`] / [`any_fresh`]. Below it (or when keys hit
/// less than a quarter of the haystack) per-key binary search wins:
/// the crossover sits far past typical radio degrees (≈ 8–32), per
/// the degree sweep in `benches/kernels.rs` on the reference
/// container.
const MERGE_MIN_HAYSTACK: usize = 512;

/// For every `key` (in order), finds its position in the sorted
/// `haystack` and calls `f(position, key)` — the merge kernel of the
/// per-node receive loop, joining the delivered-sender list of a
/// receiver against its sorted adjacency list.
///
/// Independent-fates media deliver senders in ascending order (the
/// sender set is iterated sorted), so the join is a two-pointer merge:
/// O(|haystack| + |keys|) with no data-dependent branches in the
/// advance loop, versus a binary search *per frame* in the scalar
/// reference. Out-of-order keys (contention media own their push
/// order) rewind the cursor, so the kernel is correct for any input.
///
/// The merge only pays off on wide, densely-hit adjacency rows; at
/// radio degrees (≈ 8–32) a handful of well-predicted binary-search
/// probes per key is faster than the merge's per-key cursor
/// bookkeeping (measured in `benches/kernels.rs`), so small or
/// sparsely-keyed rows take the per-key path. Both strategies call
/// `f` with identical `(position, key)` sequences.
///
/// # Panics
///
/// Panics when a key is absent: media may deliver only between
/// 1-neighbors, so an absent sender is an engine invariant violation.
#[inline]
pub fn sorted_positions<F: FnMut(usize, NodeId)>(haystack: &[NodeId], keys: &[NodeId], mut f: F) {
    const ABSENT: &str = "media deliver only between 1-neighbors";
    if haystack.len() < MERGE_MIN_HAYSTACK || keys.len() * 4 < haystack.len() {
        for &s in keys {
            f(haystack.binary_search(&s).expect(ABSENT), s);
        }
        return;
    }
    let mut cur = 0usize;
    for &s in keys {
        if cur > 0 && haystack[cur - 1] >= s {
            cur = 0; // out-of-order key: rewind and rescan
        }
        while cur < haystack.len() && haystack[cur] < s {
            cur += 1;
        }
        assert!(cur < haystack.len() && haystack[cur] == s, "{ABSENT}");
        f(cur, s);
        cur += 1;
    }
}

/// Scalar reference for [`sorted_positions`]: binary search per key,
/// exactly the pre-kernel receive loop.
pub fn sorted_positions_scalar<F: FnMut(usize, NodeId)>(
    haystack: &[NodeId],
    keys: &[NodeId],
    mut f: F,
) {
    for &s in keys {
        let idx = haystack
            .binary_search(&s)
            .expect("media deliver only between 1-neighbors");
        f(idx, s);
    }
}

/// `true` when any delivered sender's current beacon epoch differs
/// from what the receiver last incorporated — the epoch/heard
/// comparison kernel of the wakeup scan (phase 4).
///
/// `heard_row` is the receiver's contiguous reception row
/// ([`HeardTable::row`]), `epochs` the global beacon-epoch column,
/// `neighbors` the receiver's sorted adjacency list and `senders` the
/// delivered-frame senders.
///
/// Early-exits on the first fresh epoch: during converging the very
/// first delivered frame is almost always fresh, so bailing out there
/// beats OR-accumulating the whole row (8× on the radio-degree shapes
/// of `benches/kernels.rs`). Wide densely-hit rows walk a two-pointer
/// merge; radio-degree rows probe per key, mirroring
/// [`sorted_positions`]'s strategy split.
#[inline]
pub fn any_fresh(
    heard_row: &[u32],
    epochs: &[u32],
    neighbors: &[NodeId],
    senders: &[NodeId],
) -> bool {
    const ABSENT: &str = "media deliver only between 1-neighbors";
    if neighbors.len() < MERGE_MIN_HAYSTACK || senders.len() * 4 < neighbors.len() {
        return any_fresh_scalar(heard_row, epochs, neighbors, senders);
    }
    let mut cur = 0usize;
    for &s in senders {
        if cur > 0 && neighbors[cur - 1] >= s {
            cur = 0; // out-of-order key: rewind and rescan
        }
        while cur < neighbors.len() && neighbors[cur] < s {
            cur += 1;
        }
        assert!(cur < neighbors.len() && neighbors[cur] == s, "{ABSENT}");
        if heard_row[cur] != epochs[s.index()] {
            return true;
        }
        cur += 1;
    }
    false
}

/// Scalar reference for [`any_fresh`]: the early-exiting `any` over
/// per-frame binary searches the engine used before the kernel layer.
pub fn any_fresh_scalar(
    heard_row: &[u32],
    epochs: &[u32],
    neighbors: &[NodeId],
    senders: &[NodeId],
) -> bool {
    senders.iter().any(|&s| {
        let idx = neighbors
            .binary_search(&s)
            .expect("media deliver only between 1-neighbors");
        heard_row[idx] != epochs[s.index()]
    })
}

/// How many entries of the contiguous row equal `v` — the bulk epoch
/// compare. Written as an accumulating map/sum so the compiler lowers
/// it to SIMD compares over the `u32` slice.
#[inline]
pub fn count_eq_u32(row: &[u32], v: u32) -> usize {
    row.iter().map(|&x| usize::from(x == v)).sum()
}

/// Scalar reference for [`count_eq_u32`] (branchy accumulation).
pub fn count_eq_u32_scalar(row: &[u32], v: u32) -> usize {
    let mut n = 0usize;
    for &x in row {
        if x == v {
            n += 1;
        }
    }
    n
}

/// Per-row slack kept by [`HeardTable`] so mobility-driven degree
/// growth rarely forces a re-layout.
const ROW_SLACK: u32 = 2;

/// The per-edge reception epochs as one contiguous CSR arena: row `r`
/// holds, for each neighbor in `r`'s sorted adjacency list, the epoch
/// of that neighbor's beacon `r` last incorporated ([`NEVER`] if
/// none). Replaces the `Vec<Vec<u32>>`-of-rows layout (one heap
/// allocation and one pointer chase per node) with offset-indexed
/// slices: rows are contiguous, laid out in node order, and wholesale
/// invalidation is a single bulk fill.
///
/// Rows carry [`ROW_SLACK`] spare capacity so a link appearing under
/// mobility updates in place; only growth past the slack re-layouts
/// the arena (amortized, rare).
#[derive(Clone, Debug, Default)]
pub struct HeardTable {
    /// `off[r]..off[r + 1]` is row `r`'s capacity region in `data`.
    off: Vec<u32>,
    /// Live prefix of each row (the node's current degree).
    len: Vec<u32>,
    /// The epoch entries; [`NEVER`] everywhere outside live prefixes.
    data: Vec<u32>,
}

impl HeardTable {
    /// Builds the arena for the given per-node degrees, every entry
    /// [`NEVER`].
    pub fn new<I: IntoIterator<Item = usize>>(degrees: I) -> Self {
        let mut off = vec![0u32];
        let mut len = Vec::new();
        for deg in degrees {
            let last = *off.last().expect("off starts non-empty");
            off.push(last + deg as u32 + ROW_SLACK);
            len.push(deg as u32);
        }
        let total = *off.last().expect("off starts non-empty") as usize;
        HeardTable {
            off,
            len,
            data: vec![NEVER; total],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Row `r` as a contiguous slice (one entry per adjacency slot).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.off[r] as usize;
        &self.data[lo..lo + self.len[r] as usize]
    }

    /// The entry at adjacency slot `idx` of row `r`.
    #[inline]
    pub fn get(&self, r: usize, idx: usize) -> u32 {
        debug_assert!(idx < self.len[r] as usize);
        self.data[self.off[r] as usize + idx]
    }

    /// Writes the entry at adjacency slot `idx` of row `r`.
    #[inline]
    pub fn set(&mut self, r: usize, idx: usize, v: u32) {
        debug_assert!(idx < self.len[r] as usize);
        self.data[self.off[r] as usize + idx] = v;
    }

    /// The whole table as one mutable row window, to be split at row
    /// boundaries ([`HeardRowsMut::split_at`]) for parallel writers.
    pub fn rows_mut(&mut self) -> HeardRowsMut<'_> {
        HeardRowsMut {
            first: 0,
            off: &self.off,
            len: &self.len,
            data: &mut self.data,
        }
    }

    /// Realigns row `r` to `deg` entries, all [`NEVER`] — the
    /// conservative forget used when a node's adjacency list changed.
    pub fn reset_row(&mut self, r: usize, deg: usize) {
        if self.off[r + 1] - self.off[r] < deg as u32 {
            self.grow_row(r, deg);
        }
        let (lo, hi) = (self.off[r] as usize, self.off[r + 1] as usize);
        // Fill the whole capacity region so slack never holds stale
        // epochs when a later growth exposes it.
        self.data[lo..hi].fill(NEVER);
        self.len[r] = deg as u32;
        debug_assert_eq!(count_eq_u32(&self.data[lo..hi], NEVER), hi - lo);
    }

    /// Realigns every row to the given degrees, all entries [`NEVER`]
    /// — wholesale invalidation as one bulk fill when the capacities
    /// still fit.
    pub fn reset_all<I: IntoIterator<Item = usize>>(&mut self, degrees: I) {
        let mut lens = std::mem::take(&mut self.len);
        lens.clear();
        lens.extend(degrees.into_iter().map(|d| d as u32));
        let fits = lens.len() == self.off.len() - 1
            && lens
                .iter()
                .enumerate()
                .all(|(r, &d)| self.off[r + 1] - self.off[r] >= d);
        if fits {
            self.data.fill(NEVER);
            self.len = lens;
        } else {
            *self = HeardTable::new(lens.iter().map(|&d| d as usize));
        }
    }

    /// Re-layouts the arena so row `r` can hold `deg` entries,
    /// preserving every other row's live prefix. Rare: only mobility
    /// that grows a node's degree past its slack lands here.
    fn grow_row(&mut self, r: usize, deg: usize) {
        let rows = self.rows();
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0u32);
        for i in 0..rows {
            let keep = (self.off[i + 1] - self.off[i]).max(self.len[i] + ROW_SLACK);
            let cap = if i == r {
                keep.max(deg as u32 + ROW_SLACK)
            } else {
                keep
            };
            off.push(off[i] + cap);
        }
        let mut data = vec![NEVER; *off.last().expect("off non-empty") as usize];
        #[allow(clippy::needless_range_loop)] // i indexes four parallel arenas
        for i in 0..rows {
            let (src, dst) = (self.off[i] as usize, off[i] as usize);
            let live = self.len[i] as usize;
            data[dst..dst + live].copy_from_slice(&self.data[src..src + live]);
        }
        self.off = off;
        self.data = data;
    }
}

/// A mutable window over the contiguous rows `first..first + n` of a
/// [`HeardTable`], addressed by absolute row index: rows lie
/// back-to-back in node order, so a row range is one contiguous slice
/// of the arena and windows split like `split_at_mut`.
#[derive(Debug)]
pub struct HeardRowsMut<'a> {
    /// Absolute index of the window's first row.
    first: usize,
    /// `off[first..=first + n]` and `len[first..first + n]`.
    off: &'a [u32],
    len: &'a [u32],
    /// The arena region `off[first]..off[first + n]`.
    data: &'a mut [u32],
}

impl<'a> HeardRowsMut<'a> {
    /// Absolute row `r`, one entry per adjacency slot.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u32] {
        let k = r - self.first;
        let lo = (self.off[k] - self.off[0]) as usize;
        &mut self.data[lo..lo + self.len[k] as usize]
    }

    /// Splits the window before absolute row `mid` (within the window
    /// or at its end), like `split_at_mut`.
    pub fn split_at(self, mid: usize) -> (HeardRowsMut<'a>, HeardRowsMut<'a>) {
        let k = mid - self.first;
        let (lo, hi) = self.data.split_at_mut((self.off[k] - self.off[0]) as usize);
        let (len_lo, len_hi) = self.len.split_at(k);
        let left = HeardRowsMut {
            first: self.first,
            off: &self.off[..=k],
            len: len_lo,
            data: lo,
        };
        let right = HeardRowsMut {
            first: mid,
            off: &self.off[k..],
            len: len_hi,
            data: hi,
        };
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, density: f64, seed: u64) -> BitWords {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = BitWords::new(n);
        for i in 0..n {
            if rng.random_bool(density) {
                w.set(i);
            }
        }
        w
    }

    #[test]
    fn bitline_is_cache_line_sized_and_aligned() {
        assert_eq!(std::mem::size_of::<BitLine>(), 64);
        assert_eq!(std::mem::align_of::<BitLine>(), 64);
    }

    #[test]
    fn bit_ops_roundtrip() {
        let mut w = BitWords::new(200);
        assert!(w.set(3));
        assert!(!w.set(3), "second set reports already-present");
        assert!(w.test(3));
        w.clear(3);
        assert!(!w.test(3));
        assert_eq!(w.len(), 200);
    }

    #[test]
    fn decode_matches_scalar_across_densities() {
        for (density, seed) in [(0.0, 1), (0.01, 2), (0.5, 3), (0.97, 4), (1.0, 5)] {
            for n in [0usize, 1, 63, 64, 65, 511, 512, 700] {
                let w = random_bits(n, density, seed);
                let (mut fast, mut scalar) = (Vec::new(), Vec::new());
                w.decode_into(&mut fast);
                w.decode_into_scalar(&mut scalar);
                assert_eq!(fast, scalar, "n = {n}, density = {density}");
            }
        }
    }

    #[test]
    fn decode_and_zero_drains() {
        let mut w = random_bits(300, 0.4, 9);
        let mut expect = Vec::new();
        w.decode_into(&mut expect);
        let mut got = Vec::new();
        w.decode_and_zero_into(&mut got);
        assert_eq!(got, expect);
        let mut empty = Vec::new();
        w.decode_into(&mut empty);
        assert!(empty.is_empty(), "drain must clear every bit");
    }

    #[test]
    fn fill_all_masks_the_tail() {
        for n in [1usize, 63, 64, 65, 127, 128, 129, 513] {
            let mut w = BitWords::new(n);
            w.fill_all();
            let mut out = Vec::new();
            w.decode_into(&mut out);
            assert_eq!(out.len(), n, "n = {n}");
            assert_eq!(out.last().map(|p| p.index()), Some(n - 1));
            w.zero_all();
            out.clear();
            w.decode_into(&mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn sorted_join_matches_scalar_on_sorted_and_unsorted_keys() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let mut haystack: Vec<NodeId> = (0..rng.random_range(1..80u32))
                .map(|_| NodeId::new(rng.random_range(0..500)))
                .collect();
            haystack.sort_unstable();
            haystack.dedup();
            let mut keys: Vec<NodeId> = (0..rng.random_range(0..haystack.len() * 2))
                .map(|_| haystack[rng.random_range(0..haystack.len())])
                .collect();
            // Half the trials feed sorted keys (the independent-fates
            // shape), half leave them shuffled (contention media).
            if rng.random_bool(0.5) {
                keys.sort_unstable();
            }
            let mut fast = Vec::new();
            sorted_positions(&haystack, &keys, |idx, s| fast.push((idx, s)));
            let mut scalar = Vec::new();
            sorted_positions_scalar(&haystack, &keys, |idx, s| scalar.push((idx, s)));
            assert_eq!(fast, scalar);
        }
    }

    #[test]
    #[should_panic(expected = "1-neighbors")]
    fn sorted_join_rejects_absent_keys() {
        let haystack = [NodeId::new(1), NodeId::new(4)];
        sorted_positions(&haystack, &[NodeId::new(4); 9], |_, _| {});
        sorted_positions(&haystack, &[NodeId::new(2); 9], |_, _| {});
    }

    #[test]
    fn any_fresh_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..60 {
            let deg = rng.random_range(1..24usize);
            let neighbors: Vec<NodeId> = (0..deg as u32).map(|i| NodeId::new(i * 3)).collect();
            let epochs: Vec<u32> = (0..80).map(|_| rng.random_range(0..4)).collect();
            let heard_row: Vec<u32> = (0..deg)
                .map(|_| {
                    if rng.random_bool(0.2) {
                        NEVER
                    } else {
                        rng.random_range(0..4)
                    }
                })
                .collect();
            let mut senders: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.6))
                .collect();
            senders.sort_unstable();
            assert_eq!(
                any_fresh(&heard_row, &epochs, &neighbors, &senders),
                any_fresh_scalar(&heard_row, &epochs, &neighbors, &senders),
            );
        }
    }

    #[test]
    fn count_eq_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(29);
        for n in [0usize, 1, 7, 64, 1000] {
            let row: Vec<u32> = (0..n).map(|_| rng.random_range(0..3)).collect();
            for v in 0..3 {
                assert_eq!(count_eq_u32(&row, v), count_eq_u32_scalar(&row, v));
            }
        }
    }

    #[test]
    fn heard_table_rows_and_writes() {
        let mut t = HeardTable::new([2usize, 0, 3]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[NEVER, NEVER]);
        assert_eq!(t.row(1), &[] as &[u32]);
        t.set(2, 1, 7);
        assert_eq!(t.get(2, 1), 7);
        assert_eq!(t.row(2), &[NEVER, 7, NEVER]);
    }

    #[test]
    fn heard_table_reset_row_realigns_and_forgets() {
        let mut t = HeardTable::new([2usize, 2]);
        t.set(0, 0, 5);
        t.set(1, 1, 6);
        // Shrink, grow within slack, grow past slack: all forget.
        for deg in [1usize, 4, 11] {
            t.reset_row(0, deg);
            assert_eq!(t.row(0).len(), deg);
            assert!(t.row(0).iter().all(|&e| e == NEVER));
            assert_eq!(t.row(1), &[NEVER, 6], "other rows must be preserved");
        }
    }

    /// Splits `t` at the ascending absolute row `cuts` and applies
    /// every `(row, slot, value)` write through the window owning the
    /// row, checking each read-back there.
    fn write_through_windows(t: &mut HeardTable, cuts: &[usize], writes: &[(usize, usize, u32)]) {
        let rows = t.rows();
        let mut windows = Vec::new();
        let (mut rest, mut lo) = (t.rows_mut(), 0);
        for &cut in cuts {
            let (head, tail) = rest.split_at(cut);
            windows.push((lo..cut, head));
            (rest, lo) = (tail, cut);
        }
        windows.push((lo..rows, rest));
        for &(r, idx, v) in writes {
            let (_, w) = windows
                .iter_mut()
                .find(|(span, _)| span.contains(&r))
                .expect("some window owns every row");
            w.row_mut(r)[idx] = v;
            assert_eq!(w.row_mut(r)[idx], v);
        }
    }

    /// Applies the same writes through `HeardTable::set` on the whole
    /// table.
    fn write_whole(t: &mut HeardTable, writes: &[(usize, usize, u32)]) {
        for &(r, idx, v) in writes {
            t.set(r, idx, v);
        }
    }

    fn rows_of(t: &HeardTable) -> Vec<Vec<u32>> {
        (0..t.rows()).map(|r| t.row(r).to_vec()).collect()
    }

    #[test]
    fn heard_windows_write_like_whole_table_sets() {
        let degrees = [3usize, 0, 5, 1, 4, 2];
        let writes: Vec<(usize, usize, u32)> = degrees
            .iter()
            .enumerate()
            .flat_map(|(r, &d)| (0..d).map(move |k| (r, k, (10 * r + k) as u32)))
            .collect();
        let mut whole = HeardTable::new(degrees);
        write_whole(&mut whole, &writes);
        for cuts in [
            vec![],
            vec![2],
            vec![1, 3, 5],
            vec![0, 6],
            vec![0, 0, 3, 3, 6, 6],
        ] {
            let mut split = HeardTable::new(degrees);
            write_through_windows(&mut split, &cuts, &writes);
            assert_eq!(rows_of(&split), rows_of(&whole), "cuts {cuts:?}");
        }
    }

    #[test]
    fn heard_windows_at_the_edges() {
        let mut t = HeardTable::new([2usize, 3]);
        let (empty, all) = t.rows_mut().split_at(0);
        assert!(empty.len.is_empty() && empty.data.is_empty());
        let (mut all, empty) = all.split_at(2);
        assert!(empty.len.is_empty() && empty.data.is_empty());
        all.row_mut(0)[1] = 4;
        all.row_mut(1)[2] = 5;
        assert_eq!(t.row(0), &[NEVER, 4]);
        assert_eq!(t.row(1), &[NEVER, NEVER, 5]);
        // A table with no rows still splits into two empty windows.
        let mut none = HeardTable::new(std::iter::empty::<usize>());
        let (a, b) = none.rows_mut().split_at(0);
        assert!(a.len.is_empty() && b.len.is_empty() && b.data.is_empty());
    }

    #[test]
    fn heard_windows_after_a_growth_relayout() {
        let degrees = [2usize, 1, 3, 2];
        let mut t = HeardTable::new(degrees);
        t.set(0, 1, 4);
        t.set(3, 0, 8);
        // Row 1 grows past its slack: the arena re-layouts every offset.
        t.reset_row(1, 9);
        let mut whole = t.clone();
        let writes = [(0, 0, 1), (1, 8, 2), (1, 0, 3), (2, 2, 5), (3, 1, 6)];
        write_whole(&mut whole, &writes);
        for cuts in [vec![1], vec![2], vec![1, 2, 3], vec![0, 4]] {
            let mut split = t.clone();
            write_through_windows(&mut split, &cuts, &writes);
            assert_eq!(rows_of(&split), rows_of(&whole), "cuts {cuts:?}");
            assert_eq!(split.get(0, 1), 4, "untouched entries survive");
            assert_eq!(split.get(3, 0), 8);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]
        #[test]
        fn heard_windows_equal_whole_table_writes(
            degrees in proptest::collection::vec(0usize..9, 0..40),
            cut_seeds in proptest::collection::vec(0usize..1000, 0..6),
            write_seeds in proptest::collection::vec((0usize..1000, 0usize..1000, 0u32..50), 0..60),
            grow in (0usize..1000, 0usize..20),
        ) {
            let mut t = HeardTable::new(degrees.iter().copied());
            if !degrees.is_empty() {
                // Realign one row first; growth past its slack
                // re-layouts the whole arena.
                t.reset_row(grow.0 % degrees.len(), grow.1);
            }
            let rows = t.rows();
            let mut cuts: Vec<usize> = cut_seeds.iter().map(|c| c % (rows + 1)).collect();
            cuts.sort_unstable();
            let writes: Vec<(usize, usize, u32)> = write_seeds
                .iter()
                .filter_map(|&(r, k, v)| {
                    let r = r % rows.max(1);
                    let deg = if rows == 0 { 0 } else { t.row(r).len() };
                    (deg > 0).then(|| (r, k % deg, v))
                })
                .collect();
            let mut whole = t.clone();
            write_whole(&mut whole, &writes);
            write_through_windows(&mut t, &cuts, &writes);
            proptest::prop_assert_eq!(rows_of(&t), rows_of(&whole));
        }
    }

    #[test]
    fn heard_table_reset_all_bulk_fills() {
        let mut t = HeardTable::new([3usize, 1]);
        t.set(0, 2, 9);
        t.reset_all([3usize, 1]);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
        // Degree growth past every slack forces the rebuild path.
        t.reset_all([10usize, 1]);
        assert_eq!(t.row(0).len(), 10);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
    }
}

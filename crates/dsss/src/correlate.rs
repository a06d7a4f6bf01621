//! Batched correlation of one sample buffer against a whole code bank.
//!
//! Section V-B makes the receiver's buffer processing the cost center of
//! JR-SND: every buffered chip offset is correlated against **all** `m`
//! candidate codes in ℂ_B, and the per-correlation cost ρ drives the
//! processing/buffering gap λ = ρNmR of the latency analysis. This module
//! is the fast path for that computation.
//!
//! The trick: chips are ±1 and already bit-packed
//! ([`ChipSeq`](crate::chip::ChipSeq)), so with `P = Σ_{cᵢ=+1} sᵢ` (the
//! positive-chip partial sum) and `T = Σ sᵢ` (the window total),
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·P − T.
//! ```
//!
//! `T` is independent of the code, so it is computed once per window and
//! shared by every code; [`MultiCorrelator`] evaluates all `m` codes per
//! window so the loaded window is reused `m` times before sliding on.
//!
//! **Bit planes.** Every buffer is held as offset-binary bit planes
//! ([`BitPlanes`]). With a bias `B ≥ max|s|`, the value `u = s + B` lies in
//! `0..=2B`, which is below `2^32` for any `i32` buffer, so the bit length
//! of `2B` planes hold it — at most [`simd::MAX_PLANES`] (`planeₚ` bit `i`
//! = bit `p` of `uᵢ`). Only planes that can be nonzero are stored: a
//! clean ±1 window keeps one plane, and an amplitude-3 same-code jam over
//! it three. For a code with positive-chip mask `c⁺`,
//!
//! ```text
//! Σ sᵢ·cᵢ = 2·Σₚ 2ᵖ·popcnt(planeₚ ∧ c⁺) − 2B·|c⁺| − T,
//! ```
//!
//! the same packed identity that [`ChipSeq::correlate`](crate::chip::ChipSeq::correlate)
//! uses between two codes. Each code's mask is pre-shifted by all 64
//! residues when the bank is assigned, so one block of 64 consecutive
//! offsets is a broadcast plane word ANDed with 64 mask words — vector
//! `popcnt` work ([`simd::plane_sums_at`]). Window totals come from the
//! planes as well (per-word weighted popcounts plus one partial word at
//! each end), so a buffer needs no per-sample prefix pass.
//!
//! **Built as far as reads reach.** Planes are built front to back in
//! 64-chip-aligned segments, and every plane word of a chunk depends only
//! on that chunk's samples once `B` and the stored planes are fixed. A
//! rendered buffer ([`MultiCorrelator::scanner`]) fixes them from its
//! samples (`B = max|s|`, and the planes its `u` values use) and builds to
//! its end at once. A window still on a [`ChipChannel`]
//! ([`MultiCorrelator::scanner_on_air`]) fixes them from the transmissions
//! that overlap it ([`ChipChannel::level_bound`]), then renders and builds
//! [`SEGMENT_CHIPS`] at a time, only as far as a read reaches — a scan that
//! stops early never pays for the rest of the window.
//!
//! Every step is exact integer arithmetic, at any amplitude, until the one
//! final division by `N`, so every correlation is bit-identical to the
//! scalar one-chip-at-a-time implementation that survives as the oracle
//! in [`crate::spread::reference`]; proptests assert the kernel agrees
//! with it bit-for-bit up to the `i32` limits.

use crate::channel::ChipChannel;
use crate::code::SpreadCode;
use crate::simd;
use crate::spread::decide;
use crate::sync::Frame;

/// Chips an on-air scanner renders and holds as planes per step
/// ([`MultiCorrelator::scanner_on_air`]): eight plane words, so a scan that
/// locks on within its first few hundred offsets builds one or two
/// segments, and a full sweep of a 21 504-chip HELLO window takes 42
/// steps.
pub const SEGMENT_CHIPS: usize = 512;

/// A bank of equal-length candidate codes, laid out for batched window
/// correlation.
///
/// # Examples
///
/// ```
/// use jrsnd_dsss::code::SpreadCode;
/// use jrsnd_dsss::correlate::MultiCorrelator;
/// use jrsnd_dsss::spread::spread;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let codes: Vec<SpreadCode> = (0..4).map(|_| SpreadCode::random(256, &mut rng)).collect();
/// let refs: Vec<&SpreadCode> = codes.iter().collect();
/// let bank = MultiCorrelator::new(&refs);
///
/// let samples = spread(&[true], &codes[2]).to_levels();
/// let mut scanner = bank.scanner(&samples);
/// let mut corr = [0.0; 4];
/// scanner.correlate_all(0, &mut corr);
/// assert_eq!(corr[2], 1.0); // the matching code correlates perfectly
/// assert!(corr[0].abs() < 0.15 && corr[1].abs() < 0.15 && corr[3].abs() < 0.15);
/// ```
#[derive(Debug, Clone)]
pub struct MultiCorrelator<'a> {
    codes: Vec<&'a SpreadCode>,
    n: usize,
    /// Words a window touches at any residue: `⌈(N + 63)/64⌉`.
    mask_words: usize,
    /// Each code's positive-chip mask shifted left by every residue
    /// `r < 64`, laid out `[code][word][r]` (`mask_words · 64` words per
    /// code): word `w` of residue `r` covers chips `64w − r ..` of the
    /// code.
    shifted: Vec<u64>,
    /// `|c⁺|`, the number of +1 chips of each code.
    pos_counts: Vec<i64>,
}

impl<'a> MultiCorrelator<'a> {
    /// Builds a bank over `codes`.
    ///
    /// An empty bank is allowed (scans over it find nothing).
    ///
    /// # Panics
    ///
    /// Panics if the codes do not share one chip length.
    pub fn new(codes: &[&'a SpreadCode]) -> Self {
        let mut bank = MultiCorrelator {
            codes: Vec::new(),
            n: 0,
            mask_words: 0,
            shifted: Vec::new(),
            pos_counts: Vec::new(),
        };
        bank.assign(codes.iter().copied());
        bank
    }

    /// Re-points this bank at `codes`, shifting their packed words into
    /// the retained mask storage. Once the storage has grown to the
    /// largest bank assigned, re-pointing allocates nothing — the batch
    /// session engine keeps one bank per shard and assigns each session's
    /// codes to it. Correlations are bit-identical to a fresh
    /// [`MultiCorrelator::new`] over the same codes.
    ///
    /// # Panics
    ///
    /// Panics if the codes do not share one chip length.
    pub fn assign(&mut self, codes: impl IntoIterator<Item = &'a SpreadCode>) {
        self.codes.clear();
        self.codes.extend(codes);
        let n = self.codes.first().map_or(0, |c| c.len());
        assert!(
            self.codes.iter().all(|c| c.len() == n),
            "all candidate codes must share one chip length"
        );
        self.n = n;
        let words = if n == 0 { 0 } else { (n + 63).div_ceil(64) };
        self.mask_words = words;
        self.shifted.clear();
        self.shifted.resize(words * 64 * self.codes.len(), 0);
        self.pos_counts.clear();
        for (rows, code) in self
            .shifted
            .chunks_exact_mut((words * 64).max(1))
            .zip(&self.codes)
        {
            let cw = code.chips().words();
            // Padding bits past N are zero, so shifting whole words keeps
            // every residue's mask confined to its window's N chips.
            let word = |i: usize| cw.get(i).copied().unwrap_or(0);
            for (w, row) in rows.chunks_exact_mut(64).enumerate() {
                row[0] = word(w);
                for (r, slot) in row.iter_mut().enumerate().skip(1) {
                    let below = if w == 0 { 0 } else { word(w - 1) >> (64 - r) };
                    *slot = (word(w) << r) | below;
                }
            }
        }
        self.pos_counts.extend(self.codes.iter().map(|c| {
            c.chips()
                .words()
                .iter()
                .map(|w| i64::from(w.count_ones()))
                .sum::<i64>()
        }));
    }

    /// The candidate codes, in bank order.
    pub fn codes(&self) -> &[&'a SpreadCode] {
        &self.codes
    }

    /// Number of codes `m`.
    pub fn num_codes(&self) -> usize {
        self.codes.len()
    }

    /// Whether the bank holds no codes.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Chip length `N` shared by every code (0 for an empty bank).
    pub fn code_len(&self) -> usize {
        self.n
    }

    /// Prepares `samples` for repeated window correlation: one pass that
    /// holds the buffer as bit planes for every subsequent offset to
    /// reuse.
    pub fn scanner<'s>(&'s self, samples: &'s [i32]) -> BankScanner<'s, 'a> {
        let mut planes = BitPlanes::new();
        planes.compute(samples);
        BankScanner {
            bank: self,
            held: Held::Owned(samples, planes),
        }
    }

    /// A scanner over the `len`-chip window of `channel` that starts at
    /// absolute chip `start`, rendered into `window` and held as planes in
    /// `planes` only as far as reads reach: each read that passes the
    /// built prefix renders and builds the [`SEGMENT_CHIPS`]-aligned
    /// segments it needs ([`ChipChannel::render_append`]). The bias and
    /// stored planes come from the transmissions that overlap the window
    /// ([`ChipChannel::level_bound`]), so they are fixed before any chip is
    /// rendered. Correlations, offsets and buffer bounds are those of a
    /// [`MultiCorrelator::scanner`] over `channel.render(start, len)`,
    /// provided the channel does not change while the scanner lives (its
    /// borrow sees to that). Pooled storage makes no allocation once it
    /// has grown to the largest window.
    pub fn scanner_on_air<'s>(
        &'s self,
        channel: &'s ChipChannel,
        start: u64,
        len: usize,
        window: &'s mut Vec<i32>,
        planes: &'s mut BitPlanes,
    ) -> BankScanner<'s, 'a> {
        let (max_abs, even) = channel.level_bound(start, len);
        // The planes that hold 0..=2B, less bit 0 when every u is even.
        let used = ((1u64 << simd::planes_for(max_abs)) - 1) as u32;
        planes.begin(len, max_abs, if even { used & !1 } else { used });
        window.clear();
        BankScanner {
            bank: self,
            held: Held::OnAir {
                channel,
                start,
                window,
                planes,
            },
        }
    }

    /// Code `c`'s residue-shifted mask words.
    #[inline]
    fn shifted(&self, c: usize) -> &[u64] {
        let len = self.mask_words * 64;
        &self.shifted[c * len..(c + 1) * len]
    }
}

/// A sample buffer held as offset-binary bit planes (see the
/// [module docs](self)): its bias `B ≥ max|s|`, the planes of `u = s + B`
/// it stores, and per-word totals of `u`, from which
/// [`BitPlanes::range_total`] is exact. The planes are built front to
/// back; a buffer held by [`BitPlanes::compute`] is built to its end, an
/// on-air window ([`MultiCorrelator::scanner_on_air`]) as far as its reads
/// have reached.
///
/// The backing vectors are retained across buffers, so a pooled instance
/// (an on-air window's) reaches a steady state with no per-use
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct BitPlanes {
    /// The stored plane words, `n_planes` per 64-sample chunk built so
    /// far, plus one zero chunk of padding so a window's last word read
    /// stays in bounds.
    planes: Vec<u64>,
    /// The bit of `u` each stored plane holds, ascending.
    bits: [u32; simd::MAX_PLANES],
    /// `cum[w] = Σ uᵢ` over the chunks before chunk `w`, for every chunk
    /// built and the padding chunk.
    cum: Vec<i64>,
    n_planes: usize,
    /// Chips in the buffer, built or not.
    len: usize,
    /// Chips built: a multiple of 64 until the buffer's end.
    built: usize,
    max_abs: u32,
}

impl BitPlanes {
    /// An empty instance (covers zero chips until [`BitPlanes::compute`]).
    pub fn new() -> Self {
        BitPlanes::default()
    }

    /// Holds `samples`, reusing the backing storage: one pass for the bias
    /// `B = max|s|`, one for the planes the values `u = s + B` use (a
    /// noiseless ±1 buffer uses one plane of its `u ∈ {0, 2}`), then the
    /// builder run to the end of the buffer.
    pub fn compute(&mut self, samples: &[i32]) {
        let max_abs = samples.iter().map(|s| s.unsigned_abs()).max().unwrap_or(0);
        // Wraps to i32::MIN when B = 2^31; `u` is read as `u32`.
        let bias = max_abs as i32;
        let used = samples
            .iter()
            .fold(0u32, |acc, &s| acc | s.wrapping_add(bias) as u32);
        self.begin(samples.len(), max_abs, used);
        self.extend(samples);
    }

    /// Starts holding a `len`-chip buffer with bias `max_abs`, storing the
    /// planes of the bits set in `used`; nothing is built yet. Every
    /// sample later passed to [`BitPlanes::extend`] must have `|s| ≤
    /// max_abs`, and `s + max_abs` no bit outside `used`.
    pub(crate) fn begin(&mut self, len: usize, max_abs: u32, used: u32) {
        self.len = len;
        self.built = 0;
        self.max_abs = max_abs;
        self.n_planes = 0;
        for bit in (0..u32::BITS).filter(|b| used >> b & 1 == 1) {
            self.bits[self.n_planes] = bit;
            self.n_planes += 1;
        }
        self.planes.clear();
        self.planes.resize(self.n_planes, 0);
        self.cum.clear();
        self.cum.push(0);
    }

    /// Builds the next `segment.len()` chips: `segment` holds the samples
    /// from chip [`BitPlanes::built`] on, which is a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if the segment runs past the buffer, or does not end on a
    /// 64-chip boundary short of the buffer's end.
    pub(crate) fn extend(&mut self, segment: &[i32]) {
        let to = self.built + segment.len();
        assert!(to <= self.len, "segment runs past the buffer");
        assert!(
            to.is_multiple_of(64) || to == self.len,
            "segments end on 64-chip boundaries"
        );
        let bias = self.max_abs as i32;
        debug_assert!(
            {
                let outside = !self.used();
                segment.iter().all(|&s| {
                    s.unsigned_abs() <= self.max_abs && s.wrapping_add(bias) as u32 & outside == 0
                })
            },
            "a sample outside the planes' layout"
        );
        let p = self.n_planes;
        let at = self.built / 64 * p;
        let chunks = segment.len().div_ceil(64);
        // The old padding chunk is overwritten; resize appends the new one.
        self.planes.resize(at + (chunks + 1) * p, 0);
        let bits = &self.bits[..p];
        simd::fill_planes_at(simd::active(), bits, segment, bias, &mut self.planes[at..]);
        let mut acc = *self.cum.last().expect("the padding chunk's entry");
        for w in 0..chunks {
            acc += weighted_popcount(bits, &self.planes[at + w * p..at + (w + 1) * p], u64::MAX);
            self.cum.push(acc);
        }
        self.built = to;
    }

    /// Number of chips covered (the length of the buffer last computed).
    pub fn chips(&self) -> usize {
        self.len
    }

    /// Chips built so far: [`BitPlanes::chips`] once the buffer is held
    /// whole.
    pub(crate) fn built(&self) -> usize {
        self.built
    }

    /// `Σ samples[start..end]`, exactly.
    ///
    /// # Panics
    ///
    /// Panics unless `start <= end` and `end` lies in the built buffer —
    /// all of it once [`BitPlanes::compute`] has held it.
    #[inline]
    pub fn range_total(&self, start: usize, end: usize) -> i64 {
        assert!(
            start <= end && end <= self.built,
            "range outside the built buffer"
        );
        self.u_prefix(end) - self.u_prefix(start) - (end - start) as i64 * i64::from(self.max_abs)
    }

    /// `Σ_{i<k} uᵢ`: the chunk totals before `k`'s chunk plus the weighted
    /// popcount of its low `k mod 64` lanes.
    #[inline]
    fn u_prefix(&self, k: usize) -> i64 {
        let (bits, planes) = self.planes();
        let (w, p) = (k / 64, bits.len());
        let low = (1u64 << (k % 64)) - 1;
        self.cum[w] + weighted_popcount(bits, &planes[w * p..(w + 1) * p], low)
    }

    /// The bias `B`: the largest `|s|` of a computed buffer (0 if it was
    /// empty), or the bound an on-air window was begun with.
    pub(crate) fn max_abs(&self) -> u32 {
        self.max_abs
    }

    /// The bits of `u` the stored planes hold, as a mask.
    fn used(&self) -> u32 {
        self.bits[..self.n_planes]
            .iter()
            .fold(0, |acc, b| acc | 1 << b)
    }

    /// The stored planes' bits and words.
    #[inline]
    fn planes(&self) -> (&[u32], &[u64]) {
        (&self.bits[..self.n_planes], &self.planes)
    }
}

/// `Σₚ 2^{bits[p]}·popcnt(words[p] ∧ mask)`: the sum of the offset-binary
/// values selected by `mask` in one plane word.
#[inline]
fn weighted_popcount(bits: &[u32], words: &[u64], mask: u64) -> i64 {
    bits.iter()
        .zip(words)
        .map(|(&bit, &w)| i64::from((w & mask).count_ones()) << bit)
        .sum()
}

/// Where a scanner's samples and planes live: a rendered buffer held by
/// its own pass, or a window still on a channel, built into pooled storage
/// as reads reach it.
#[derive(Debug)]
enum Held<'s> {
    Owned(&'s [i32], BitPlanes),
    OnAir {
        channel: &'s ChipChannel,
        /// The window's first absolute chip.
        start: u64,
        /// The rendered prefix: exactly the chips built.
        window: &'s mut Vec<i32>,
        planes: &'s mut BitPlanes,
    },
}

impl Held<'_> {
    /// The samples held so far and their planes.
    #[inline]
    fn parts(&self) -> (&[i32], &BitPlanes) {
        match self {
            Held::Owned(s, p) => (s, p),
            Held::OnAir { window, planes, .. } => (window, planes),
        }
    }

    #[inline]
    fn planes(&self) -> &BitPlanes {
        self.parts().1
    }

    /// Builds chips up to `end` (at most the buffer's end): an on-air
    /// window renders and holds the [`SEGMENT_CHIPS`]-aligned segments
    /// past its built prefix; a rendered buffer is already whole.
    fn reach(&mut self, end: usize) {
        if let Held::OnAir {
            channel,
            start,
            window,
            planes,
        } = self
        {
            let from = planes.built();
            if end > from {
                let to = end.next_multiple_of(SEGMENT_CHIPS).min(planes.chips());
                channel.render_append(window, *start + from as u64, to - from);
                planes.extend(&window[from..]);
            }
        }
    }
}

/// A buffer prepared for sliding-window correlation against a bank: the
/// bank, the samples and their bit planes.
///
/// Methods that take `&mut self` build whatever part of an on-air window
/// ([`MultiCorrelator::scanner_on_air`]) they read; those that take
/// `&self` read only what is built, and panic past it.
#[derive(Debug)]
pub struct BankScanner<'s, 'a> {
    bank: &'s MultiCorrelator<'a>,
    /// The buffer's samples and planes — owned or on air.
    held: Held<'s>,
}

impl BankScanner<'_, '_> {
    /// The underlying bank.
    pub fn bank(&self) -> &MultiCorrelator<'_> {
        self.bank
    }

    /// The buffered samples: the whole buffer of a rendered one, the
    /// prefix built so far of an on-air window.
    pub fn samples(&self) -> &[i32] {
        self.held.parts().0
    }

    /// Chips in the buffer, built or not.
    pub(crate) fn chips(&self) -> usize {
        self.held.planes().chips()
    }

    /// The last chip offset a full window fits at, if any.
    pub fn last_offset(&self) -> Option<usize> {
        let len = self.chips();
        if self.bank.n == 0 || len < self.bank.n {
            None
        } else {
            Some(len - self.bank.n)
        }
    }

    /// Builds the buffer up to chip `end` (clamped to its length), so
    /// `&self` reads of windows ending there succeed.
    pub(crate) fn reach(&mut self, end: usize) {
        self.held.reach(end);
    }

    /// The window total `Σ sᵢ` at `offset` — shared by every code.
    ///
    /// # Panics
    ///
    /// Panics if the window is not built.
    #[inline]
    pub fn window_total(&self, offset: usize) -> i64 {
        self.held.planes().range_total(offset, offset + self.bank.n)
    }

    /// `Σ sᵢ·cᵢ` of the window at `offset` against code `c`: one residue
    /// of the plane kernel, as scalar popcounts (a lone window has no
    /// lanes to vectorize over).
    #[inline]
    fn plane_dot(&self, offset: usize, c: usize) -> i64 {
        let total = self.window_total(offset);
        let (bits, planes) = self.held.planes().planes();
        let (q, r) = (offset / 64, offset % 64);
        let p = bits.len();
        let words = &planes[q * p..(q + self.bank.mask_words) * p];
        let masks = self.bank.shifted(c);
        let sum = words
            .chunks_exact(p.max(1))
            .enumerate()
            .map(|(w, pw)| weighted_popcount(bits, pw, masks[w * 64 + r]))
            .sum::<i64>();
        2 * sum - self.plane_bias(c) - total
    }

    /// `2B·|c⁺|`: what code `c`'s selected samples gain from the
    /// offset-binary bias, subtracted back out of `2·Σ_{c⁺} u`.
    #[inline]
    fn plane_bias(&self, c: usize) -> i64 {
        2 * i64::from(self.held.planes().max_abs()) * self.bank.pos_counts[c]
    }

    /// Normalised correlations of the window at `offset` against **all**
    /// codes in one pass, written to `out` in bank order.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit or `out.len() != m`.
    pub fn correlate_all(&mut self, offset: usize, out: &mut [f64]) {
        let n = self.bank.n;
        assert!(n > 0, "cannot correlate against an empty bank");
        assert_eq!(out.len(), self.bank.codes.len(), "one output slot per code");
        self.reach(offset + n);
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.plane_dot(offset, c) as f64 / n as f64;
        }
    }

    /// Exact dot products `Σ sᵢ·cᵢ` for `count` consecutive offsets
    /// starting at `start`, written to `out[i·m + c]` (offset-major, bank
    /// order within each offset); divided by `N`, each is the value
    /// [`BankScanner::correlate_all`] gives.
    ///
    /// This is the throughput shape of the kernel: the offsets are taken
    /// in runs that share one 64-chip plane word, so each run is one call
    /// of the plane kernel per code, and the window totals slide by one
    /// sample per offset.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty, the last window does not fit, or
    /// `out.len() < count * m`.
    pub fn dot_block(&mut self, start: usize, count: usize, out: &mut [i64]) {
        let n = self.bank.n;
        let m = self.bank.codes.len();
        assert!(n > 0, "cannot correlate against an empty bank");
        assert!(
            start + count.saturating_sub(1) + n <= self.chips(),
            "offset block exceeds the buffer"
        );
        assert!(out.len() >= count * m, "one output slot per (offset, code)");
        if count == 0 {
            return;
        }
        self.reach(start + count - 1 + n);
        let level = simd::active();
        let (samples, held) = self.held.parts();
        let (bits, planes) = held.planes();
        let p = bits.len();
        let two_b = 2 * i64::from(held.max_abs());
        let mut totals = [0i64; 64];
        let mut sums = [0u64; 64];
        let mut total = held.range_total(start, start + n);
        let mut o = start;
        while o < start + count {
            let (q, lo) = (o / 64, o % 64);
            let k = (64 - lo).min(start + count - o);
            // Window totals slide by one sample per offset.
            let slide = |i: usize| i64::from(samples[i + n]) - i64::from(samples[i]);
            totals[0] = total;
            for j in 1..k {
                totals[j] = totals[j - 1] + slide(o + j - 1);
            }
            if o + k < start + count {
                total = totals[k - 1] + slide(o + k - 1);
            }
            let words = &planes[q * p..(q + self.bank.mask_words) * p];
            let base = (o - start) * m;
            for c in 0..m {
                simd::plane_sums_at(level, bits, words, self.bank.shifted(c), lo, &mut sums[..k]);
                let bias = two_b * self.bank.pos_counts[c];
                for (j, (&sum, &t)) in sums[..k].iter().zip(&totals[..k]).enumerate() {
                    out[base + j * m + c] = 2 * sum as i64 - bias - t;
                }
            }
            o += k;
        }
    }

    /// Normalised correlation of the window at `offset` against the single
    /// code at `code_index`.
    ///
    /// # Panics
    ///
    /// Panics if the window is not built.
    pub fn correlate_one(&self, offset: usize, code_index: usize) -> f64 {
        self.plane_dot(offset, code_index) as f64 / self.bank.n as f64
    }

    /// De-spreads the `n_bits`-bit frame at `offset` against the code at
    /// `code_index` into a caller-pooled [`Frame`], clearing it first —
    /// [`crate::sync::decode_frame_into`] on this scanner's buffer, with
    /// each bit window correlated off the planes through
    /// [`BankScanner::correlate_one`]. Returns `false` (frame left empty)
    /// if the buffer does not contain the full frame; decisions are
    /// identical to the free function's.
    pub fn decode_frame_into(
        &mut self,
        offset: usize,
        code_index: usize,
        n_bits: usize,
        tau: f64,
        frame: &mut Frame,
    ) -> bool {
        frame.bits.clear();
        frame.erased.clear();
        let n = self.bank.n;
        let Some(needed) = n_bits.checked_mul(n).and_then(|c| offset.checked_add(c)) else {
            return false;
        };
        if needed > self.chips() {
            return false;
        }
        self.reach(needed);
        for j in 0..n_bits {
            frame.push(decide(self.correlate_one(offset + j * n, code_index), tau));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChipChannel;
    use crate::chip::ChipSeq;
    use crate::spread::{reference, spread};
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn matches_scalar_reference_on_random_buffers() {
        let mut r = rng(1);
        for n in [64usize, 100, 512] {
            let codes: Vec<SpreadCode> = (0..7).map(|_| SpreadCode::random(n, &mut r)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let samples: Vec<i32> = (0..3 * n).map(|_| r.gen_range(-5..=5)).collect();
            let mut scanner = bank.scanner(&samples);
            let mut out = vec![0.0; codes.len()];
            for offset in [0usize, 1, 63, 64, 65, n - 1, 2 * n] {
                scanner.correlate_all(offset, &mut out);
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(&samples[offset..offset + n], code);
                    assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "n={n} offset={offset} code={ci}"
                    );
                    let one = scanner.correlate_one(offset, ci);
                    assert_eq!(one.to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    fn perfect_hit_is_exactly_one() {
        let mut r = rng(2);
        let codes: Vec<SpreadCode> = (0..5).map(|_| SpreadCode::random(128, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples = spread(&[true, false], &codes[3]).to_levels();
        let mut scanner = bank.scanner(&samples);
        let mut out = [0.0; 5];
        scanner.correlate_all(0, &mut out);
        assert_eq!(out[3], 1.0);
        scanner.correlate_all(128, &mut out);
        assert_eq!(out[3], -1.0, "second bit is a 0: negated code");
    }

    #[test]
    fn window_totals_come_from_prefix_sums() {
        let mut r = rng(3);
        let code = SpreadCode::random(32, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let samples: Vec<i32> = (0..100).map(|_| r.gen_range(-100..=100)).collect();
        let scanner = bank.scanner(&samples);
        for offset in 0..=68 {
            let naive: i64 = samples[offset..offset + 32]
                .iter()
                .map(|&s| i64::from(s))
                .sum();
            assert_eq!(scanner.window_total(offset), naive);
        }
        assert_eq!(scanner.last_offset(), Some(68));
    }

    #[test]
    fn block_matches_per_offset() {
        let mut r = rng(6);
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(96, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-50..=50)).collect();
        let mut scanner = bank.scanner(&samples);
        let count = 400 - 96 + 1;
        let mut block = vec![0i64; count * 3];
        scanner.dot_block(0, count, &mut block);
        let mut per_offset = [0.0; 3];
        for o in 0..count {
            scanner.correlate_all(o, &mut per_offset);
            for c in 0..3 {
                assert_eq!(
                    (block[o * 3 + c] as f64 / 96.0).to_bits(),
                    per_offset[c].to_bits(),
                    "offset {o} code {c}"
                );
            }
        }
    }

    #[test]
    fn assign_matches_fresh_bank() {
        let mut r = rng(10);
        let pool_codes: Vec<SpreadCode> = (0..8).map(|_| SpreadCode::random(100, &mut r)).collect();
        let samples: Vec<i32> = (0..400).map(|_| r.gen_range(-20..=20)).collect();
        let mut reused = MultiCorrelator::new(&[]);
        for indices in [vec![3usize, 0, 7], vec![5], vec![], vec![1, 2]] {
            let picked: Vec<&SpreadCode> = indices.iter().map(|&i| &pool_codes[i]).collect();
            let fresh = MultiCorrelator::new(&picked);
            reused.assign(indices.iter().map(|&i| &pool_codes[i]));
            assert_eq!(reused.num_codes(), indices.len());
            if indices.is_empty() {
                assert!(reused.is_empty());
                continue;
            }
            assert_eq!(reused.code_len(), 100);
            let mut sf = fresh.scanner(&samples);
            let mut sr = reused.scanner(&samples);
            let mut want = vec![0.0; indices.len()];
            let mut got = vec![0.0; indices.len()];
            for offset in [0usize, 1, 200, 300] {
                sf.correlate_all(offset, &mut want);
                sr.correlate_all(offset, &mut got);
                assert!(want
                    .iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn planes_that_are_zero_everywhere_are_not_stored() {
        let mut sums = BitPlanes::new();
        let stored = |sums: &BitPlanes| sums.planes().0.to_vec();
        // A clean ±1 window: u ∈ {0, 2}, one plane.
        sums.compute(&[1, -1, -1, 1, 1]);
        assert_eq!(stored(&sums), vec![1]);
        // An amplitude-3 same-code jam over ±1: u ∈ {0, 2, 6, 8}.
        sums.compute(&[4, -2, 2, -4, 2]);
        assert_eq!(stored(&sums), vec![1, 2, 3]);
        // Silence, and a buffer pinned at -B everywhere, store none.
        sums.compute(&[0; 70]);
        assert_eq!(stored(&sums), Vec::<u32>::new());
        sums.compute(&[-3; 70]);
        assert_eq!(stored(&sums), Vec::<u32>::new());
        assert_eq!(sums.range_total(5, 70), -3 * 65);
        // max|s| = 7 fits four planes; at 8, u ∈ {16, 7} takes a fifth
        // and leaves plane 3 empty.
        sums.compute(&[7, -7, 0, 3]);
        assert_eq!(stored(&sums), vec![0, 1, 2, 3]);
        sums.compute(&[8, -1]);
        assert_eq!(stored(&sums), vec![0, 1, 2, 4]);
        assert_eq!(sums.range_total(0, 2), 7);
    }

    /// A channel carrying `frames` 6-bit frames of `codes[0]` from chip
    /// `lead`, each overlaid by a same-code jam at `jam` (if any), and an
    /// unrelated transmission at amplitude −2 near the end.
    fn jammed_channel(
        codes: &[SpreadCode],
        lead: u64,
        jam: Option<i32>,
        noise: bool,
    ) -> ChipChannel {
        let mut r = rng(lead);
        let n = codes[0].len() as u64;
        let mut ch = ChipChannel::new(lead ^ 0x51);
        if noise {
            ch = ch.with_noise(0.1);
        }
        for f in 0..6u64 {
            let bits: Vec<bool> = (0..6).map(|_| r.gen()).collect();
            ch.transmit(lead + f * 6 * n, spread(&bits, &codes[0]), 1);
            if let Some(amp) = jam {
                let garbage: Vec<bool> = (0..6).map(|_| r.gen()).collect();
                ch.transmit(lead + f * 6 * n, spread(&garbage, &codes[0]), amp);
            }
        }
        let tail: Vec<bool> = (0..500).map(|_| r.gen()).collect();
        ch.transmit(lead + 30 * n, ChipSeq::from_bits(&tail), -2);
        ch
    }

    #[test]
    fn on_air_scanner_matches_the_rendered_window() {
        // Every read of an on-air window — blocks straddling segment ends,
        // single windows, frames, totals — equals the scanner over the
        // fully rendered window, on clean, jammed, noisy and louder
        // channels; what is built is the segment-aligned prefix the reads
        // reached, rendered exactly. One pooled window and planes serve
        // every channel in turn, dirty from the last.
        let mut r = rng(21);
        let n = 100usize;
        let codes: Vec<SpreadCode> = (0..3).map(|_| SpreadCode::random(n, &mut r)).collect();
        let refs: Vec<&SpreadCode> = codes.iter().collect();
        let bank = MultiCorrelator::new(&refs);
        let seg = SEGMENT_CHIPS;
        // A dirty pooled window: nothing of it may leak.
        let (mut window, mut planes) = (vec![7i32; 3 * seg], BitPlanes::new());
        planes.compute(&[5, -5, 1]);
        for (jam, noise) in [
            (None, false),
            (Some(3), false),
            (Some(-1), true),
            (Some(40), false),
        ] {
            let ch = jammed_channel(&codes, 70, jam, noise);
            let (start, len) = (37u64, 3 * seg + 77);
            let rendered = ch.render(start, len);
            let mut eager = bank.scanner(&rendered);
            let mut on_air = bank.scanner_on_air(&ch, start, len, &mut window, &mut planes);
            assert_eq!(on_air.chips(), len);
            assert_eq!(on_air.last_offset(), eager.last_offset());
            assert!(on_air.samples().is_empty(), "nothing is built up front");
            let reads = [
                (0usize, 10usize),
                (seg - n - 5, 64),
                (2 * seg - 50, 3),
                (len - n - 20, 21),
            ];
            for (o, count) in reads {
                let (mut got, mut want) = (vec![0i64; count * 3], vec![0i64; count * 3]);
                on_air.dot_block(o, count, &mut got);
                eager.dot_block(o, count, &mut want);
                assert_eq!(got, want, "jam {jam:?} block at {o}");
                let built = on_air.samples().len();
                assert_eq!(built, (o + count - 1 + n).next_multiple_of(seg).min(len));
                assert_eq!(on_air.samples(), &rendered[..built]);
                for offset in [o, o + count - 1] {
                    assert_eq!(on_air.window_total(offset), eager.window_total(offset));
                    assert_eq!(
                        on_air.correlate_one(offset, 1).to_bits(),
                        eager.correlate_one(offset, 1).to_bits()
                    );
                }
            }
            let (mut got, mut want) = (Frame::default(), Frame::default());
            assert!(on_air.decode_frame_into(len - 4 * n, 0, 4, 0.3, &mut got));
            assert!(eager.decode_frame_into(len - 4 * n, 0, 4, 0.3, &mut want));
            assert_eq!(got, want);
            assert!(!on_air.decode_frame_into(len - 4 * n, 0, 5, 0.3, &mut got));
            let mut all = [0.0; 3];
            on_air.correlate_all(len - n, &mut all);
            assert_eq!(on_air.samples(), &rendered[..]);
        }
    }

    #[test]
    fn on_air_layout_comes_from_the_transmissions() {
        // A clean ±1 window stores one plane (u ∈ {0, 2}) and a full
        // amplitude-3 same-code jam three (u ∈ {0, 2, 6, 8}), as when held
        // from their rendered samples; a tail jam mixes parities, and noise
        // leaves every plane of 0..=2B.
        let mut r = rng(22);
        let code = SpreadCode::random(64, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let stored = |ch: &ChipChannel, len: usize| {
            let (mut window, mut planes) = (Vec::new(), BitPlanes::new());
            let scanner = bank.scanner_on_air(ch, 0, len, &mut window, &mut planes);
            let planes = scanner.held.planes();
            (planes.max_abs(), planes.planes().0.to_vec())
        };
        let bits: Vec<bool> = (0..8).map(|_| r.gen()).collect();
        let garbage: Vec<bool> = (0..8).map(|_| r.gen()).collect();
        let mut ch = ChipChannel::new(0);
        ch.transmit(0, spread(&bits, &code), 1);
        ch.transmit(512, spread(&bits, &code), 1);
        assert_eq!(stored(&ch, 1024), (1, vec![1]));
        // Past the transmissions, silence (u = B = 1) needs plane 0.
        assert_eq!(stored(&ch, 1100), (1, vec![0, 1]));
        ch.transmit(0, spread(&garbage, &code), 3);
        ch.transmit(512, spread(&garbage, &code), -3);
        assert_eq!(stored(&ch, 1024), (4, vec![1, 2, 3]));
        let mut tail = ChipChannel::new(0);
        tail.transmit(0, spread(&bits, &code), 1);
        tail.transmit(384, spread(&garbage[..2], &code), 1);
        assert_eq!(stored(&tail, 512), (2, vec![0, 1, 2]));
        let noisy = ChipChannel::new(0).with_noise(0.5);
        assert_eq!(stored(&noisy, 512), (1, vec![0, 1]));
    }

    #[test]
    fn empty_bank_is_inert() {
        let bank = MultiCorrelator::new(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.code_len(), 0);
        let samples = [1i32, 2, 3];
        let scanner = bank.scanner(&samples);
        assert_eq!(scanner.last_offset(), None);
    }

    #[test]
    fn extreme_amplitudes_do_not_overflow() {
        // A jammed buffer can carry amplitudes near the i32 limits; the
        // kernel must stay exact there (32 planes, i32::MIN included),
        // and at i32::MAX / 512.
        let mut r = rng(4);
        let code = SpreadCode::random(512, &mut r);
        let bank = MultiCorrelator::new(&[&code]);
        let bound = i32::MAX / 512;
        for (hi, lo) in [
            (i32::MAX, i32::MIN),
            (bound, -bound),
            (bound + 1, -bound - 1),
        ] {
            let samples: Vec<i32> = (0..512).map(|i| if i % 3 == 0 { lo } else { hi }).collect();
            let mut scanner = bank.scanner(&samples);
            let mut out = [0.0];
            scanner.correlate_all(0, &mut out);
            let expected = reference::correlate_window(&samples, &code);
            assert_eq!(out[0].to_bits(), expected.to_bits(), "amplitude {hi}");
            assert_eq!(
                scanner.correlate_one(0, 0).to_bits(),
                expected.to_bits(),
                "amplitude {hi}"
            );
            let mut ch = ChipChannel::new(0);
            let chips = ChipSeq::from_bits(&samples.iter().map(|&s| s > 0).collect::<Vec<_>>());
            ch.transmit(0, chips, hi);
            let rendered = ch.render(0, 512);
            let expected = reference::correlate_window(&rendered, &code);
            let dot = ch.dot_chips(0, code.chips());
            assert_eq!(
                (dot as f64 / 512.0).to_bits(),
                expected.to_bits(),
                "render-free amplitude {hi}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one chip length")]
    fn mixed_lengths_rejected() {
        let mut r = rng(5);
        let a = SpreadCode::random(64, &mut r);
        let b = SpreadCode::random(128, &mut r);
        MultiCorrelator::new(&[&a, &b]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::spread::reference;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// A sample amplitude spanning benign levels and jammed buffers near
    /// the `i32` limits — the kernels must stay exact everywhere.
    fn amplitude(r: &mut rand::rngs::StdRng) -> i32 {
        match r.gen_range(0..3) {
            0 => r.gen_range(-8..=8),
            1 => r.gen_range(i32::MIN..=i32::MIN + 16),
            _ => r.gen_range(i32::MAX - 16..=i32::MAX),
        }
    }

    /// A sample for an `n`-chip bank in one of four buffer regimes:
    /// mixed with `i32`-limit extremes (32 planes), benign levels,
    /// magnitudes up to `i32::MAX / n` (where `max|s|·N` just fits
    /// `i32`), and up to just past it.
    fn regime_sample(r: &mut rand::rngs::StdRng, regime: u8, n: usize) -> i32 {
        let bound = (i32::MAX as usize / n) as i32;
        match regime {
            0 => amplitude(r),
            1 => r.gen_range(-8..=8),
            2 => r.gen_range(-bound..=bound),
            _ => r.gen_range(-bound.saturating_add(1)..=bound.saturating_add(1)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn batched_kernel_matches_scalar_reference(
            code_seed in 0u64..10_000,
            m in 1usize..6,
            n in 1usize..200,
            extra in 0usize..150,
            samples_seed in 0u64..10_000,
            regime in 0u8..4,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let codes: Vec<SpreadCode> =
                (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);

            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let samples: Vec<i32> =
                (0..n + extra).map(|_| regime_sample(&mut sr, regime, n)).collect();

            let mut scanner = bank.scanner(&samples);
            let mut out = vec![0.0; m];
            for offset in 0..=extra {
                scanner.correlate_all(offset, &mut out);
                let window = &samples[offset..offset + n];
                for (ci, code) in codes.iter().enumerate() {
                    let expected = reference::correlate_window(window, code);
                    prop_assert_eq!(
                        out[ci].to_bits(),
                        expected.to_bits(),
                        "correlate_all diverged at offset {} code {}",
                        offset,
                        ci
                    );
                    prop_assert_eq!(
                        scanner.correlate_one(offset, ci).to_bits(),
                        expected.to_bits(),
                        "correlate_one diverged at offset {} code {}",
                        offset,
                        ci
                    );
                }
            }
        }

        #[test]
        fn dot_levels_matches_chip_at_a_time(
            code_seed in 0u64..10_000,
            n in 1usize..300,
            samples_seed in 0u64..10_000,
        ) {
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let code = SpreadCode::random(n, &mut cr);
            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let window: Vec<i32> = (0..n).map(|_| amplitude(&mut sr)).collect();

            let naive: i64 = window
                .iter()
                .enumerate()
                .map(|(i, &s)| i64::from(s) * i64::from(code.chips().chip(i)))
                .sum();
            prop_assert_eq!(code.chips().dot_levels(&window), naive);

            // The reconstruction identity the whole module rests on.
            let pos: i64 = window
                .iter()
                .enumerate()
                .filter(|&(i, _)| code.chips().bit(i))
                .map(|(_, &s)| i64::from(s))
                .sum();
            let total: i64 = window.iter().map(|&s| i64::from(s)).sum();
            prop_assert_eq!(2 * pos - total, naive);
        }

        #[test]
        fn plane_kernel_matches_scalar_reference(
            code_seed in 0u64..10_000,
            m in 1usize..4,
            n in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(256), Just(300)],
            extra in 0usize..150,
            samples_seed in 0u64..10_000,
            max_abs in prop_oneof![
                0i32..=8,
                9i32..=1_000,
                Just(1_000_003),
                (i32::MAX - 16)..=i32::MAX,
            ],
            two_level in any::<bool>(),
            block in (0usize..150, 0usize..150),
        ) {
            // max|s| 0..=7 holds the buffer in the monomorphised 0–4
            // planes; louder buffers take up to 32. Two-level buffers
            // (samples ±B only, like a clean or fully jammed engine
            // window) store fewer planes than their bit length.
            let mut cr = rand::rngs::StdRng::seed_from_u64(code_seed);
            let codes: Vec<SpreadCode> =
                (0..m).map(|_| SpreadCode::random(n, &mut cr)).collect();
            let refs: Vec<&SpreadCode> = codes.iter().collect();
            let bank = MultiCorrelator::new(&refs);
            let mut sr = rand::rngs::StdRng::seed_from_u64(samples_seed);
            let mut samples: Vec<i32> = (0..n + extra)
                .map(|_| match two_level {
                    true if sr.gen() => max_abs,
                    true => -max_abs,
                    false => sr.gen_range(-max_abs..=max_abs),
                })
                .collect();
            let pin = sr.gen_range(0..samples.len());
            samples[pin] = if sr.gen() { max_abs } else { -max_abs };

            let mut scanner = bank.scanner(&samples);
            let held = scanner.held.planes().planes().0.len();
            prop_assert!(held <= simd::planes_for(max_abs as u32));

            // A block at an arbitrary (often unaligned, often straddling a
            // 64-offset boundary) start.
            let start = block.0.min(extra);
            let count = block.1.min(extra - start) + 1;
            let mut out = vec![0i64; count * m];
            scanner.dot_block(start, count, &mut out);
            let mut all = vec![0.0; m];
            for i in 0..count {
                let offset = start + i;
                let window = &samples[offset..offset + n];
                let total: i64 = window.iter().map(|&s| i64::from(s)).sum();
                prop_assert_eq!(scanner.window_total(offset), total);
                scanner.correlate_all(offset, &mut all);
                for (ci, code) in codes.iter().enumerate() {
                    let want = reference::correlate_window(window, code).to_bits();
                    prop_assert_eq!(out[i * m + ci], code.chips().dot_levels(window), "block {} code {}", offset, ci);
                    prop_assert_eq!(all[ci].to_bits(), want, "all {} code {}", offset, ci);
                    prop_assert_eq!(scanner.correlate_one(offset, ci).to_bits(), want);
                }
            }

            // Frame decoding off the scanner agrees with the free function.
            let n_bits = (extra + n - start) / n;
            let mut frame = Frame::with_capacity(n_bits);
            let ok = scanner.decode_frame_into(start, m - 1, n_bits + 1, 0.3, &mut frame);
            prop_assert_eq!(ok, (n_bits + 1) * n + start <= samples.len());
            let ok = scanner.decode_frame_into(start, m - 1, n_bits, 0.3, &mut frame);
            prop_assert!(ok);
            let want = crate::sync::decode_frame(&samples, start, &codes[m - 1], n_bits, 0.3);
            prop_assert_eq!(Some(frame), want);
        }
    }
}

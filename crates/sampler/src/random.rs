//! Random-bit plumbing, including the paper's buffered-bit management.
//!
//! The Knuth-Yao walk consumes a *variable* number of random bits. Fetching
//! a fresh 32-bit TRNG word per request would dominate the sampling cost,
//! so the paper (§III-E) keeps the current word in a register, right-shifts
//! bits out as they are consumed, and — instead of spending a register on a
//! counter — sets the **most significant bit of every fresh word to one**
//! as a sentinel: when the register value reaches exactly 1, all 31 payload
//! bits have been used, and `clz` on the register reports how many payload
//! bits remain. [`BufferedBitSource`] reproduces that scheme bit for bit.

/// A source of uniformly random 32-bit words (a TRNG stand-in).
///
/// The suite's Cortex-M4F model implements this with a rate-limited
/// simulated TRNG; tests use the deterministic [`SplitMix64`].
pub trait WordSource {
    /// Returns the next 32 uniformly random bits.
    fn next_word(&mut self) -> u32;

    /// Fills `out` with the next `out.len()` words of the stream —
    /// exactly the words `out.len()` successive [`WordSource::next_word`]
    /// calls would return, in order. Sources backed by a block generator
    /// (the ChaCha20 DRBG) override this to amortize one refill over
    /// many draws; the default just loops.
    fn fill_words(&mut self, out: &mut [u32]) {
        for w in out.iter_mut() {
            *w = self.next_word();
        }
    }
}

/// A source of individual random bits with consumption accounting.
pub trait BitSource {
    /// Draws one random bit.
    fn take_bit(&mut self) -> u32;

    /// Draws `k ≤ 32` bits, assembled LSB-first: bit `j` of the result is
    /// the `j`-th bit drawn. This matches the paper's `r & 255; r ≫ 8`
    /// index extraction, so a lookup-table index built this way sees the
    /// same bits in the same order as the sequential walk would.
    fn take_bits(&mut self, k: u32) -> u32 {
        assert!(k <= 32);
        let mut v = 0u32;
        for j in 0..k {
            v |= self.take_bit() << j;
        }
        v
    }

    /// Total number of bits drawn so far.
    fn bits_drawn(&self) -> u64;
}

/// SplitMix64 — a tiny, deterministic, statistically solid generator for
/// tests and examples (not a cryptographic RNG; the paper's platform used
/// a hardware TRNG, which `rlwe-m4sim` models separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
    /// Pending high half of the last 64-bit output.
    pending: Option<u32>,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            pending: None,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl WordSource for SplitMix64 {
    fn next_word(&mut self) -> u32 {
        if let Some(hi) = self.pending.take() {
            return hi;
        }
        let v = self.next_u64();
        self.pending = Some((v >> 32) as u32);
        v as u32
    }
}

/// The paper's §III-E register-buffered bit source with the sentinel-MSB /
/// `clz` bookkeeping.
///
/// Each refill takes a fresh word from the [`WordSource`], forces its MSB
/// to 1 (the sentinel) and serves the remaining **31 payload bits**
/// LSB-first by right-shifting. The register hitting exactly 1 signals
/// exhaustion; `fresh_bits()` is computed with `leading_zeros` exactly as
/// the paper does with `clz`.
///
/// # Example
///
/// ```
/// use rlwe_sampler::random::{BitSource, BufferedBitSource, SplitMix64};
///
/// let mut bits = BufferedBitSource::new(SplitMix64::new(1));
/// let first = bits.take_bits(8);
/// assert!(first < 256);
/// assert_eq!(bits.bits_drawn(), 8);
/// assert_eq!(bits.words_fetched(), 1); // one 31-payload-bit refill so far
/// ```
#[derive(Clone)]
pub struct BufferedBitSource<W> {
    source: W,
    /// Current register: sentinel bit above the unused payload bits.
    register: u32,
    bits_drawn: u64,
    words_fetched: u64,
    /// Block-refill queue: words prefetched in stream order via
    /// [`WordSource::fill_words`]. `block[block_pos..block_len]` is
    /// pending; `block_cap == 0` disables prefetch ([`Self::new`]).
    block: [u32; BLOCK_WORDS],
    block_cap: usize,
    block_len: usize,
    block_pos: usize,
}

/// Words prefetched per [`WordSource::fill_words`] call in
/// [`BufferedBitSource::buffered`] mode.
const BLOCK_WORDS: usize = 16;

impl<W: WordSource> BufferedBitSource<W> {
    /// Wraps a word source; the first word is fetched lazily, one word
    /// per refill — the paper's original discipline, and the mode to use
    /// when the underlying source must not be read ahead of demand (the
    /// rate-limited TRNG model).
    pub fn new(source: W) -> Self {
        Self {
            source,
            register: 1, // "empty" state: only the sentinel remains
            bits_drawn: 0,
            words_fetched: 0,
            block: [0; BLOCK_WORDS],
            block_cap: 0,
            block_len: 0,
            block_pos: 0,
        }
    }

    /// Like [`Self::new`], but refills fetch a 16-word block at a
    /// time through [`WordSource::fill_words`], amortizing one DRBG
    /// squeeze over many draws. The *served bit stream* is identical to
    /// [`Self::new`] over the same source — prefetching only changes how
    /// far the underlying source has been advanced at any instant, which
    /// is observable solely by a later reader of the same source.
    pub fn buffered(source: W) -> Self {
        let mut s = Self::new(source);
        s.block_cap = BLOCK_WORDS;
        s
    }

    /// Number of unused payload bits in the register, via the paper's
    /// `clz` trick: `31 − leading_zeros(register)`.
    pub fn fresh_bits(&self) -> u32 {
        31 - self.register.leading_zeros()
    }

    /// Number of words consumed into the bit register so far (block
    /// prefetch does not count a word until it is actually served).
    pub fn words_fetched(&self) -> u64 {
        self.words_fetched
    }

    fn refill(&mut self) {
        debug_assert_eq!(self.register, 1, "refill only when exhausted");
        let word = if self.block_cap == 0 {
            self.source.next_word()
        } else {
            if self.block_pos == self.block_len {
                self.source.fill_words(&mut self.block[..self.block_cap]);
                self.block_len = self.block_cap;
                self.block_pos = 0;
            }
            let w = self.block[self.block_pos];
            self.block_pos += 1;
            w
        };
        self.register = word | 0x8000_0000;
        self.words_fetched += 1;
    }
}

// The prefetched words and the register are unused coins: `Debug` shows
// only the counters, and `Drop` erases them.
impl<W: std::fmt::Debug> std::fmt::Debug for BufferedBitSource<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferedBitSource")
            .field("source", &self.source)
            .field("bits_drawn", &self.bits_drawn)
            .field("words_fetched", &self.words_fetched)
            .finish_non_exhaustive()
    }
}

impl<W> Drop for BufferedBitSource<W> {
    fn drop(&mut self) {
        rlwe_zq::ct::zeroize_u32(&mut self.block);
        rlwe_zq::ct::zeroize_u32(std::slice::from_mut(&mut self.register));
        #[cfg(test)]
        tests::DROPPED_WORDS.set(Some((self.block, self.register)));
    }
}

impl<W: WordSource> BitSource for BufferedBitSource<W> {
    fn take_bit(&mut self) -> u32 {
        if self.register == 1 {
            self.refill();
        }
        let bit = self.register & 1;
        self.register >>= 1;
        self.bits_drawn += 1;
        bit
    }

    /// Word-at-a-time override of the default per-bit loop: extracts up
    /// to 31 payload bits per register visit with one mask + shift.
    /// Serves exactly the bits (and values) the default LSB-first loop
    /// would — pinned by `take_bits_is_lsb_first` below.
    fn take_bits(&mut self, k: u32) -> u32 {
        assert!(k <= 32);
        let mut v = 0u32;
        let mut got = 0u32;
        while got < k {
            if self.register == 1 {
                self.refill();
            }
            let avail = 31 - self.register.leading_zeros();
            let take = (k - got).min(avail);
            // take ≤ 31, so the shift cannot overflow.
            let mask = (1u32 << take) - 1;
            v |= (self.register & mask) << got;
            self.register >>= take;
            got += take;
        }
        self.bits_drawn += k as u64;
        v
    }

    fn bits_drawn(&self) -> u64 {
        self.bits_drawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The block and register a dropped source left behind, as its
        /// `Drop` saw them after erasing.
        pub(super) static DROPPED_WORDS: Cell<Option<([u32; BLOCK_WORDS], u32)>> =
            const { Cell::new(None) };
    }

    #[test]
    fn dropping_a_source_erases_its_prefetched_coins() {
        let mut bits = BufferedBitSource::buffered(SplitMix64::new(0xD20));
        bits.take_bits(8);
        assert!(bits.block.iter().any(|&w| w != 0));
        assert_ne!(bits.register, 0);
        DROPPED_WORDS.set(None);
        drop(bits);
        assert_eq!(DROPPED_WORDS.get(), Some(([0; BLOCK_WORDS], 0)));
    }

    #[test]
    fn sentinel_accounting() {
        let mut b = BufferedBitSource::new(SplitMix64::new(42));
        assert_eq!(b.fresh_bits(), 0);
        b.take_bit();
        assert_eq!(b.fresh_bits(), 30); // 31 payload − 1 consumed
        for _ in 0..30 {
            b.take_bit();
        }
        assert_eq!(b.fresh_bits(), 0);
        assert_eq!(b.words_fetched(), 1);
        b.take_bit();
        assert_eq!(b.words_fetched(), 2);
    }

    #[test]
    fn bits_match_source_payload() {
        // The bits served must be the low 31 bits of each word, LSB-first.
        let mut raw = SplitMix64::new(7);
        let w0 = raw.next_word();
        let mut b = BufferedBitSource::new(SplitMix64::new(7));
        for j in 0..31 {
            assert_eq!(b.take_bit(), (w0 >> j) & 1, "bit {j}");
        }
    }

    #[test]
    fn take_bits_is_lsb_first() {
        let mut a = BufferedBitSource::new(SplitMix64::new(9));
        let mut b = BufferedBitSource::new(SplitMix64::new(9));
        let v = a.take_bits(8);
        let manual: u32 = (0..8).map(|j| b.take_bit() << j).sum();
        assert_eq!(v, manual);
    }

    #[test]
    fn splitmix_words_look_random() {
        // Cheap sanity: no stuck bits across 1000 words.
        let mut s = SplitMix64::new(123);
        let mut ones = [0u32; 32];
        for _ in 0..1000 {
            let w = s.next_word();
            for (j, count) in ones.iter_mut().enumerate() {
                *count += (w >> j) & 1;
            }
        }
        for (j, &c) in ones.iter().enumerate() {
            assert!((350..=650).contains(&c), "bit {j} appeared {c}/1000 times");
        }
    }

    #[test]
    fn counting_is_exact() {
        let mut b = BufferedBitSource::new(SplitMix64::new(5));
        b.take_bits(13);
        b.take_bit();
        assert_eq!(b.bits_drawn(), 14);
    }

    /// A bit-at-a-time shim that hides the fast `take_bits` override, so
    /// tests can compare against the default LSB-first per-bit loop.
    struct PerBit<'a, W>(&'a mut BufferedBitSource<W>);
    impl<W: WordSource> BitSource for PerBit<'_, W> {
        fn take_bit(&mut self) -> u32 {
            self.0.take_bit()
        }
        fn bits_drawn(&self) -> u64 {
            self.0.bits_drawn()
        }
    }

    #[test]
    fn fast_take_bits_matches_the_per_bit_loop() {
        // Same source, same draw sequence of mixed widths: the word-at-a-
        // time override must serve identical values and identical counts.
        let widths = [1u32, 8, 5, 31, 32, 3, 0, 13, 29, 32, 1, 7];
        let mut fast = BufferedBitSource::new(SplitMix64::new(0xFA57));
        let mut slow_src = BufferedBitSource::new(SplitMix64::new(0xFA57));
        for (i, &k) in widths.iter().cycle().take(500).enumerate() {
            let a = fast.take_bits(k);
            let b = PerBit(&mut slow_src).take_bits(k);
            assert_eq!(a, b, "draw {i} (k = {k}) diverged");
        }
        assert_eq!(fast.bits_drawn(), slow_src.bits_drawn());
        assert_eq!(fast.words_fetched(), slow_src.words_fetched());
    }

    #[test]
    fn buffered_mode_serves_the_identical_bit_stream() {
        // Block prefetch must not change a single served bit, the
        // words-consumed count, or the bit accounting — only how far the
        // underlying source has been read ahead.
        let mut direct = BufferedBitSource::new(SplitMix64::new(0xB10C));
        let mut blocked = BufferedBitSource::buffered(SplitMix64::new(0xB10C));
        for i in 0..4000 {
            match i % 3 {
                0 => assert_eq!(direct.take_bit(), blocked.take_bit(), "bit {i}"),
                1 => assert_eq!(direct.take_bits(8), blocked.take_bits(8), "byte {i}"),
                _ => assert_eq!(direct.take_bits(32), blocked.take_bits(32), "word {i}"),
            }
        }
        assert_eq!(direct.bits_drawn(), blocked.bits_drawn());
        assert_eq!(direct.words_fetched(), blocked.words_fetched());
    }
}

//! Workspace-local stand-in for `rand_chacha`.
//!
//! Implements the ChaCha keystream (RFC 8439 block function with a
//! configurable round count, a 64-bit block counter in words 12–13 and a
//! zero nonce in words 14–15) as an RNG. Words are emitted in block order,
//! each block's sixteen words in state order, so the little-endian bytes of
//! `ChaCha20Rng::from_seed([0; 32])` are exactly the RFC 8439 §A.1
//! keystream (test vectors #1 and #2, pinned by the tests below). The
//! stream is deterministic and platform-independent, which is all the
//! workspace relies on; nothing here should be used for cryptographic
//! purposes.
//!
//! Each refill computes eight consecutive blocks at once, with the block
//! counters `c … c+7` in vector lanes. The refill width never changes the
//! stream: it is the concatenation of the one-block outputs, whatever the
//! ISA the refill runs at.

// `deny` rather than `forbid`: the `refill` module calls the AVX2
// trampoline under its own scoped `allow`, with a safety comment on the
// unsafe call. Everything else refuses unsafe code at compile time.
#![deny(unsafe_code)]

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Consecutive blocks computed per refill.
const BLOCKS: usize = 8;

/// Keystream words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

/// A ChaCha-based RNG generic over the number of double rounds.
#[derive(Debug, Clone)]
pub struct ChaChaRng<const DOUBLE_ROUNDS: usize> {
    /// 256-bit key as eight little-endian words.
    key: [u32; 8],
    /// Block counter of the first block of the next refill (the nonce is
    /// fixed to zero).
    counter: u64,
    /// The current [`BLOCKS`] keystream blocks, in stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; [`BUF_WORDS`] forces a refill.
    index: usize,
}

impl<const DOUBLE_ROUNDS: usize> ChaChaRng<DOUBLE_ROUNDS> {
    // Out of line: with the refill inlined into `next_u32`, a `next_u64`
    // loop measured about 1.6× slower per word (EXPERIMENTS.md X14).
    #[inline(never)]
    fn refill(&mut self) {
        refill::blocks::<DOUBLE_ROUNDS>(&self.key, self.counter, &mut self.buf);
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.index = 0;
    }
}

impl<const DOUBLE_ROUNDS: usize> SeedableRng for ChaChaRng<DOUBLE_ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            let mut b = [0u8; 4];
            b.copy_from_slice(&seed[i * 4..i * 4 + 4]);
            *word = u32::from_le_bytes(b);
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl<const DOUBLE_ROUNDS: usize> RngCore for ChaChaRng<DOUBLE_ROUNDS> {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buf[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i + 1 < BUF_WORDS {
            self.index = i + 2;
            return (u64::from(self.buf[i + 1]) << 32) | u64::from(self.buf[i]);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

/// ChaCha with 8 rounds (4 double rounds) — the variant the workspace uses.
pub type ChaCha8Rng = ChaChaRng<4>;

/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<6>;

/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaRng<10>;

/// One ChaCha quarter round.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One double round: the column rounds, then the diagonal rounds.
#[inline(always)]
fn double_round(state: &mut [u32; 16]) {
    quarter_round(state, 0, 4, 8, 12);
    quarter_round(state, 1, 5, 9, 13);
    quarter_round(state, 2, 6, 10, 14);
    quarter_round(state, 3, 7, 11, 15);
    quarter_round(state, 0, 5, 10, 15);
    quarter_round(state, 1, 6, 11, 12);
    quarter_round(state, 2, 7, 8, 13);
    quarter_round(state, 3, 4, 9, 14);
}

/// The eight-block body: keystream blocks `counter … counter+7` of `key`
/// into `out`, in stream order.
///
/// The state is held lane-major: `x[w][j]` is word `w` of block
/// `counter + j`. Each double round runs the scalar double round on every
/// lane, with the lane loop innermost, so the compiler vectorizes across
/// lanes: `x[w]` becomes one 8-lane AVX2 vector, or two 4-lane SSE2
/// vectors at the x86-64 baseline. `#[inline(always)]` lets the AVX2
/// trampoline in [`refill`] re-code-generate the body with AVX2 enabled.
#[inline(always)]
fn blocks<const DOUBLE_ROUNDS: usize>(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    let mut input = [[0u32; BLOCKS]; 16];
    for (lanes, &c) in input.iter_mut().zip(&CHACHA_CONSTANTS) {
        *lanes = [c; BLOCKS];
    }
    for (lanes, &k) in input[4..12].iter_mut().zip(key) {
        *lanes = [k; BLOCKS];
    }
    let counters: [u64; BLOCKS] = std::array::from_fn(|j| counter.wrapping_add(j as u64));
    input[12] = counters.map(|c| c as u32);
    input[13] = counters.map(|c| (c >> 32) as u32);
    let mut x = input;
    for _ in 0..DOUBLE_ROUNDS {
        for j in 0..BLOCKS {
            let mut state: [u32; 16] = std::array::from_fn(|w| x[w][j]);
            double_round(&mut state);
            for (lanes, word) in x.iter_mut().zip(state) {
                lanes[j] = word;
            }
        }
    }
    for (j, block) in out.chunks_exact_mut(16).enumerate() {
        for (w, o) in block.iter_mut().enumerate() {
            *o = x[w][j].wrapping_add(input[w][j]);
        }
    }
}

/// The refill: [`blocks`] re-code-generated with AVX2 where the CPU has
/// it, at the target's baseline ISA otherwise.
///
/// This module is the crate's one scoped `unsafe` island. Its one unsafe
/// operation is the call of the `#[target_feature(enable = "avx2")]`
/// trampoline, made only on the branch where the runtime probe confirmed
/// AVX2 (`is_x86_feature_detected!` caches the CPUID result, so the probe
/// costs one load per refill).
#[allow(unsafe_code)]
mod refill {
    use super::BUF_WORDS;

    /// Fills `out` with the keystream blocks `counter … counter+7`.
    pub(super) fn blocks<const DOUBLE_ROUNDS: usize>(
        key: &[u32; 8],
        counter: u64,
        out: &mut [u32; BUF_WORDS],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the probe just confirmed AVX2, the trampoline's one
            // target feature.
            return unsafe { avx2::<DOUBLE_ROUNDS>(key, counter, out) };
        }
        super::blocks::<DOUBLE_ROUNDS>(key, counter, out)
    }

    /// [`super::blocks`] with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// Callers without AVX2 enabled must have confirmed AVX2 on the
    /// running CPU.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2<const DOUBLE_ROUNDS: usize>(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        super::blocks::<DOUBLE_ROUNDS>(key, counter, out)
    }

    #[cfg(test)]
    mod tests {
        use super::BUF_WORDS;

        /// Eight one-block calls: the oracle every instantiation must
        /// reproduce.
        fn oracle<const DR: usize>(key: &[u32; 8], counter: u64) -> [u32; BUF_WORDS] {
            let mut out = [0; BUF_WORDS];
            for (j, chunk) in out.chunks_exact_mut(16).enumerate() {
                super::super::tests::block::<DR>(key, counter.wrapping_add(j as u64), chunk);
            }
            out
        }

        type Body = fn(&[u32; 8], u64, &mut [u32; BUF_WORDS]);

        /// The instantiations of `DR` double rounds this host can run, by
        /// name.
        fn bodies<const DR: usize>() -> Vec<(&'static str, Body)> {
            #[allow(unused_mut)]
            let mut bodies: Vec<(&'static str, Body)> = vec![
                ("dispatched", super::blocks::<DR>),
                ("baseline", super::super::blocks::<DR>),
            ];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU has AVX2, the trampoline's target feature.
                bodies.push(("avx2", |k, c, o| unsafe { super::avx2::<DR>(k, c, o) }));
            }
            bodies
        }

        fn check<const DR: usize>() {
            let keys = [
                [0u32; 8],
                std::array::from_fn(|i| 0x0302_0100 + 0x0404_0404 * i as u32),
                [u32::MAX; 8],
            ];
            let counters = [
                0,
                1,
                7,
                u64::from(u32::MAX) - 3,
                u64::from(u32::MAX) - 8,
                u64::from(u32::MAX),
                u64::MAX - 3,
                0x1234_5678_9abc_def0,
            ];
            for (name, body) in bodies::<DR>() {
                for key in &keys {
                    for &counter in &counters {
                        let mut got = [0; BUF_WORDS];
                        body(key, counter, &mut got);
                        assert_eq!(
                            got,
                            oracle::<DR>(key, counter),
                            "{name} body, {DR} double rounds, counter {counter:#x}"
                        );
                    }
                }
            }
        }

        #[test]
        fn every_refill_instantiation_matches_the_one_block_oracle() {
            check::<4>();
            check::<6>();
            check::<10>();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The one-block body the eight-block refill replaced: keystream block
    /// `counter` of `key` into `out`.
    pub(super) fn block<const DR: usize>(key: &[u32; 8], counter: u64, out: &mut [u32]) {
        let mut input = [0u32; 16];
        input[..4].copy_from_slice(&CHACHA_CONSTANTS);
        input[4..12].copy_from_slice(key);
        input[12] = counter as u32;
        input[13] = (counter >> 32) as u32;
        let mut state = input;
        for _ in 0..DR {
            double_round(&mut state);
        }
        for ((o, s), i) in out.iter_mut().zip(state).zip(input) {
            *o = s.wrapping_add(i);
        }
    }

    /// The one-block refill the eight-block buffer replaced: the stream
    /// oracle, word for word.
    #[derive(Clone)]
    struct OneBlock<const DR: usize> {
        key: [u32; 8],
        counter: u64,
        block: [u32; 16],
        index: usize,
    }

    impl<const DR: usize> OneBlock<DR> {
        fn of(rng: &ChaChaRng<DR>) -> Self {
            assert_eq!(rng.index, BUF_WORDS, "oracle starts at a refill boundary");
            Self {
                key: rng.key,
                counter: rng.counter,
                block: [0; 16],
                index: 16,
            }
        }
    }

    impl<const DR: usize> RngCore for OneBlock<DR> {
        fn next_u32(&mut self) -> u32 {
            if self.index >= 16 {
                block::<DR>(&self.key, self.counter, &mut self.block);
                self.counter = self.counter.wrapping_add(1);
                self.index = 0;
            }
            let word = self.block[self.index];
            self.index += 1;
            word
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            let hi = u64::from(self.next_u32());
            (hi << 32) | lo
        }
    }

    /// Draws `draws` values from both, alternating `next_u32` and
    /// `next_u64` in a pattern that puts `next_u64` at odd and even word
    /// offsets, across several refills.
    fn assert_same_stream<const DR: usize>(
        rng: &mut ChaChaRng<DR>,
        oracle: &mut OneBlock<DR>,
        draws: usize,
        at: &str,
    ) {
        for i in 0..draws {
            if i % 3 == 0 || i % 7 == 0 {
                assert_eq!(rng.next_u32(), oracle.next_u32(), "{at}: next_u32 #{i}");
            } else {
                assert_eq!(rng.next_u64(), oracle.next_u64(), "{at}: next_u64 #{i}");
            }
        }
    }

    fn stream_matches_the_one_block_oracle<const DR: usize>() {
        for start in [0, u64::from(u32::MAX) - 3, u64::MAX - 3] {
            let at = format!("{DR} double rounds from block {start:#x}");
            let mut rng = ChaChaRng::<DR>::seed_from_u64(start ^ 0x5eed);
            rng.counter = start;
            let mut oracle = OneBlock::of(&rng);

            // Word 127 then 128: a `next_u64` straddling the refill.
            for _ in 0..(BUF_WORDS - 1) {
                assert_eq!(rng.next_u32(), oracle.next_u32(), "{at}");
            }
            assert_eq!(rng.next_u64(), oracle.next_u64(), "{at}: straddle");
            assert_same_stream(&mut rng, &mut oracle, 1000, &at);

            // A clone mid-buffer continues both streams identically.
            let (mut copy, mut copy_oracle) = (rng.clone(), oracle.clone());
            assert_same_stream(&mut rng, &mut oracle, 300, &at);
            assert_same_stream(&mut copy, &mut copy_oracle, 300, &at);
        }
    }

    #[test]
    fn stream_matches_the_one_block_oracle_for_8_12_and_20_rounds() {
        stream_matches_the_one_block_oracle::<4>();
        stream_matches_the_one_block_oracle::<6>();
        stream_matches_the_one_block_oracle::<10>();
    }

    /// RFC 8439 §A.1 test vectors #1 (block 0) and #2 (block 1): the
    /// ChaCha20 keystream of the all-zero key and nonce.
    #[test]
    fn chacha20_zero_key_is_the_rfc8439_a1_keystream() {
        const BLOCK0: &str = "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
                              da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586";
        const BLOCK1: &str = "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
                              29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f";
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        let hex: String = (0..32)
            .flat_map(|_| rng.next_u32().to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(&hex[..128], BLOCK0, "block 0");
        assert_eq!(&hex[128..], BLOCK1, "block 1");
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stream_has_unit_interval_floats() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}

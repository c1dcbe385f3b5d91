//! Known-answer test of the ChaCha keystream every trace, selection and
//! golden fixture is drawn from.
//!
//! `ChaCha20Rng::from_seed([0; 32])` (zero key, zero nonce, block counter
//! from 0) must emit the RFC 8439 §A.1 keystream: test vector #1 is block
//! 0, test vector #2 is block 1. Reading the stream as `u32` or as `u64`
//! words gives the same little-endian bytes, so both draw paths are pinned.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// RFC 8439 §A.1, ChaCha20 block function test vectors #1 and #2.
const KEYSTREAM: &str = concat!(
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7",
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586",
    "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed",
    "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn chacha20_zero_key_u32_stream_is_the_rfc8439_a1_keystream() {
    let mut rng = ChaCha20Rng::from_seed([0; 32]);
    let bytes: Vec<u8> = (0..32).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
    assert_eq!(hex(&bytes[..64]), KEYSTREAM[..128], "block 0 (vector #1)");
    assert_eq!(hex(&bytes[64..]), KEYSTREAM[128..], "block 1 (vector #2)");
}

#[test]
fn chacha20_zero_key_u64_stream_is_the_rfc8439_a1_keystream() {
    let mut rng = ChaCha20Rng::from_seed([0; 32]);
    let bytes: Vec<u8> = (0..16).flat_map(|_| rng.next_u64().to_le_bytes()).collect();
    assert_eq!(hex(&bytes), KEYSTREAM);
}

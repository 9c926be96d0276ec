//! CRC-32 (IEEE 802.3) checksums.
//!
//! The corpus format checksums every compressed chunk and its header +
//! index region so that storage corruption surfaces as a typed decode
//! error instead of silently wrong records. This is the standard
//! reflected CRC-32 (polynomial `0xEDB88320`, init and xor-out
//! `0xFFFFFFFF`) — the same function as zlib's `crc32` — computed
//! slicing-by-8: eight compile-time 256-entry tables fold eight input
//! bytes per step with eight independent lookups, and a byte-at-a-time
//! loop over the first table finishes the tail. The crate stays
//! dependency-free.
//!
//! # Example
//!
//! ```
//! use ev8_util::crc::crc32;
//!
//! // The classic check value for the ASCII bytes "123456789".
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic byte table
/// (the CRC of each byte value); `TABLES[k]` advances an entry of
/// `TABLES[k - 1]` by one more zero byte, so `TABLES[k][b]` is the
/// contribution of byte value `b` seen `k` bytes before the end of an
/// eight-byte block.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Advances `crc` over `bytes` one table lookup per byte.
#[inline]
fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The CRC-32 of `bytes` in one call.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// An incremental CRC-32 hasher for data that arrives in pieces.
///
/// # Example
///
/// ```
/// use ev8_util::crc::{crc32, Crc32};
///
/// let mut h = Crc32::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finish(), crc32(b"123456789"));
/// ```
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = update_bytewise(crc, blocks.remainder());
    }

    /// The checksum of everything fed so far. Does not consume the
    /// hasher; further [`Crc32::update`] calls continue the stream.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_values() {
        // Reference values shared by every standard CRC-32 implementation.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 7, 255, 256, 9_999, 10_000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split at {split}");
        }
    }

    /// The byte-at-a-time CRC of `bytes`, the reference slicing-by-8
    /// must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, bytes)
    }

    fn seeded_bytes(n: usize, mut state: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length_and_alignment() {
        let data = seeded_bytes(8 + 67, 0x0c4c);
        for align in 0..8 {
            for len in 0..=67 {
                let bytes = &data[align..align + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_bytewise_across_seeded_splits() {
        let data = seeded_bytes(4096, 0x5b11_7500);
        let want = bytewise(&data);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..200 {
            let mut h = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let step = ((state >> 33) % 97) as usize;
                let end = (at + step).min(data.len());
                h.update(&data[at..end]);
                at = end;
            }
            assert_eq!(h.finish(), want, "split case {case}");
        }
    }

    #[test]
    fn finish_is_observation_not_consumption() {
        let mut h = Crc32::new();
        h.update(b"1234");
        let _ = h.finish();
        h.update(b"56789");
        assert_eq!(h.finish(), crc32(b"123456789"));
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut m = data.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}

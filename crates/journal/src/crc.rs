//! CRC-32 (IEEE 802.3) — the frame checksum.
//!
//! Implemented locally (slice-by-8 over the reflected polynomial
//! 0xEDB88320) because the build environment vendors no external
//! crates. Any single-bit flip in a frame is guaranteed to change the
//! checksum, which is exactly the property the corruption tests lean on.
//!
//! Slice-by-8 folds eight input bytes per step through eight derived
//! tables: `TABLES[k][b]` is the CRC contribution of byte `b` followed
//! by `k` zero bytes. The result is bit-for-bit the classic
//! byte-at-a-time CRC (kept as a test oracle below).

const POLY: u32 = 0xEDB8_8320;

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = tables();

/// The CRC-32 (IEEE) of `data`.
///
/// # Examples
///
/// ```
/// // The catalogue check value for "123456789".
/// assert_eq!(rossl_journal::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Folds `data` into the raw (uninverted) CRC register `c`:
/// `crc32(a ++ b) == !update(update(!0, a), b)`. That is what lets a
/// journal frame start from the register state after its constant
/// header instead of re-hashing it.
pub(crate) fn update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        c = step8(c, u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]));
    }
    let mut rest = chunks.remainder();
    // A remainder of four or more bytes takes one slice-by-4 step: the
    // four bytes consume the whole register.
    if let [b0, b1, b2, b3, tail @ ..] = rest {
        let lo = c ^ u32::from_le_bytes([*b0, *b1, *b2, *b3]);
        c = t[3][(lo & 0xFF) as usize]
            ^ t[2][((lo >> 8) & 0xFF) as usize]
            ^ t[1][((lo >> 16) & 0xFF) as usize]
            ^ t[0][(lo >> 24) as usize];
        rest = tail;
    }
    for &b in rest {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One slice-by-8 step: folds the eight little-endian bytes of `word`
/// into the raw register `c`.
#[inline]
pub(crate) fn step8(c: u32, word: u64) -> u32 {
    let t = &TABLES;
    let lo = c ^ word as u32;
    let hi = (word >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// The raw register after the 5-byte frame header `[kind, len:u32le]`,
/// computed bit by bit at compile time: a frame whose header is fixed
/// starts its CRC here.
pub(crate) const fn header_state(kind: u8, len: u32) -> u32 {
    let header = [kind, len as u8, (len >> 8) as u8, (len >> 16) as u8, (len >> 24) as u8];
    let mut c = !0u32;
    let mut i = 0;
    while i < header.len() {
        c ^= header[i] as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        i += 1;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the slice-by-8 version replaced, with its
    /// own run-time table: the oracle shares no code with `crc32`.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let t = TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (i, entry) in t.iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *entry = c;
            }
            t
        });
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slice_by_8_equals_bytewise_for_every_short_length() {
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(151) ^ 0x5A) as u8).collect();
        for len in 0..=64 {
            for start in 0..8.min(64 - len + 1) {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
    }

    proptest! {
        #[test]
        fn slice_by_8_equals_bytewise_on_random_buffers(
            buf in proptest::collection::vec(0u8..=255, 0..2048),
        ) {
            prop_assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the scheduler crashed mid-loop".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }
}

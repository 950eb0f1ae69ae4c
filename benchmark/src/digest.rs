//! Content digest of a workload's user-visible outputs (verdicts,
//! outcome counts, response ticks): FNV-1a over little-endian words.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a/64 digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn add(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds every value of `values`, preceded by their count so that
    /// adjacent sequences cannot run into each other.
    pub fn add_all(&mut self, values: impl IntoIterator<Item = u64>) {
        let values: Vec<u64> = values.into_iter().collect();
        self.add(values.len() as u64);
        for v in values {
            self.add(v);
        }
    }

    /// The digest as 16 lower-case hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 step: derives the per-operation seeds of a workload from
/// the run's `--seed`, so the same seed always yields the same inputs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let of = |parts: &[&[u64]]| {
            let mut d = Digest::default();
            for p in parts {
                d.add_all(p.iter().copied());
            }
            d.hex()
        };
        assert_eq!(of(&[&[1, 2]]), of(&[&[1, 2]]));
        assert_ne!(of(&[&[1, 2]]), of(&[&[2, 1]]));
        assert_ne!(of(&[&[1], &[2]]), of(&[&[1, 2]]));
        assert_eq!(Digest::default().hex().len(), 16);
    }

    #[test]
    fn mix_separates_seeds_and_indices() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}

//! FNV-1a digests of op outcomes. No golden digests are committed —
//! fidelity work legitimately changes simulated numbers — so digests are
//! only ever compared with each other: across passes of one run, and
//! across workloads that must agree (`--jobs N` ≡ `--jobs 1`, online ≡
//! offline).

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in one float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a byte string.
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.f64(1.5);
        let mut g = Fnv::default();
        g.u64(1.5f64.to_bits());
        assert_eq!(h.finish(), g.finish());
    }
}

//! In-tree CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`).
//!
//! The snapshot format checksums every section so a bit-flipped or torn
//! image is rejected at load time instead of corrupting the heap, and the
//! checkpoint store checksums every image file and MANIFEST frame. The
//! workspace is hermetic (no external crates), so the checksum lives here.
//!
//! **Slicing-by-8.** [`Crc32::update`] consumes eight bytes per step: eight
//! 256-entry tables, built in a `const fn` from the classic bytewise table,
//! let one step fold a whole little-endian word into the state with eight
//! independent lookups; a bytewise tail finishes the last `len % 8` bytes.
//! The polynomial and output are those of the bytewise algorithm, so every
//! checksum already on disk stays valid.
//!
//! **Combining.** [`combine`] computes the CRC of `A ++ B` from `crc(A)`,
//! `crc(B)` and `len(B)` without reading either buffer (zlib's
//! `crc32_combine`: multiply `crc(A)` by `x^(8·len B)` modulo the
//! polynomial, then add `crc(B)`). A writer that already checksums the
//! pieces of a file therefore gets the whole file's CRC for free, and
//! [`Crc32::append_crc`] continues a streaming digest across such a piece.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing tables: `TABLES[0]` is the classic bytewise table; `TABLES[k][b]`
/// is the CRC contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
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
}

/// Streaming CRC-32 digest.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh digest (over zero bytes so far).
    pub const fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the digest, eight bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Continues the stream past `len` bytes whose CRC-32 is `crc`, without
    /// reading them: afterwards the digest is as if those bytes had been
    /// [`update`](Crc32::update)d.
    pub fn append_crc(&mut self, crc: u32, len: u64) {
        self.state = !combine(self.finish(), crc, len);
    }

    /// The checksum of everything fed so far. Does not consume the digest;
    /// further [`update`](Crc32::update)s continue the same stream.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut d = Crc32::new();
    d.update(bytes);
    d.finish()
}

/// `a · b mod POLY` over GF(2), both operands reflected (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k) mod POLY`. The polynomial is irreducible of degree
/// 32, so `x^(2^32) = x` and the table repeats with period 32.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// The CRC-32 of `A ++ B`, given `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()`. Costs `O(log len_b)` polynomial products; reads no
/// data.
pub fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Shifting A's CRC past len_b bytes multiplies it by x^(8·len_b).
    let mut shift = 1 << 31; // x^0
    let mut n = len_b;
    let mut k = 3; // 8 = 2^3 bits per byte
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference the slicing kernel must equal on every input.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A seeded buffer, so failures reproduce.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::prng::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn slicing_equals_the_bytewise_reference_at_every_length() {
        let data = seeded(130, 0x5EED);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn every_two_update_split_equals_one_shot() {
        let data = seeded(1024, 25);
        let whole = bytewise(&data);
        for cut in 0..=data.len() {
            let mut d = Crc32::new();
            d.update(&data[..cut]);
            d.update(&data[cut..]);
            assert_eq!(d.finish(), whole, "cut {cut}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let whole = crc32(&data);
        let mut d = Crc32::new();
        for chunk in data.chunks(97) {
            d.update(chunk);
        }
        assert_eq!(d.finish(), whole);
        // finish() is a read, not a reset: updating afterwards continues.
        let mut e = Crc32::new();
        e.update(&data[..5000]);
        let _mid = e.finish();
        e.update(&data[5000..]);
        assert_eq!(e.finish(), whole);
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        let data = seeded(1000, 7);
        let n = data.len();
        let whole = crc32(&data);
        for cut in [0, 1, 7, 8, 9, n / 2, n - 1, n] {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "cut {cut}"
            );
            let mut d = Crc32::new();
            d.update(a);
            d.append_crc(crc32(b), b.len() as u64);
            assert_eq!(d.finish(), whole, "append_crc at cut {cut}");
        }
    }

    #[test]
    fn combine_table_wraps_and_splits_zero_runs() {
        // x^(2^32) = x: the doubling table wraps exactly.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        // A run of zero bytes, combined at once or in two halves.
        let zeros = vec![0u8; 4096];
        let z = crc32(&zeros);
        assert_eq!(
            combine(crc32(&zeros[..1000]), crc32(&zeros[1000..]), 3096),
            z
        );
        assert_eq!(combine(0x1234_5678, z, 4096), {
            let mut d = Crc32::new();
            d.append_crc(0x1234_5678, 0);
            d.update(&zeros);
            d.finish()
        });
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base: Vec<u8> = (0u8..64).collect();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}.{bit}");
            }
        }
    }
}

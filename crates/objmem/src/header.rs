//! Object header packing.
//!
//! Every heap object is two header words followed by its body:
//!
//! ```text
//! word 0: Header — size, format, odd bytes, age, flags, identity hash
//! word 1: class oop (or the forwarding oop while `FORWARDED` is set)
//! word 2..: body slots (oops) or raw bytes
//! ```
//!
//! The flag bits carry the state the paper's adaptation strategies need:
//! `REMEMBERED` backs the entry table ("a flag on each object indicating
//! whether it has already been remembered", §3.1), `FORWARDED` implements
//! scavenge-time forwarding ("no indirection or forwarding is used except
//! during the scavenging activity"), and `ESCAPED` marks contexts that may
//! not be recycled onto a free-context list.

/// Body layout of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjFormat {
    /// All body slots are oops.
    Pointers,
    /// The body is raw bytes (String, Symbol, ByteArray, Float bits).
    Bytes,
    /// CompiledMethod: slot 0 is the method header SmallInteger, followed by
    /// the literal oops, followed by raw bytecode bytes.
    Method,
}

impl ObjFormat {
    fn from_bits(bits: u64) -> ObjFormat {
        ObjFormat::try_from_bits(bits).unwrap_or_else(|| unreachable!("invalid format bits {bits}"))
    }

    /// Fallible decode, for validating untrusted header words (snapshot
    /// loads): format bits `3` are unassigned and return `None`.
    pub fn try_from_bits(bits: u64) -> Option<ObjFormat> {
        match bits {
            0 => Some(ObjFormat::Pointers),
            1 => Some(ObjFormat::Bytes),
            2 => Some(ObjFormat::Method),
            _ => None,
        }
    }

    fn to_bits(self) -> u64 {
        match self {
            ObjFormat::Pointers => 0,
            ObjFormat::Bytes => 1,
            ObjFormat::Method => 2,
        }
    }
}

const SIZE_SHIFT: u64 = 0;
const SIZE_BITS: u64 = 24;
const FORMAT_SHIFT: u64 = 24;
const FORMAT_BITS: u64 = 2;
const ODD_SHIFT: u64 = 26;
const ODD_BITS: u64 = 3;
const AGE_SHIFT: u64 = 29;
const AGE_BITS: u64 = 3;
const FLAG_REMEMBERED: u64 = 1 << 32;
const FLAG_FORWARDED: u64 = 1 << 33;
const FLAG_ESCAPED: u64 = 1 << 35;
/// Bits no header sets: 34 (free; a full collection keeps its marks in a
/// side table) and 36–39 (unassigned, which [`PAD_WORD`] relies on).
const RESERVED: u64 = 1 << 34 | 0b1111 << 36;
const HASH_SHIFT: u64 = 40;
const HASH_BITS: u64 = 22;

/// Maximum body size in words a single object may have.
pub const MAX_BODY_WORDS: usize = (1 << SIZE_BITS) - 1;
/// Fills abandoned tail words of a parallel scavenge's to-space copy
/// buffers. A reserved bit alone, so a space walker can never confuse a pad
/// with an object header; walkers skip pad words one at a time. Pads only
/// ever appear in survivor space, are never referenced, and die with the
/// semispace at the next scavenge.
pub const PAD_WORD: u64 = 1 << 36;
/// Maximum GC age before an object is tenured.
pub const MAX_AGE: u8 = (1 << AGE_BITS) - 1;
/// Identity hashes are confined to this many bits.
pub const HASH_MASK: u64 = (1 << HASH_BITS) - 1;

/// A decoded-on-demand view of header word 0.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Header(pub u64);

impl Header {
    /// Builds a fresh header for a new object.
    pub fn new(body_words: usize, format: ObjFormat, odd_bytes: u8, hash: u64) -> Header {
        debug_assert!(body_words <= MAX_BODY_WORDS, "object too large");
        debug_assert!(odd_bytes < 8);
        Header(
            (body_words as u64) << SIZE_SHIFT
                | format.to_bits() << FORMAT_SHIFT
                | (odd_bytes as u64) << ODD_SHIFT
                | (hash & HASH_MASK) << HASH_SHIFT,
        )
    }

    /// Body size in words (headers excluded).
    #[inline]
    pub fn body_words(self) -> usize {
        ((self.0 >> SIZE_SHIFT) & ((1 << SIZE_BITS) - 1)) as usize
    }

    /// The body layout.
    #[inline]
    pub fn format(self) -> ObjFormat {
        ObjFormat::from_bits((self.0 >> FORMAT_SHIFT) & ((1 << FORMAT_BITS) - 1))
    }

    /// The body layout, or `None` when the format bits are unassigned.
    /// Use this on headers read from untrusted bytes; [`format`](Header::format)
    /// panics on them.
    #[inline]
    pub fn try_format(self) -> Option<ObjFormat> {
        ObjFormat::try_from_bits((self.0 >> FORMAT_SHIFT) & ((1 << FORMAT_BITS) - 1))
    }

    /// Unused bytes in the final body word of a byte-ish object.
    #[inline]
    pub fn odd_bytes(self) -> u8 {
        ((self.0 >> ODD_SHIFT) & ((1 << ODD_BITS) - 1)) as u8
    }

    /// Scavenge-survival count.
    #[inline]
    pub fn age(self) -> u8 {
        ((self.0 >> AGE_SHIFT) & ((1 << AGE_BITS) - 1)) as u8
    }

    /// Returns a header with the age incremented (saturating at [`MAX_AGE`]).
    #[inline]
    pub fn with_age(self, age: u8) -> Header {
        debug_assert!(age <= MAX_AGE);
        Header(self.0 & !(((1 << AGE_BITS) - 1) << AGE_SHIFT) | (age as u64) << AGE_SHIFT)
    }

    /// Whether the object is in the entry table (remembered set).
    #[inline]
    pub fn is_remembered(self) -> bool {
        self.0 & FLAG_REMEMBERED != 0
    }

    /// Sets or clears the remembered flag.
    #[inline]
    pub fn with_remembered(self, on: bool) -> Header {
        if on {
            Header(self.0 | FLAG_REMEMBERED)
        } else {
            Header(self.0 & !FLAG_REMEMBERED)
        }
    }

    /// Whether the object has been copied and word 1 holds the new oop.
    #[inline]
    pub fn is_forwarded(self) -> bool {
        self.0 & FLAG_FORWARDED != 0
    }

    /// Sets the forwarded flag.
    #[inline]
    pub fn with_forwarded(self) -> Header {
        Header(self.0 | FLAG_FORWARDED)
    }

    /// Packs a forwarding pointer into a single header word: the `FORWARDED`
    /// flag plus the new oop's raw bits in the low 33 bits. One word, so it
    /// installs atomically with one CAS, which the scavenger's copy race
    /// between helpers requires. Valid because object oops are `index << 1`
    /// and every real heap index fits well below 2^32.
    #[inline]
    pub fn forwarding_word(target_raw: u64) -> u64 {
        debug_assert!(target_raw < FLAG_REMEMBERED, "oop too wide to pack");
        FLAG_FORWARDED | target_raw
    }

    /// The raw oop packed by [`forwarding_word`](Header::forwarding_word).
    /// Only meaningful while [`is_forwarded`](Header::is_forwarded). A result
    /// of zero means the copy is still in flight (claimed, not yet
    /// published).
    #[inline]
    pub fn forwarding_target(self) -> u64 {
        self.0 & (FLAG_FORWARDED - 1)
    }

    /// The claim sentinel: `FORWARDED` with a zero target. A helper installs
    /// this before copying; racing readers spin until the real target lands.
    #[inline]
    pub fn claim_word() -> u64 {
        FLAG_FORWARDED
    }

    /// Whether a reserved bit is set, which no header this system writes
    /// has (the snapshot loader rejects such a word).
    #[inline]
    pub fn has_reserved_bits(self) -> bool {
        self.0 & RESERVED != 0
    }

    /// Whether a context has escaped (may not be recycled).
    #[inline]
    pub fn is_escaped(self) -> bool {
        self.0 & FLAG_ESCAPED != 0
    }

    /// Sets the escaped flag.
    #[inline]
    pub fn with_escaped(self) -> Header {
        Header(self.0 | FLAG_ESCAPED)
    }

    /// The identity hash assigned at allocation.
    #[inline]
    pub fn hash(self) -> u64 {
        (self.0 >> HASH_SHIFT) & HASH_MASK
    }
}

impl std::fmt::Debug for Header {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Header")
            .field("body_words", &self.body_words())
            .field("format", &self.format())
            .field("odd_bytes", &self.odd_bytes())
            .field("age", &self.age())
            .field("remembered", &self.is_remembered())
            .field("forwarded", &self.is_forwarded())
            .field("escaped", &self.is_escaped())
            .field("hash", &self.hash())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let h = Header::new(100, ObjFormat::Bytes, 5, 0x3FFFFF);
        assert_eq!(h.body_words(), 100);
        assert_eq!(h.format(), ObjFormat::Bytes);
        assert_eq!(h.odd_bytes(), 5);
        assert_eq!(h.hash(), 0x3FFFFF);
        assert_eq!(h.age(), 0);
        assert!(!h.is_remembered() && !h.is_forwarded() && !h.is_escaped());
        assert!(!h.has_reserved_bits());
    }

    #[test]
    fn hash_is_masked() {
        let h = Header::new(1, ObjFormat::Pointers, 0, u64::MAX);
        assert_eq!(h.hash(), HASH_MASK);
        assert_eq!(h.body_words(), 1);
    }

    #[test]
    fn flags_are_independent() {
        let h = Header::new(3, ObjFormat::Pointers, 0, 7);
        let h = h.with_remembered(true).with_escaped();
        assert!(h.is_remembered() && h.is_escaped());
        assert!(!h.is_forwarded() && !h.has_reserved_bits());
        let h = h.with_remembered(false);
        assert!(!h.is_remembered() && h.is_escaped());
        assert_eq!(h.body_words(), 3);
        assert_eq!(h.hash(), 7);
    }

    #[test]
    fn age_updates_preserve_rest() {
        let h = Header::new(9, ObjFormat::Method, 2, 11).with_remembered(true);
        let h2 = h.with_age(5);
        assert_eq!(h2.age(), 5);
        assert_eq!(h2.body_words(), 9);
        assert_eq!(h2.format(), ObjFormat::Method);
        assert_eq!(h2.odd_bytes(), 2);
        assert!(h2.is_remembered());
        let h3 = h2.with_age(MAX_AGE);
        assert_eq!(h3.age(), MAX_AGE);
    }

    #[test]
    fn all_formats_round_trip() {
        for fmt in [ObjFormat::Pointers, ObjFormat::Bytes, ObjFormat::Method] {
            assert_eq!(Header::new(1, fmt, 0, 0).format(), fmt);
        }
    }

    #[test]
    fn packed_forwarding_round_trips() {
        let raw = 0x1234_5678u64 << 1; // an object oop: even, < 2^33
        let w = Header::forwarding_word(raw);
        let h = Header(w);
        assert!(h.is_forwarded());
        assert_eq!(h.forwarding_target(), raw);
        // The claim sentinel is forwarded with a zero (in-flight) target.
        let c = Header(Header::claim_word());
        assert!(c.is_forwarded());
        assert_eq!(c.forwarding_target(), 0);
        // A pad word is not a plausible header: it has no flags, no size,
        // and a reserved bit.
        let p = Header(PAD_WORD);
        assert!(!p.is_forwarded() && !p.is_remembered() && p.has_reserved_bits());
        assert_eq!(p.body_words(), 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Header::new(4, ObjFormat::Bytes, 1, 2));
        assert!(s.contains("body_words"));
    }
}

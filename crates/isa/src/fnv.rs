//! Streaming 64-bit FNV-1a, the workspace's one hash for content
//! addresses and corruption checksums.

/// Streaming 64-bit FNV-1a.
///
/// The whole state is the running `u64`, so a finished value can be
/// resumed with [`Fnv::resume`] and folding continues exactly as if the
/// stream had never been split. [`crate::Program::image_digest`] relies on
/// that: content hashes resume from a program's memoized image digest
/// instead of re-folding the image.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hash (the FNV-1a offset basis).
    #[inline]
    pub fn new() -> Fnv {
        Fnv(Fnv::OFFSET)
    }

    /// Continues a stream whose state so far was `state` (a value
    /// [`Fnv::finish`] returned).
    #[inline]
    pub fn resume(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Folds `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv::PRIME);
        }
    }

    /// Folds one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Folds a `u64` as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot hash of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.bytes(bytes);
        h.finish()
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(Fnv::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn resuming_a_split_stream_equals_one_pass() {
        let mut head = Fnv::new();
        head.bytes(b"foo");
        let mut tail = Fnv::resume(head.finish());
        tail.bytes(b"bar");
        assert_eq!(tail.finish(), Fnv::hash(b"foobar"));
    }
}

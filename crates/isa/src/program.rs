//! Loadable program images.

use std::sync::OnceLock;

use crate::{Addr, DecodeError, Fnv, Inst, INST_BYTES};

/// A loadable program image: an encoded text segment, an initialized data
/// segment, an entry point, and an initial stack pointer.
///
/// Programs are produced by the assembler ([`crate::Asm::finish`]) and
/// consumed by the functional simulator, which copies both segments into
/// simulated memory.
///
/// Equality compares the image only, never whether
/// [`Program::image_digest`] has been computed yet.
#[derive(Clone, Debug)]
pub struct Program {
    pub(crate) text_base: Addr,
    pub(crate) text: Vec<u32>,
    pub(crate) data_base: Addr,
    pub(crate) data: Vec<u8>,
    pub(crate) entry: Addr,
    pub(crate) stack_top: Addr,
    /// Memoized [`Program::image_digest`]; cleared by [`Program::data_mut`].
    pub(crate) digest: OnceLock<u64>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.text_base == other.text_base
            && self.text == other.text
            && self.data_base == other.data_base
            && self.data == other.data
            && self.entry == other.entry
            && self.stack_top == other.stack_top
    }
}

impl Eq for Program {}

impl Program {
    /// Base address of the text segment.
    #[inline]
    pub fn text_base(&self) -> Addr {
        self.text_base
    }

    /// The encoded instruction words.
    #[inline]
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// Text segment length in bytes.
    #[inline]
    pub fn text_len(&self) -> u64 {
        self.text.len() as u64 * INST_BYTES
    }

    /// First address past the text segment.
    #[inline]
    pub fn text_end(&self) -> Addr {
        self.text_base + self.text_len()
    }

    /// Base address of the initialized data segment.
    #[inline]
    pub fn data_base(&self) -> Addr {
        self.data_base
    }

    /// The initialized data bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the initialized data bytes. Generators use this to
    /// patch text addresses (e.g. jump tables) into the data image after
    /// assembly resolves labels. Forgets the memoized image digest.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.digest.take();
        &mut self.data
    }

    /// Entry-point address.
    #[inline]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Initial stack-pointer value (stack grows down).
    #[inline]
    pub fn stack_top(&self) -> Addr {
        self.stack_top
    }

    /// The FNV-1a state after folding the whole image: text base, text
    /// length and words (little-endian), data base, data length and bytes,
    /// entry, and stack top, in that order. Content addresses resume from
    /// it (see [`Fnv::resume`]) instead of re-folding the image.
    ///
    /// Computed on first call and memoized: byte-at-a-time FNV over mcf's
    /// 6 MiB data segment took 9.8 ms on a 2-vCPU x86-64 host, which every
    /// later call (every repeat submission of a shared program) skips.
    pub fn image_digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Fnv::new();
            h.u64(self.text_base);
            h.u64(self.text.len() as u64);
            for &w in &self.text {
                h.bytes(&w.to_le_bytes());
            }
            h.u64(self.data_base);
            h.u64(self.data.len() as u64);
            h.bytes(&self.data);
            h.u64(self.entry);
            h.u64(self.stack_top);
            h.finish()
        })
    }

    /// Returns `true` if `addr` lies inside the text segment.
    #[inline]
    pub fn contains_text(&self, addr: Addr) -> bool {
        addr >= self.text_base && addr < self.text_end()
    }

    /// Decodes the instruction at `addr`, if `addr` is a valid, aligned text
    /// address.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stored word at `addr` does not decode;
    /// returns `Ok(None)` if `addr` is outside the text segment or
    /// misaligned.
    pub fn inst_at(&self, addr: Addr) -> Result<Option<Inst>, DecodeError> {
        if !self.contains_text(addr) || !addr.is_multiple_of(INST_BYTES) {
            return Ok(None);
        }
        let idx = ((addr - self.text_base) / INST_BYTES) as usize;
        Inst::decode(self.text[idx]).map(Some)
    }

    /// Disassembles the whole text segment, one `(addr, inst)` per line.
    /// Undecodable words are rendered as `.word`.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, &word) in self.text.iter().enumerate() {
            let addr = self.text_base + i as u64 * INST_BYTES;
            match Inst::decode(word) {
                Ok(inst) => {
                    let _ = writeln!(out, "{addr:#010x}: {inst}");
                }
                Err(_) => {
                    let _ = writeln!(out, "{addr:#010x}: .word {word:#010x}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Reg};

    fn tiny_program() -> Program {
        let mut a = crate::Asm::new();
        a.addi(Reg::T0, Reg::ZERO, 7);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn segment_geometry() {
        let p = tiny_program();
        assert_eq!(p.text_len(), 8);
        assert_eq!(p.text_end(), p.text_base() + 8);
        assert!(p.contains_text(p.text_base()));
        assert!(p.contains_text(p.text_base() + 4));
        assert!(!p.contains_text(p.text_base() + 8));
        assert_eq!(p.entry(), p.text_base());
    }

    #[test]
    fn inst_at_decodes() {
        let p = tiny_program();
        let i0 = p.inst_at(p.text_base()).unwrap().unwrap();
        assert_eq!(i0.op, Op::Addi);
        assert_eq!(i0.imm, 7);
        // Misaligned and out-of-range return None.
        assert_eq!(p.inst_at(p.text_base() + 2).unwrap(), None);
        assert_eq!(p.inst_at(p.text_end()).unwrap(), None);
    }

    fn data_program(bytes: &[u8]) -> Program {
        let mut a = crate::Asm::new();
        a.data_bytes(bytes);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn image_digest_tracks_data_mut_and_ignores_equality() {
        let mut p = data_program(&[1, 2, 3, 4]);
        let fresh_clone = p.clone();
        let before = p.image_digest();
        // A clone taken before or after the digest is memoized compares
        // equal either way, and agrees on the digest.
        assert_eq!(p, fresh_clone);
        assert_eq!(p.clone(), fresh_clone);
        assert_eq!(p.clone().image_digest(), before);

        p.data_mut()[2] ^= 0xff;
        let after = p.image_digest();
        assert_ne!(after, before, "a flipped data byte must move the digest");
        let rebuilt = data_program(&[1, 2, 3 ^ 0xff, 4]);
        assert_eq!(rebuilt, p);
        assert_eq!(rebuilt.image_digest(), after);
        assert_ne!(p, fresh_clone);
        assert_eq!(fresh_clone.image_digest(), before);
    }

    #[test]
    fn disassemble_lists_every_word() {
        let p = tiny_program();
        let dis = p.disassemble();
        assert_eq!(dis.lines().count(), 2);
        assert!(dis.contains("addi x5, x0, 7"));
        assert!(dis.contains("halt"));
    }
}

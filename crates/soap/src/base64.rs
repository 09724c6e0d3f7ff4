//! Base64 codec (RFC 4648, standard alphabet, `=` padding).
//!
//! Used for `xsd:base64Binary` SOAP values, which carry every payload
//! byte of the chunked SRB transfer path (E5, E13). Implemented in-tree
//! like everything else in the stack.
//!
//! [`Base64Encoder`] and [`Base64Decoder`] carry the codec across
//! arbitrary input splits, and [`encode`]/[`decode`] are one-call wrappers
//! over them. Two block kernels do the bulk of the work:
//!
//! * On x86-64 CPUs with AVX2 (checked at run time), a vector kernel after
//!   Muła and Lemire ("Faster Base64 Encoding and Decoding Using AVX2
//!   Instructions", ACM TWEB 2018) encodes 24 bytes into 32 chars per step,
//!   and decodes 32 chars into 24 bytes per step once a vector check shows
//!   all 32 are alphabet digits.
//! * A table-driven kernel is the only one on other CPUs, and takes every
//!   tail and every 32-char block the vector check rejects. A 256-entry
//!   table maps every byte to its digit value (0..=63) or to a class:
//!   whitespace, pad or invalid. Decoding turns clean 8- and 4-char blocks
//!   straight into 6 or 3 bytes, reading the same table with each digit
//!   pre-shifted to its place in a quad and every class flagged in the top
//!   byte, so OR-ing four lookups yields a quad's bits or shows it is not
//!   clean. The per-char state machine runs only where a block holds
//!   whitespace, padding or an invalid byte. Encoding turns whole 6- and
//!   3-byte groups into 8 and 4 chars, one table lookup per pair of chars,
//!   and appends them 256 chars at a time.
//!
//! Both kernels produce the same text and accept the same input: digits in
//! whole 4-char quads, `=` padding (at most two) only in the final quad,
//! and ASCII whitespace anywhere, including after the final quad. Trailing
//! bits of a padded quad are ignored.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Decode-table class of ASCII whitespace (exactly the bytes
/// [`u8::is_ascii_whitespace`] accepts).
const WS: u8 = 0x40;
/// Decode-table class of `=`.
const PAD: u8 = 0x41;
/// Decode-table class of every other byte outside the alphabet.
const BAD: u8 = 0x80;
/// Set in every class, clear in every digit value.
const NOT_DIGIT: u8 = WS | BAD;

/// A byte's digit value (0..=63) or class.
const fn classify(byte: u8) -> u8 {
    match byte {
        b'A'..=b'Z' => byte - b'A',
        b'a'..=b'z' => byte - b'a' + 26,
        b'0'..=b'9' => byte - b'0' + 52,
        b'+' => 62,
        b'/' => 63,
        b'=' => PAD,
        b' ' | b'\t' | b'\n' | b'\x0C' | b'\r' => WS,
        _ => BAD,
    }
}

/// Every byte's digit value or class: the table the per-char state
/// machine reads.
static DECODE: [u8; 256] = {
    let mut table = [BAD; 256];
    let mut rest: &mut [u8] = &mut table;
    let mut byte = 0u8;
    while let [slot, tail @ ..] = rest {
        *slot = classify(byte);
        byte = byte.wrapping_add(1);
        rest = tail;
    }
    table
};

/// The same table for the block path, with each digit pre-shifted to its
/// place in a quad's 24 bits. A non-digit sets the top byte, so OR-ing a
/// quad's four entries yields its bits, or a value `>= 1 << 24`.
const fn quad_place(shift: u32) -> [u32; 256] {
    let mut table = [0; 256];
    let mut rest: &mut [u32] = &mut table;
    let mut byte = 0u8;
    while let [slot, tail @ ..] = rest {
        let value = classify(byte);
        *slot = if value & NOT_DIGIT != 0 {
            0xFF00_0000
        } else {
            (value as u32) << shift
        };
        byte = byte.wrapping_add(1);
        rest = tail;
    }
    table
}
static PLACE: [[u32; 256]; 4] = [quad_place(18), quad_place(12), quad_place(6), quad_place(0)];

/// Every 12-bit value as its two digits, so encoding takes one lookup
/// per two output chars.
static DIGIT_PAIRS: [[u8; 2]; 4096] = {
    let mut table = [[0; 2]; 4096];
    let mut rest: &mut [[u8; 2]] = &mut table;
    let mut high: &[u8] = ALPHABET;
    while let [h, high_tail @ ..] = high {
        let mut low: &[u8] = ALPHABET;
        while let [l, low_tail @ ..] = low {
            if let [slot, tail @ ..] = rest {
                *slot = [*h, *l];
                rest = tail;
            }
            low = low_tail;
        }
        high = high_tail;
    }
    table
};

/// Encoder groups staged per output write: 32 × 8 chars.
const ENCODE_BLOCK: usize = 32;

/// `data` without its first `n` bytes (empty if it is shorter).
fn skip(data: &[u8], n: usize) -> &[u8] {
    data.get(n..).unwrap_or_default()
}

fn class(byte: u8) -> u8 {
    DECODE.get(usize::from(byte)).copied().unwrap_or(BAD)
}

/// The two digits for the low 12 bits of `n`.
fn digit_pair(n: u64) -> [u8; 2] {
    DIGIT_PAIRS
        .get((n & 0xFFF) as usize)
        .copied()
        .unwrap_or([b'='; 2])
}

fn encode3([a, b, c]: [u8; 3]) -> [u8; 4] {
    let n = u64::from(u32::from_be_bytes([0, a, b, c]));
    let ([d0, d1], [d2, d3]) = (digit_pair(n >> 12), digit_pair(n));
    [d0, d1, d2, d3]
}

fn encode6([a, b, c, d, e, f]: [u8; 6]) -> [u8; 8] {
    let n = u64::from_be_bytes([0, 0, a, b, c, d, e, f]);
    let ([d0, d1], [d2, d3]) = (digit_pair(n >> 36), digit_pair(n >> 24));
    let ([d4, d5], [d6, d7]) = (digit_pair(n >> 12), digit_pair(n));
    [d0, d1, d2, d3, d4, d5, d6, d7]
}

/// Append encoder output to `out`. The digits come from `ALPHABET` and
/// `=`, so they are always ASCII and the UTF-8 check cannot fail; it is
/// a word-at-a-time scan, far cheaper than pushing char by char.
fn push_digits(out: &mut String, digits: &[u8]) {
    if let Ok(text) = std::str::from_utf8(digits) {
        out.push_str(text);
    }
}

/// Encode every whole 3-byte group of `data` onto `out`; return the
/// 0..=2 bytes left over.
fn encode_groups<'a>(data: &'a [u8], out: &mut String) -> &'a [u8] {
    let (pairs, rest) = data.as_chunks::<6>();
    let mut block = [[0u8; 8]; ENCODE_BLOCK];
    for run in pairs.chunks(ENCODE_BLOCK) {
        for (slot, pair) in block.iter_mut().zip(run) {
            *slot = encode6(*pair);
        }
        let staged = block.get(..run.len()).unwrap_or_default();
        push_digits(out, staged.as_flattened());
    }
    match rest.split_first_chunk::<3>() {
        Some((group, tail)) => {
            push_digits(out, &encode3(*group));
            tail
        }
        None => rest,
    }
}

fn place(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(u32::MAX)
}

/// One quad's 24 bits, or a value `>= 1 << 24` if any char is not a digit.
fn quad_bits([a, b, c, d]: [u8; 4]) -> u32 {
    let [p0, p1, p2, p3] = &PLACE;
    place(p0, a) | place(p1, b) | place(p2, c) | place(p3, d)
}

/// Decode clean 8- and 4-char blocks from the front of `text`, which
/// must start on a quad boundary; return the rest from the first block
/// that is not all digits.
fn decode_groups<'a>(text: &'a [u8], out: &mut Vec<u8>) -> &'a [u8] {
    let mut rest = text;
    while let Some((&[a, b, c, d, e, f, g, h], tail)) = rest.split_first_chunk::<8>() {
        let (n0, n1) = (quad_bits([a, b, c, d]), quad_bits([e, f, g, h]));
        if (n0 | n1) >> 24 != 0 {
            break;
        }
        let ([_, x0, x1, x2], [_, y0, y1, y2]) = (n0.to_be_bytes(), n1.to_be_bytes());
        out.extend_from_slice(&[x0, x1, x2, y0, y1, y2]);
        rest = tail;
    }
    if let Some((quad, tail)) = rest.split_first_chunk::<4>() {
        let n = quad_bits(*quad);
        if n >> 24 == 0 {
            let [_, x0, x1, x2] = n.to_be_bytes();
            out.extend_from_slice(&[x0, x1, x2]);
            rest = tail;
        }
    }
    rest
}

/// Incremental base64 encoder: feed input in arbitrary slices (down to
/// one byte) and get exactly the text the one-shot [`encode`] would
/// produce. The only state between calls is a ≤2-byte carry, so the
/// chunked transfer path (E13) encodes a payload of any size with O(chunk)
/// memory: each `update` writes into a caller-owned scratch `String` that
/// is reused across chunks.
#[derive(Debug, Default, Clone)]
pub struct Base64Encoder {
    carry: [u8; 2],
    carry_len: u8,
}

impl Base64Encoder {
    /// A fresh encoder (no pending carry).
    pub fn new() -> Base64Encoder {
        Base64Encoder::default()
    }

    /// Bytes held over from previous `update` calls (0..=2).
    pub fn pending(&self) -> usize {
        usize::from(self.carry_len)
    }

    /// Encode `data`, appending complete 4-char groups to `out` and
    /// carrying up to 2 trailing bytes for the next call.
    pub fn update(&mut self, data: &[u8], out: &mut String) {
        let mut rest = data;
        // Top the carry up to a full 3-byte group first.
        while self.carry_len > 0 {
            let Some((&b, tail)) = rest.split_first() else {
                return;
            };
            rest = tail;
            let [c0, c1] = self.carry;
            if self.carry_len == 1 {
                self.carry = [c0, b];
                self.carry_len = 2;
            } else {
                push_digits(out, &encode3([c0, c1, b]));
                self.carry_len = 0;
            }
        }
        out.reserve(rest.len() / 3 * 4);
        #[cfg(target_arch = "x86_64")]
        let rest = skip(rest, vector::run(vector::Blocks::Encode(rest, out)));
        match *encode_groups(rest, out) {
            [b0] => {
                self.carry = [b0, 0];
                self.carry_len = 1;
            }
            [b0, b1] => {
                self.carry = [b0, b1];
                self.carry_len = 2;
            }
            _ => {}
        }
    }

    /// Flush the final (possibly padded) group. The encoder is reusable
    /// afterwards.
    pub fn finish(&mut self, out: &mut String) {
        let [c0, c1] = self.carry;
        match self.carry_len {
            1 => {
                let [d0, d1, _, _] = encode3([c0, 0, 0]);
                push_digits(out, &[d0, d1, b'=', b'=']);
            }
            2 => {
                let [d0, d1, d2, _] = encode3([c0, c1, 0]);
                push_digits(out, &[d0, d1, d2, b'=']);
            }
            _ => {}
        }
        self.carry_len = 0;
    }
}

/// Incremental base64 decoder: feed text in arbitrary slices (whitespace
/// tolerated, splits anywhere — including inside a 4-char quad) and get
/// exactly the bytes the one-shot [`decode`] would produce. State between
/// calls is a ≤3-digit quad carry plus a padding flag.
#[derive(Debug, Default, Clone)]
pub struct Base64Decoder {
    /// Digit bits of the current quad, first digit most significant.
    acc: u32,
    /// Digits in the current quad.
    digits: u8,
    /// Padding characters seen in the current quad (must be trailing).
    pad: u8,
    /// A padded quad was completed: any further non-whitespace is malformed.
    finished: bool,
}

impl Base64Decoder {
    /// A fresh decoder.
    pub fn new() -> Base64Decoder {
        Base64Decoder::default()
    }

    /// Decode `text`, appending bytes to `out`. Returns `None` (leaving
    /// the decoder poisoned for this stream) on malformed input.
    pub fn update(&mut self, text: &str, out: &mut Vec<u8>) -> Option<()> {
        let mut rest = text.as_bytes();
        out.reserve((usize::from(self.digits) + rest.len()) / 4 * 3);
        loop {
            if self.digits == 0 && self.pad == 0 && !self.finished {
                #[cfg(target_arch = "x86_64")]
                {
                    rest = skip(rest, vector::run(vector::Blocks::Decode(rest, out)));
                }
                rest = decode_groups(rest, out);
            }
            let Some((&byte, tail)) = rest.split_first() else {
                return Some(());
            };
            rest = tail;
            self.step(byte, out)?;
        }
    }

    /// The per-char state machine, for the bytes the block path stops at.
    fn step(&mut self, byte: u8, out: &mut Vec<u8>) -> Option<()> {
        match class(byte) {
            WS => return Some(()),
            _ if self.finished => return None, // data after a padded final quad
            PAD if self.digits < 2 => return None, // a quad carries at most 2 pads
            PAD => self.pad += 1,
            // Not in the alphabet, or a digit after padding within a quad.
            value if value & NOT_DIGIT != 0 || self.pad > 0 => return None,
            value => {
                self.acc = (self.acc << 6) | u32::from(value);
                self.digits += 1;
            }
        }
        if self.digits + self.pad == 4 {
            let [_, b0, b1, b2] = (self.acc << (6 * u32::from(self.pad))).to_be_bytes();
            match self.pad {
                0 => out.extend_from_slice(&[b0, b1, b2]),
                1 => out.extend_from_slice(&[b0, b1]),
                _ => out.push(b0),
            }
            self.finished = self.pad > 0;
            self.acc = 0;
            self.digits = 0;
            self.pad = 0;
        }
        Some(())
    }

    /// Declare end of input: fails if a quad is left incomplete. The
    /// decoder is reusable afterwards.
    pub fn finish(&mut self) -> Option<()> {
        let clean = self.digits == 0 && self.pad == 0;
        *self = Base64Decoder::default();
        clean.then_some(())
    }
}

/// The block kernel this CPU runs: `"avx2"` where the vector kernel is
/// available, `"scalar"` (the table kernel alone) elsewhere. Benchmarks
/// record it beside the codec's timings.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if vector::available() {
        return "avx2";
    }
    "scalar"
}

/// Encode bytes to base64 text.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    let mut enc = Base64Encoder::new();
    enc.update(data, &mut out);
    enc.finish(&mut out);
    out
}

/// Decode base64 text to bytes: one [`Base64Decoder`] pass, with the same
/// accept set. Whitespace is tolerated anywhere; `=` padding only in the
/// final quad. Returns `None` on malformed input.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut dec = Base64Decoder::new();
    dec.update(text, &mut out)?;
    dec.finish()?;
    Some(out)
}

/// The AVX2 block kernel. Every function here but [`vector::run`] and
/// [`vector::available`] needs AVX2, which `run` checks before it calls in.
/// `unsafe` is confined to that call and to the load and store helpers.
#[cfg(target_arch = "x86_64")]
mod vector {
    use std::arch::x86_64::*;

    /// One direction's input and output for [`run`].
    pub(super) enum Blocks<'a, 'o> {
        /// Encode 24-byte blocks of the input onto the string.
        Encode(&'a [u8], &'o mut String),
        /// Decode 32-char blocks of the input, which must start on a quad
        /// boundary, into the vector.
        Decode(&'a [u8], &'o mut Vec<u8>),
    }

    /// Does this CPU have AVX2?
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("avx2")
    }

    /// Run vector blocks from the front of the input and return how many
    /// input bytes they took: encoding takes 24 bytes per step while 32
    /// can be loaded; decoding takes 32 chars per step and stops at the
    /// first block that is not all alphabet digits. Takes nothing on a CPU
    /// without AVX2.
    pub(super) fn run(blocks: Blocks<'_, '_>) -> usize {
        if !available() {
            return 0;
        }
        // SAFETY: `run_avx2` requires AVX2 and nothing else, and
        // `available()` has just found it on this CPU.
        unsafe { run_avx2(blocks) }
    }

    #[target_feature(enable = "avx2")]
    fn run_avx2(blocks: Blocks<'_, '_>) -> usize {
        match blocks {
            Blocks::Encode(data, out) => encode(data, out),
            Blocks::Decode(text, out) => decode(text, out),
        }
    }

    /// A 32-byte window of `bytes`, loaded.
    #[target_feature(enable = "avx2")]
    fn load(bytes: &[u8; 32]) -> __m256i {
        // SAFETY: `bytes` is 32 readable bytes, all an unaligned 32-byte
        // load reads.
        unsafe { _mm256_loadu_si256(bytes.as_ptr().cast()) }
    }

    /// Append the 32 bytes of `chars` to `out` if every one is ASCII;
    /// return false, appending nothing, if one is not.
    #[target_feature(enable = "avx2")]
    fn push_ascii(out: &mut String, chars: __m256i) -> bool {
        if _mm256_movemask_epi8(chars) != 0 {
            return false;
        }
        out.reserve(32);
        // SAFETY: `reserve` left at least 32 bytes of capacity past the
        // string's end, so the unaligned 32-byte store writes only memory
        // the string owns, and the new length covers exactly the bytes it
        // wrote. No byte has its top bit set (the movemask above is zero),
        // so every one is ASCII and the string stays UTF-8.
        unsafe {
            let bytes = out.as_mut_vec();
            let end = bytes.len();
            _mm256_storeu_si256(bytes.as_mut_ptr().add(end).cast(), chars);
            bytes.set_len(end + 32);
        }
        true
    }

    /// Append the low 24 bytes of `packed` to `out`.
    #[target_feature(enable = "avx2")]
    fn push24(out: &mut Vec<u8>, packed: __m256i) {
        let (low, high) = (
            _mm256_castsi256_si128(packed),
            _mm256_extracti128_si256::<1>(packed),
        );
        out.reserve(24);
        // SAFETY: `reserve` left at least 24 bytes of capacity past the
        // vector's end. The two unaligned stores write bytes 0..16 and
        // 16..24 past it, only memory the vector owns, and the new length
        // covers exactly those 24 bytes.
        unsafe {
            let end = out.len();
            let at = out.as_mut_ptr().add(end);
            _mm_storeu_si128(at.cast(), low);
            _mm_storel_epi64(at.add(16).cast(), high);
            out.set_len(end + 24);
        }
    }

    #[target_feature(enable = "avx2")]
    fn encode(data: &[u8], out: &mut String) -> usize {
        let mut done = 0;
        while let Some(window) = super::skip(data, done).first_chunk::<32>() {
            if !push_ascii(out, encode_block(load(window))) {
                break;
            }
            done += 24;
        }
        done
    }

    #[target_feature(enable = "avx2")]
    fn decode(text: &[u8], out: &mut Vec<u8>) -> usize {
        let mut done = 0;
        while let Some(block) = super::skip(text, done).first_chunk::<32>() {
            let Some(bytes) = decode_block(load(block)) else {
                break;
            };
            push24(out, bytes);
            done += 32;
        }
        done
    }

    /// The 32 chars of the first 24 bytes of a 32-byte window.
    #[target_feature(enable = "avx2")]
    fn encode_block(window: __m256i) -> __m256i {
        // Give each 128-bit lane 12 input bytes at its bytes 0..12: lane 0
        // keeps window bytes 0..16, lane 1 takes bytes 12..28.
        let v = _mm256_permutevar8x32_epi32(window, _mm256_setr_epi32(0, 1, 2, 3, 3, 4, 5, 6));
        // Each 3-byte group [b0 b1 b2] becomes the 32-bit word
        // [b1 b0 b2 b1], so the four 6-bit fields sit in 16-bit halves.
        let v = _mm256_shuffle_epi8(
            v,
            _mm256_setr_epi8(
                1, 0, 2, 1, 4, 3, 5, 4, 7, 6, 8, 7, 10, 9, 11, 10, //
                1, 0, 2, 1, 4, 3, 5, 4, 7, 6, 8, 7, 10, 9, 11, 10,
            ),
        );
        // Shift each field to the bottom of its own byte: fields 0 and 2
        // right with a high multiply, fields 1 and 3 left with a low one.
        let high = _mm256_mulhi_epu16(
            _mm256_and_si256(v, _mm256_set1_epi32(0x0FC0_FC00)),
            _mm256_set1_epi32(0x0400_0040),
        );
        let low = _mm256_mullo_epi16(
            _mm256_and_si256(v, _mm256_set1_epi32(0x003F_03F0)),
            _mm256_set1_epi32(0x0100_0010),
        );
        let sextets = _mm256_or_si256(high, low);
        // Digit value to char: add the offset of its alphabet range. The
        // table index is 0 for A-Z, 1 for a-z, 2..=11 for 0-9, 12 for `+`
        // and 13 for `/`.
        let offsets = _mm256_setr_epi8(
            65, 71, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -19, -16, 0, 0, //
            65, 71, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -19, -16, 0, 0,
        );
        let index = _mm256_sub_epi8(
            _mm256_subs_epu8(sextets, _mm256_set1_epi8(51)),
            _mm256_cmpgt_epi8(sextets, _mm256_set1_epi8(25)),
        );
        _mm256_add_epi8(sextets, _mm256_shuffle_epi8(offsets, index))
    }

    /// The 24 bytes of 32 chars, packed into the low 24 bytes; `None` if
    /// a char is not an alphabet digit (whitespace and `=` included).
    #[target_feature(enable = "avx2")]
    fn decode_block(chars: __m256i) -> Option<__m256i> {
        // A char is a digit when the class bits its low nibble allows and
        // the ones its high nibble allows do not meet: each high nibble
        // picks one bit (0x10 for nibbles with no digits at all), and each
        // low nibble sets the bit of every high nibble it is not a digit
        // under.
        let low_classes = _mm256_setr_epi8(
            0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, //
            0x11, 0x11, 0x13, 0x1A, 0x1B, 0x1B, 0x1B, 0x1A, //
            0x15, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, //
            0x11, 0x11, 0x13, 0x1A, 0x1B, 0x1B, 0x1B, 0x1A,
        );
        let high_classes = _mm256_setr_epi8(
            0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08, //
            0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, //
            0x10, 0x10, 0x01, 0x02, 0x04, 0x08, 0x04, 0x08, //
            0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x10,
        );
        let slash = _mm256_set1_epi8(0x2F);
        // The shift pulls bits of the next byte into bits 4..8; masking
        // with 0x2F clears bit 7 (so the shuffles below look the value
        // up, not zero it) and leaves only bit 5, which a shuffle index
        // ignores.
        let high_nibbles = _mm256_and_si256(_mm256_srli_epi32::<4>(chars), slash);
        let low_nibbles = _mm256_and_si256(chars, slash);
        let high = _mm256_shuffle_epi8(high_classes, high_nibbles);
        let low = _mm256_shuffle_epi8(low_classes, low_nibbles);
        if _mm256_testz_si256(low, high) == 0 {
            return None;
        }
        // Char to digit value: add the offset of its range, indexed by
        // high nibble, with `/` moved to index 1 so it does not share
        // `+`'s.
        let offsets = _mm256_setr_epi8(
            0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0, //
            0, 16, 19, 4, -65, -65, -71, -71, 0, 0, 0, 0, 0, 0, 0, 0,
        );
        let index = _mm256_add_epi8(_mm256_cmpeq_epi8(chars, slash), high_nibbles);
        let sextets = _mm256_add_epi8(chars, _mm256_shuffle_epi8(offsets, index));
        // Merge digit pairs into 12-bit halves, halves into 24-bit words,
        // then pack each lane's four words into 12 bytes and the two
        // lanes' 12 into the low 24.
        let pairs = _mm256_maddubs_epi16(sextets, _mm256_set1_epi32(0x0140_0140));
        let words = _mm256_madd_epi16(pairs, _mm256_set1_epi32(0x0001_1000));
        let lanes = _mm256_shuffle_epi8(
            words,
            _mm256_setr_epi8(
                2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, -1, -1, -1, -1, //
                2, 1, 0, 6, 5, 4, 10, 9, 8, 14, 13, 12, -1, -1, -1, -1,
            ),
        );
        Some(_mm256_permutevar8x32_epi32(
            lanes,
            _mm256_setr_epi32(0, 1, 2, 4, 5, 6, 7, 7),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("").unwrap(), b"");
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode("Zm9").is_none()); // bad length
        assert!(decode("Zm!v").is_none()); // bad char
        assert!(decode("Z===").is_none()); // over-padded
        assert!(decode("Z=m9").is_none()); // interior padding
    }

    #[test]
    fn padding_only_in_the_final_quad() {
        assert!(decode("Zm9vYg==Zm8=").is_none());
        assert!(decode("Zg==Zg==").is_none());
        assert!(decode("Zm8=Zm9v").is_none());
        assert!(decode("Zm8=\n Zm9vYmFy").is_none());
        // Whitespace after the final quad is still fine.
        assert_eq!(decode("Zm9vYg==\r\n ").unwrap(), b"foob");
    }

    #[test]
    fn table_classifies_every_byte() {
        for byte in 0..=255u8 {
            let want = match ALPHABET.iter().position(|&d| d == byte) {
                Some(value) => value as u8,
                None if byte == b'=' => PAD,
                None if byte.is_ascii_whitespace() => WS,
                None => BAD,
            };
            assert_eq!(class(byte), want, "byte {byte:#04x}");
            for (table, shift) in PLACE.iter().zip([18, 12, 6, 0]) {
                let clean = want & NOT_DIGIT == 0;
                let placed = place(table, byte);
                assert_eq!(placed >> 24 == 0, clean, "byte {byte:#04x}");
                if clean {
                    assert_eq!(placed, u32::from(want) << shift, "byte {byte:#04x}");
                }
            }
        }
        for (n, pair) in DIGIT_PAIRS.iter().enumerate() {
            assert_eq!(*pair, [ALPHABET[n >> 6], ALPHABET[n & 63]], "pair {n}");
        }
    }

    #[test]
    fn block_path_and_state_machine_agree_at_every_alignment() {
        // A clean run decoded through the 8- and 4-char blocks, then the
        // same run with a space at each position, which forces the state
        // machine through the rest of that quad.
        let data: Vec<u8> = (0u8..=90).collect();
        let text = encode(&data);
        assert_eq!(decode(&text).unwrap(), data);
        for at in 0..=text.len() {
            let spaced = format!("{} {}", &text[..at], &text[at..]);
            assert_eq!(decode(&spaced).unwrap(), data, "space at {at}");
        }
    }

    /// Seeded bytes, so every length gets its own contents.
    fn seeded(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    /// Reference encoder for the kernel tests: each 3-byte group's digits
    /// read straight out of `ALPHABET`, then `=` padding. No tables.
    fn reference_encode(data: &[u8]) -> String {
        let mut out = String::new();
        for group in data.chunks(3) {
            let n = (group.iter())
                .zip([16, 8, 0])
                .fold(0u32, |n, (&b, shift)| n | u32::from(b) << shift);
            for i in 0..4 {
                out.push(match i <= group.len() {
                    true => char::from(ALPHABET[(n >> (18 - 6 * i) & 63) as usize]),
                    false => '=',
                });
            }
        }
        out
    }

    /// Reference decoder for the kernel tests: the per-char state machine
    /// alone, appending to `out`.
    fn state_machine(text: &[u8], mut out: Vec<u8>) -> Option<Vec<u8>> {
        let mut dec = Base64Decoder::new();
        for &byte in text {
            dec.step(byte, &mut out)?;
        }
        dec.finish()?;
        Some(out)
    }

    type EncodeKernel = fn(&[u8], &mut String) -> usize;
    type DecodeKernel = fn(&[u8], &mut Vec<u8>) -> usize;

    /// Each block kernel this CPU runs, called directly; each call returns
    /// how many input bytes the kernel took.
    fn kernels() -> Vec<(&'static str, EncodeKernel, DecodeKernel)> {
        let mut kernels: Vec<(&'static str, EncodeKernel, DecodeKernel)> = vec![(
            "scalar",
            |data, out| data.len() - encode_groups(data, out).len(),
            |text, out| text.len() - decode_groups(text, out).len(),
        )];
        #[cfg(target_arch = "x86_64")]
        if vector::available() {
            kernels.push((
                "avx2",
                |data, out| vector::run(vector::Blocks::Encode(data, out)),
                |text, out| vector::run(vector::Blocks::Decode(text, out)),
            ));
        }
        kernels
    }

    /// Bytes `kernel` takes of `len` to encode: whole groups for the table
    /// kernel, 24-byte steps while 32 can be loaded for the vector one.
    fn encode_take(kernel: &str, len: usize) -> usize {
        match kernel {
            "avx2" => len.saturating_sub(8) / 24 * 24,
            _ => len / 3 * 3,
        }
    }

    /// Chars `kernel` takes of text whose first `clean` chars are digits:
    /// whole quads for the table kernel, whole 32-char blocks for the
    /// vector one.
    fn decode_take(kernel: &str, clean: usize) -> usize {
        match kernel {
            "avx2" => clean / 32 * 32,
            _ => clean / 4 * 4,
        }
    }

    #[test]
    fn kernels_match_the_references_at_every_alignment() {
        // Inputs of 4 KiB and more, starting at each offset 0..32 of one
        // buffer so every start address alignment comes up. Each kernel
        // takes all it should, and what it wrote plus the reference on
        // the rest equals the reference on the whole.
        let data = seeded(4096 + 64);
        let mut buf = vec![0u8; 6000];
        for (name, encode_kernel, decode_kernel) in kernels() {
            for align in 0..32 {
                let input = &data[align..4096 + 2 * align];
                let mut out = String::new();
                let took = encode_kernel(input, &mut out);
                assert_eq!(took, encode_take(name, input.len()), "{name} at {align}");
                out.push_str(&reference_encode(&input[took..]));
                assert_eq!(out, reference_encode(input), "{name} encode at {align}");

                let text = reference_encode(input);
                let placed = &mut buf[align..align + text.len()];
                placed.copy_from_slice(text.as_bytes());
                let mut out = Vec::new();
                let took = decode_kernel(placed, &mut out);
                let clean = text.trim_end_matches('=').len();
                assert_eq!(took, decode_take(name, clean), "{name} at {align}");
                let decoded = state_machine(&placed[took..], out);
                assert_eq!(decoded.as_deref(), Some(input), "{name} decode at {align}");
            }
        }
    }

    #[test]
    fn kernels_stop_at_each_non_digit_in_the_first_two_blocks() {
        // Whitespace, `=`, every other byte outside the alphabet and a
        // non-ASCII char, inserted at each position of the first two
        // 32-char blocks. Each kernel takes exactly the clean blocks before
        // the insert, and finishing with the state machine gives what the
        // state machine gives alone, bytes or failure.
        let text = reference_encode(&seeded(96)).into_bytes();
        let mut inserts: Vec<Vec<u8>> = (0..=u8::MAX)
            .filter(|b| !ALPHABET.contains(b))
            .map(|b| vec![b])
            .collect();
        inserts.push("\u{e9}".as_bytes().to_vec());
        for (name, _, decode_kernel) in kernels() {
            for at in 0..64 {
                for insert in &inserts {
                    let input = [&text[..at], insert, &text[at..]].concat();
                    let mut out = Vec::new();
                    let took = decode_kernel(&input, &mut out);
                    assert_eq!(took, decode_take(name, at), "{name}: {insert:?} at {at}");
                    assert_eq!(
                        state_machine(&input[took..], out),
                        state_machine(&input, Vec::new()),
                        "{name}: {insert:?} at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn decoder_splits_inside_a_block_match_one_shot() {
        // Three pieces, cut inside the first three 32-char blocks and a
        // later one: an update can end mid-block or mid-quad, and the next
        // resumes through the state machine before the blocks take over.
        let data = seeded(4096);
        let text = reference_encode(&data);
        for a in (0..96).chain(2000..2040) {
            for b in [a, a + 1, a + 5, a + 31] {
                let mut dec = Base64Decoder::new();
                let mut out = Vec::new();
                for piece in [&text[..a], &text[a..b], &text[b..]] {
                    dec.update(piece, &mut out).unwrap();
                }
                dec.finish().unwrap();
                assert_eq!(out, data, "cuts at {a} and {b}");
            }
        }
    }

    #[test]
    fn round_trip_all_bytes() {
        let data: Vec<u8> = (0u8..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn incremental_encoder_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0u8..=200).collect();
        let expect = encode(&data);
        for split in 0..=data.len() {
            let mut enc = Base64Encoder::new();
            let mut out = String::new();
            enc.update(&data[..split], &mut out);
            enc.update(&data[split..], &mut out);
            enc.finish(&mut out);
            assert_eq!(out, expect, "split at {split}");
        }
        // Byte-at-a-time.
        let mut enc = Base64Encoder::new();
        let mut out = String::new();
        for b in &data {
            enc.update(std::slice::from_ref(b), &mut out);
        }
        enc.finish(&mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn incremental_encoder_is_reusable_after_finish() {
        let mut enc = Base64Encoder::new();
        let mut out = String::new();
        enc.update(b"foob", &mut out);
        assert_eq!(enc.pending(), 1);
        enc.finish(&mut out);
        assert_eq!(out, "Zm9vYg==");
        out.clear();
        enc.update(b"foobar", &mut out);
        enc.finish(&mut out);
        assert_eq!(out, "Zm9vYmFy");
    }

    #[test]
    fn incremental_decoder_matches_one_shot_for_every_split() {
        let data: Vec<u8> = (0u8..=200).collect();
        let text = format!("{}\n", encode(&data)); // trailing whitespace tolerated
        for split in 0..=text.len() {
            let mut dec = Base64Decoder::new();
            let mut out = Vec::new();
            dec.update(&text[..split], &mut out).unwrap();
            dec.update(&text[split..], &mut out).unwrap();
            dec.finish().unwrap();
            assert_eq!(out, data, "split at {split}");
        }
    }

    #[test]
    fn incremental_decoder_rejects_malformed() {
        let feed = |parts: &[&str]| -> Option<Vec<u8>> {
            let mut dec = Base64Decoder::new();
            let mut out = Vec::new();
            for p in parts {
                dec.update(p, &mut out)?;
            }
            dec.finish()?;
            Some(out)
        };
        assert!(feed(&["Zm9"]).is_none()); // truncated quad
        assert!(feed(&["Zm", "!v"]).is_none()); // bad char across a split
        assert!(feed(&["Z=", "=="]).is_none()); // over-padded
        assert!(feed(&["Z=", "m9"]).is_none()); // digit after padding
        assert!(feed(&["Zg==", "Zg=="]).is_none()); // data after final quad
        assert_eq!(feed(&["Zg=", "=", " \n"]).unwrap(), b"f"); // ws after end ok
    }

    #[test]
    fn incremental_decoder_empty_input_is_empty() {
        let mut dec = Base64Decoder::new();
        let mut out = Vec::new();
        dec.update("", &mut out).unwrap();
        dec.update(" \n\t", &mut out).unwrap();
        dec.finish().unwrap();
        assert!(out.is_empty());
    }
}

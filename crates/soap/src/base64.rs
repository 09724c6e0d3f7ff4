//! Base64 codec (RFC 4648, standard alphabet, `=` padding).
//!
//! Used for `xsd:base64Binary` SOAP values, which carry every payload
//! byte of the chunked SRB transfer path (E5, E13). Implemented in-tree
//! like everything else in the stack.
//!
//! One table-driven kernel does all the work. [`Base64Encoder`] and
//! [`Base64Decoder`] carry it across arbitrary input splits, and
//! [`encode`]/[`decode`] are one-call wrappers over them:
//!
//! * A 256-entry table maps every byte to its digit value (0..=63) or to
//!   a class: whitespace, pad or invalid.
//! * Decoding turns clean 8- and 4-char blocks straight into 6 or 3
//!   bytes. The block path reads the same table with each digit
//!   pre-shifted to its place in a quad, and every class flagged in the
//!   top byte, so OR-ing four lookups yields a quad's bits or shows it is
//!   not clean. The per-char state machine runs only where a block holds
//!   whitespace, padding or an invalid byte.
//! * Encoding turns whole 6- and 3-byte groups into 8 and 4 chars, one
//!   table lookup per pair of chars, and appends them 256 chars at a time.
//!
//! The decoder accepts digits in whole 4-char quads, `=` padding (at most
//! two) only in the final quad, and ASCII whitespace anywhere, including
//! after the final quad. Trailing bits of a padded quad are ignored.

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

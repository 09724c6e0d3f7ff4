//! Reference tests for the base64 codec. The one-shot functions and the
//! incremental `Base64Encoder`/`Base64Decoder` share one table-driven
//! kernel, so comparing them with each other would prove nothing. Every
//! test here checks them against a bit-at-a-time reference codec written
//! straight from RFC 4648 §4: no tables, no blocks, no state machine.

use portalws_soap::base64::{self, Base64Decoder, Base64Encoder};
use proptest::prelude::*;

const DIGITS: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Reference encoder: input bits one at a time into 6-bit digits, the
/// last digit zero-filled, then `=` up to a multiple of four chars.
fn ref_encode(data: &[u8]) -> String {
    let mut out = String::new();
    let (mut acc, mut bits) = (0usize, 0);
    for &byte in data {
        for i in (0..8).rev() {
            acc = (acc << 1) | usize::from(byte >> i & 1);
            bits += 1;
            if bits == 6 {
                out.push(char::from(DIGITS[acc]));
                (acc, bits) = (0, 0);
            }
        }
    }
    if bits > 0 {
        out.push(char::from(DIGITS[acc << (6 - bits)]));
    }
    while !out.len().is_multiple_of(4) {
        out.push('=');
    }
    out
}

/// Reference decoder: drop ASCII whitespace; what is left must be whole
/// 4-char quads whose only `=` are one or two at the very end, and every
/// other char a digit. Digit bits are taken one at a time; the partial
/// byte a padded quad leaves over is dropped.
fn ref_decode(text: &str) -> Option<Vec<u8>> {
    let chars: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let pads = chars.iter().rev().take_while(|&&c| c == b'=').count();
    if !chars.len().is_multiple_of(4) || pads > 2 {
        return None;
    }
    let mut out = Vec::new();
    let (mut acc, mut bits) = (0usize, 0);
    for &c in &chars[..chars.len() - pads] {
        let value = DIGITS.iter().position(|&d| d == c)?;
        for i in (0..6).rev() {
            acc = (acc << 1) | (value >> i & 1);
            bits += 1;
            if bits == 8 {
                out.push(acc as u8);
                (acc, bits) = (0, 0);
            }
        }
    }
    Some(out)
}

/// Seeded bytes, so every length gets its own contents.
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Encode through `Base64Encoder`, cut at `cuts` (sorted byte offsets).
fn encode_split(data: &[u8], cuts: &[usize]) -> String {
    let mut enc = Base64Encoder::new();
    let mut out = String::new();
    let mut at = 0;
    for &cut in cuts.iter().chain(std::iter::once(&data.len())) {
        let cut = cut.clamp(at, data.len());
        enc.update(&data[at..cut], &mut out);
        assert!(enc.pending() < 3);
        at = cut;
    }
    enc.finish(&mut out);
    out
}

/// Decode through `Base64Decoder`, cut at `cuts` (sorted byte offsets;
/// a cut inside a multi-byte char moves to the char's end).
fn decode_split(text: &str, cuts: &[usize]) -> Option<Vec<u8>> {
    let mut dec = Base64Decoder::new();
    let mut out = Vec::new();
    let mut at = 0;
    for &cut in cuts.iter().chain(std::iter::once(&text.len())) {
        let mut cut = cut.clamp(at, text.len());
        while !text.is_char_boundary(cut) {
            cut += 1;
        }
        dec.update(&text[at..cut], &mut out)?;
        at = cut;
    }
    dec.finish()?;
    Some(out)
}

/// Both decoder entry points agree with the reference on `text`.
fn assert_decodes_like_reference(text: &str, cuts: &[usize]) {
    let want = ref_decode(text);
    assert_eq!(base64::decode(text), want, "one-shot decode of {text:?}");
    assert_eq!(
        decode_split(text, cuts),
        want,
        "incremental decode of {text:?} cut at {cuts:?}"
    );
}

/// Cut points for splitting `len` bytes into arbitrary contiguous
/// pieces: a sorted list of indices in `0..=len`.
fn splits(len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..=len, 0..8).prop_map(move |mut cuts| {
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    })
}

#[test]
fn reference_codec_matches_rfc4648_vectors() {
    for (plain, text) in [
        ("", ""),
        ("f", "Zg=="),
        ("fo", "Zm8="),
        ("foo", "Zm9v"),
        ("foob", "Zm9vYg=="),
        ("fooba", "Zm9vYmE="),
        ("foobar", "Zm9vYmFy"),
    ] {
        assert_eq!(ref_encode(plain.as_bytes()), text);
        assert_eq!(ref_decode(text).as_deref(), Some(plain.as_bytes()));
    }
}

#[test]
fn every_length_up_to_512_matches_reference() {
    for len in 0..=512 {
        let data = bytes(len, len as u64);
        let text = ref_encode(&data);
        assert_eq!(base64::encode(&data), text, "encode, len {len}");
        assert_eq!(
            encode_split(&data, &[len / 3, len / 2]),
            text,
            "incremental encode, len {len}"
        );
        assert_eq!(base64::decode(&text).as_deref(), Some(&data[..]));
        assert_decodes_like_reference(&text, &[text.len() / 3, text.len() / 2 + 1]);
    }
}

#[test]
fn every_split_inside_the_block_path_matches_reference() {
    // Texts up to 56 chars: seven 8-char blocks. Every single cut, and
    // every pair of cuts within the first two blocks, lands some piece
    // boundary inside an 8-char block or a 4-char quad.
    for len in 0..=40 {
        let data = bytes(len, 7 + len as u64);
        let text = ref_encode(&data);
        for cut in 0..=text.len() {
            assert_eq!(encode_split(&data, &[cut.min(len)]), text);
            assert_eq!(decode_split(&text, &[cut]).as_deref(), Some(&data[..]));
        }
        for a in 0..=16.min(text.len()) {
            for b in a..=16.min(text.len()) {
                assert_eq!(decode_split(&text, &[a, b]).as_deref(), Some(&data[..]));
            }
        }
    }
}

/// Chars that together put every byte a `&str` can hold outside the
/// alphabet, whitespace and `=` in front of the decoder: each ASCII
/// byte, U+0080..=U+00FF (lead bytes 0xC2/0xC3 and every continuation
/// byte), and one char for each remaining lead byte 0xC4..=0xF4.
fn bad_chars() -> Vec<char> {
    let ascii = (0u8..0x80)
        .filter(|b| !DIGITS.contains(b) && !b.is_ascii_whitespace() && *b != b'=')
        .map(char::from);
    let latin1 = (0x80u8..=0xFF).map(char::from);
    let two = (0xC4u32..=0xDF).map(|lead| (lead - 0xC0) << 6);
    let three = (0xE0u32..=0xEF).map(|lead| ((lead - 0xE0) << 12).max(0x800));
    let four = (0xF0u32..=0xF4).map(|lead| ((lead - 0xF0) << 18).max(0x1_0000));
    let multi = two.chain(three).chain(four).filter_map(char::from_u32);
    let chars: Vec<char> = ascii.chain(latin1).chain(multi).collect();
    let mut seen = [false; 256];
    for c in &chars {
        for b in c.to_string().bytes() {
            seen[usize::from(b)] = true;
        }
    }
    for b in 0u8..=0xFF {
        let expected = !(DIGITS.contains(&b)
            || b.is_ascii_whitespace()
            || b == b'='
            || matches!(b, 0xC0 | 0xC1 | 0xF5..=0xFF)); // never in UTF-8
        assert_eq!(seen[usize::from(b)], expected, "byte {b:#04x}");
    }
    chars
}

#[test]
fn every_byte_outside_the_alphabet_is_rejected_everywhere() {
    let text = ref_encode(&bytes(41, 3)); // 56 chars, one pad
    for bad in bad_chars() {
        for at in 0..=text.len() {
            let inserted = format!("{}{bad}{}", &text[..at], &text[at..]);
            assert_eq!(ref_decode(&inserted), None);
            assert_decodes_like_reference(&inserted, &[at]);
            assert_decodes_like_reference(&inserted, &[at + 1]);
            if at < text.len() {
                let replaced = format!("{}{bad}{}", &text[..at], &text[at + 1..]);
                assert_eq!(ref_decode(&replaced), None);
                assert_decodes_like_reference(&replaced, &[at]);
            }
        }
    }
}

#[test]
fn padding_at_every_position_matches_reference() {
    for len in 0..=24 {
        let text = ref_encode(&bytes(len, 11 + len as u64));
        for at in 0..=text.len() {
            for pad in ["=", "=="] {
                let inserted = format!("{}{pad}{}", &text[..at], &text[at..]);
                for cut in [at, at + 1, inserted.len() / 2] {
                    assert_decodes_like_reference(&inserted, &[cut]);
                }
            }
            if at < text.len() {
                for pad in ["=", "=="] {
                    let replaced = format!("{}{pad}{}", &text[..at], &text[at + 1..]);
                    assert_decodes_like_reference(&replaced, &[at]);
                }
            }
        }
    }
}

proptest! {
    /// Encoding in arbitrary slicings matches the reference.
    #[test]
    fn incremental_encode_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in splits(512),
    ) {
        let want = ref_encode(&data);
        prop_assert_eq!(encode_split(&data, &cuts), want.clone());
        prop_assert_eq!(base64::encode(&data), want);
    }

    /// One byte at a time is the pathological encoder slicing.
    #[test]
    fn byte_at_a_time_encode_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let cuts: Vec<usize> = (0..data.len()).collect();
        prop_assert_eq!(encode_split(&data, &cuts), ref_encode(&data));
    }

    /// Decoding valid text in arbitrary slicings gives back the bytes.
    #[test]
    fn incremental_decode_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in splits(700),
    ) {
        let text = ref_encode(&data);
        prop_assert_eq!(decode_split(&text, &cuts), Some(data.clone()));
        prop_assert_eq!(base64::decode(&text), Some(data));
    }

    /// Whitespace injected anywhere, in any slicing, is transparent.
    #[test]
    fn whitespace_anywhere_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        inserts in proptest::collection::vec((0usize..400, 0usize..5), 0..24),
        cuts in splits(420),
    ) {
        const WHITESPACE: [char; 5] = [' ', '\t', '\n', '\x0C', '\r'];
        let mut chars: Vec<char> = ref_encode(&data).chars().collect();
        for (at, which) in inserts {
            chars.insert(at % (chars.len() + 1), WHITESPACE[which]);
        }
        let text: String = chars.into_iter().collect();
        prop_assert_eq!(ref_decode(&text), Some(data.clone()));
        prop_assert_eq!(base64::decode(&text), Some(data.clone()));
        prop_assert_eq!(decode_split(&text, &cuts), Some(data));
    }
}

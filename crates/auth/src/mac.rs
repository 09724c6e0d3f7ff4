//! Keyed MAC used as the simulated assertion signature.
//!
//! The paper signs assertions with GSS `wrap`/`unwrap` over Kerberos
//! session keys. Real Kerberos crypto is out of scope for the
//! reproduction (DESIGN.md §3); what the experiments measure is *where*
//! verification happens and what it costs, so the primitive only needs to
//! be keyed, deterministic, and collision-resistant against accidental
//! corruption. This is an HMAC-shaped construction over a 128-bit
//! FNV-1a-style permutation — **not** cryptographically secure, and
//! documented as such.

/// 128-bit FNV-1a over a byte stream, with extra mixing per block.
fn fnv128(data: impl IntoIterator<Item = u8>) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for b in data {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
        h ^= h >> 61;
    }
    h
}

/// HMAC shape: `H(key ‖ opad ‖ H(key ‖ ipad ‖ data))`.
fn mac(key: &str, data: &str) -> u128 {
    let inner = fnv128(
        key.bytes()
            .chain(std::iter::repeat_n(0x36u8, 16))
            .chain(data.bytes()),
    );
    fnv128(
        key.bytes()
            .chain(std::iter::repeat_n(0x5cu8, 16))
            .chain(inner.to_be_bytes()),
    )
}

/// Compute the MAC of `data` under `key`, as lowercase hex.
pub fn sign(key: &str, data: &str) -> String {
    format!("{:032x}", mac(key, data))
}

/// Verify a MAC produced by [`sign`]: the same 32 lowercase hex digits,
/// rendered on the stack rather than into a string. Comparison is over
/// fixed-length hex, so timing variation is not data-dependent in any way
/// that matters for a simulation.
pub fn verify(key: &str, data: &str, mac_hex: &str) -> bool {
    let mac = mac(key, data);
    let mut want = [0u8; 32];
    for (i, hex) in want.iter_mut().enumerate() {
        let nibble = (mac >> (124 - 4 * i)) as u8 & 0xf;
        *hex = match nibble {
            0..=9 => b'0' + nibble,
            _ => b'a' + nibble - 10,
        };
    }
    want == mac_hex.as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(sign("k", "hello"), sign("k", "hello"));
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(sign("k1", "hello"), sign("k2", "hello"));
    }

    #[test]
    fn data_sensitivity() {
        assert_ne!(sign("k", "hello"), sign("k", "hellp"));
        assert_ne!(sign("k", ""), sign("k", " "));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = sign("key", "payload");
        assert!(verify("key", "payload", &mac));
        assert!(!verify("key", "payload2", &mac));
        assert!(!verify("key2", "payload", &mac));
        assert!(!verify("key", "payload", "00"));
    }

    #[test]
    fn verify_wants_exactly_the_signed_digits() {
        for (key, data) in [("k", ""), ("key", "payload"), ("ab", "c\u{e9}")] {
            let mac = sign(key, data);
            assert!(verify(key, data, &mac));
            assert!(!verify(key, data, &mac.to_uppercase()));
            assert!(!verify(key, data, &mac[1..]));
            assert!(!verify(key, data, &format!("{mac}0")));
        }
    }

    #[test]
    fn output_is_32_hex_chars() {
        let mac = sign("k", "v");
        assert_eq!(mac.len(), 32);
        assert!(mac.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn extension_resistance_smoke() {
        // key ‖ data split ambiguity must change the MAC.
        assert_ne!(sign("ab", "c"), sign("a", "bc"));
    }
}

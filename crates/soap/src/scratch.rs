//! Thread-local envelope serialization scratch.
//!
//! SOAP dispatch and client round-trips both end with "serialize this
//! envelope into an HTTP body". Serializing through a thread-local scratch
//! `String` means the working buffer reaches its high-water size once per
//! thread and is then reused: on the fixed worker threads of
//! `wire::HttpServer` (and on a client thread issuing many calls) every
//! later envelope serializes with exactly one allocation — the returned
//! exact-size body — instead of an amortized-growth `String` per reply.

use std::cell::RefCell;

use crate::envelope::Envelope;

thread_local! {
    static ENVELOPE_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Serialize `env` into an owned HTTP body via the thread's scratch buffer.
/// Byte-identical to `env.to_xml().into_bytes()`.
pub(crate) fn envelope_body(env: &Envelope) -> Vec<u8> {
    ENVELOPE_SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.clear();
        env.write_xml_into(&mut buf);
        buf.as_bytes().to_vec()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SoapValue;

    #[test]
    fn scratch_body_matches_to_xml() {
        let envs = [
            Envelope::request("Calc", "add", &[SoapValue::Int(1), SoapValue::Int(2)]),
            Envelope::response("add", SoapValue::str("a < b & c")),
        ];
        for env in envs {
            // Twice per envelope: the second call runs against a warm
            // (non-empty-capacity) scratch and must produce the same bytes.
            assert_eq!(envelope_body(&env), env.to_xml().into_bytes());
            assert_eq!(envelope_body(&env), env.to_xml().into_bytes());
        }
    }
}

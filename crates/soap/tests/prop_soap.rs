//! Property tests for the SOAP layer: arbitrary values survive the
//! envelope round trip, faults always decode, and base64 is inverse-exact.

use portalws_soap::base64;
use portalws_soap::{Envelope, Fault, PortalErrorKind, SoapValue};
use proptest::prelude::*;

fn scalar_value() -> impl Strategy<Value = SoapValue> {
    prop_oneof![
        // Declared strings decode verbatim, edge and all-blank
        // whitespace included.
        proptest::string::string_regex("[ -~\t\n]*")
            .unwrap()
            .prop_map(SoapValue::String),
        any::<i64>().prop_map(SoapValue::Int),
        any::<bool>().prop_map(SoapValue::Bool),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(SoapValue::Base64),
        // Finite doubles only: NaN breaks equality, infinities the lexical
        // form.
        (-1e10f64..1e10f64).prop_map(SoapValue::Double),
        Just(SoapValue::Null),
    ]
}

fn value_strategy() -> impl Strategy<Value = SoapValue> {
    scalar_value().prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(SoapValue::Array),
            proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9]{0,8}", inner), 1..4).prop_map(
                |fields| {
                    // Struct field names must be unique for round-trip
                    // equality (duplicate names both decode, order-keyed).
                    let mut seen = std::collections::HashSet::new();
                    SoapValue::Struct(
                        fields
                            .into_iter()
                            .filter(|(n, _)| seen.insert(n.clone()))
                            .collect(),
                    )
                }
            ),
        ]
    })
}

/// Doubles compare approximately after a decimal-text round trip.
fn values_equal(a: &SoapValue, b: &SoapValue) -> bool {
    match (a, b) {
        (SoapValue::Double(x), SoapValue::Double(y)) => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        (SoapValue::Array(xs), SoapValue::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| values_equal(x, y))
        }
        (SoapValue::Struct(xs), SoapValue::Struct(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((nx, x), (ny, y))| nx == ny && values_equal(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #[test]
    fn request_envelope_round_trip(args in proptest::collection::vec(value_strategy(), 0..4)) {
        let env = Envelope::request("Svc", "method", args.clone());
        let parsed = Envelope::parse(&env.to_xml()).expect("request must reparse");
        prop_assert_eq!(parsed.method(), "method");
        prop_assert_eq!(parsed.service(), Some("Svc"));
        let decoded = parsed.args().expect("args must decode");
        prop_assert_eq!(decoded.len(), args.len());
        for ((_, got), want) in decoded.iter().zip(&args) {
            prop_assert!(values_equal(got, want), "got {:?} want {:?}", got, want);
        }
    }

    #[test]
    fn response_envelope_round_trip(value in value_strategy()) {
        let env = Envelope::response("op", value.clone());
        let parsed = Envelope::parse(&env.to_xml()).expect("response must reparse");
        let got = parsed.return_value().expect("return must decode");
        prop_assert!(values_equal(&got, &value), "got {:?} want {:?}", got, value);
    }

    #[test]
    fn fault_round_trip(msg in "[ -~]{0,80}", kind_idx in 0usize..10) {
        let kinds = [
            PortalErrorKind::DiskFull,
            PortalErrorKind::FileNotFound,
            PortalErrorKind::PermissionDenied,
            PortalErrorKind::AuthFailed,
            PortalErrorKind::HostUnavailable,
            PortalErrorKind::QueueUnavailable,
            PortalErrorKind::JobRejected,
            PortalErrorKind::NotFound,
            PortalErrorKind::BadArguments,
            PortalErrorKind::Internal,
        ];
        let trimmed = msg.trim().to_owned();
        let fault = Fault::portal(kinds[kind_idx], trimmed.clone());
        let env = Envelope::fault(&fault);
        let parsed = Envelope::parse(&env.to_xml()).expect("fault must reparse");
        prop_assert!(parsed.is_fault());
        let rt = parsed.as_fault().expect("fault body");
        prop_assert_eq!(rt.kind(), Some(kinds[kind_idx]));
        let detail = rt.detail.expect("detail");
        prop_assert_eq!(detail.message.trim(), trimmed.trim());
    }

    #[test]
    fn base64_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    #[test]
    fn base64_decode_never_panics(s in "\\PC{0,128}") {
        let _ = base64::decode(&s);
    }

    #[test]
    fn envelope_parser_never_panics(s in "\\PC{0,400}") {
        let _ = Envelope::parse(&s);
    }

    #[test]
    fn headers_always_preserved(n in 0usize..4) {
        let mut env = Envelope::request("S", "m", []);
        for i in 0..n {
            env = env.with_header(
                portalws_xml::Element::new(format!("H{i}")).with_text(i.to_string()),
            );
        }
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        prop_assert_eq!(parsed.headers.len(), n);
    }
}

//! Shared workload builders for the benchmark harness.
//!
//! Every experiment in EXPERIMENTS.md has two drivers: a Criterion bench
//! (`benches/`) that measures time, and the `report` binary that prints
//! the paper-shaped series (counts, bytes, precision/recall, simulated
//! makespans) alongside timing medians. Both build their workloads here
//! so the numbers agree.

use std::sync::Arc;

use portalws_registry::{ContainerRegistry, ServiceEntry, UddiRegistry};
use portalws_soap::{Envelope, HeaderEntry, SoapValue};
use portalws_wire::{Pool, PoolConfig, PooledTransport, RetryPolicy, ServerArm, Transport};
use portalws_xml::{ComplexType, Element, ElementDecl, Schema, TypeDef};

/// The name a report and its JSON artifact give a server arm.
pub fn arm_name(arm: ServerArm) -> &'static str {
    match arm {
        ServerArm::Blocking => "blocking",
        ServerArm::Reactor => "reactor",
    }
}

/// The 2002 transport regime to `addr`: one TCP connection per call, from
/// a pool that parks none, and no retries.
pub fn per_call_transport(addr: impl ToString) -> Arc<dyn Transport> {
    let pool = Pool::new(PoolConfig {
        max_idle: 0,
        ..PoolConfig::default()
    });
    Arc::new(PooledTransport::with_pool(addr, Arc::new(pool)).with_retry(RetryPolicy::none()))
}

/// A representative SOAP request envelope for the E11 substrate
/// experiment: a multi-job submission with a SAML-style assertion header —
/// the shape every portal call pays to parse and serialize.
pub fn representative_envelope() -> Envelope {
    let jobs = SoapValue::Xml(jobs_request(4, 30, 2));
    let notify = SoapValue::str("alice@GCE.ORG");
    let priority = SoapValue::Int(5);
    Envelope::request_named(
        "JobSubmission",
        "submitXml",
        [
            ("jobs", &jobs),
            ("notify", &notify),
            ("priority", &priority),
        ],
    )
    .with_header(HeaderEntry::from_element(
        &Element::new("saml:Assertion")
            .with_attr("xmlns:saml", "urn:oasis:saml")
            .with_text_child("subject", "kerberos:alice@GCE.ORG")
            .with_text_child("issuer", "auth.gce.org")
            .with_text_child("signature", "9f8e7d6c5b4a39281706f5e4d3c2b1a0"),
    ))
}

/// Deterministic synthetic schema for E3: `leaves` simple elements spread
/// over complex groups of `group_size`, nested `depth` levels.
pub fn synthetic_schema(leaves: usize, group_size: usize, depth: usize) -> Schema {
    fn group(level: usize, leaves: usize, group_size: usize) -> ComplexType {
        let mut ct = ComplexType::default();
        if level == 0 {
            for i in 0..leaves {
                ct = ct.with(match i % 3 {
                    0 => ElementDecl::string(format!("field{i}")),
                    1 => ElementDecl::int(format!("field{i}")),
                    _ => ElementDecl::enumerated(format!("field{i}"), ["a", "b", "c"]),
                });
            }
            return ct;
        }
        let per_group = leaves.div_ceil(group_size).max(1);
        for g in 0..group_size.min(leaves.max(1)) {
            ct = ct.with(ElementDecl::new(
                format!("group{level}n{g}"),
                TypeDef::Complex(group(level - 1, per_group, group_size)),
            ));
        }
        ct
    }
    Schema::new("urn:bench").with_element(ElementDecl::new(
        "root",
        TypeDef::Complex(group(depth, leaves, group_size)),
    ))
}

/// Complete form data for a [`synthetic_schema`] instance.
pub fn synthetic_form(schema: &Schema) -> Vec<(String, String)> {
    use portalws_wizard::{ConstituentKind, Som};
    Som::new(schema)
        .walk("root")
        .expect("root exists")
        .into_iter()
        .filter_map(|c| match c.kind {
            ConstituentKind::Complex => None,
            ConstituentKind::EnumeratedSimple => Some((c.path, "b".to_owned())),
            _ => {
                let st = c.simple.expect("simple kinds carry a type");
                Some((c.path, st.sample()))
            }
        })
        .collect()
}

/// E7 population: `n` services, 1 in 4 genuinely supports LSF; half the
/// PBS services mention LSF in misleading prose. Returns
/// `(uddi, container, truly_lsf)`.
pub fn discovery_population(n: usize) -> (Arc<UddiRegistry>, Arc<ContainerRegistry>, usize) {
    let uddi = Arc::new(UddiRegistry::new());
    let container = Arc::new(ContainerRegistry::new());
    let biz = uddi
        .publish_business("TestBed", "synthetic population")
        .expect("fresh registry");
    let mut truly_lsf = 0;
    for i in 0..n {
        let supports_lsf = i % 4 == 0;
        if supports_lsf {
            truly_lsf += 1;
        }
        let scheduler = if supports_lsf { "LSF" } else { "PBS" };
        let description = if supports_lsf {
            format!("Service {i}. Supports LSF batch submission.")
        } else if i % 2 == 1 {
            format!("Service {i}. Supports PBS. Migrated away from LSF in 2001.")
        } else {
            format!("Service {i}. Supports PBS batch submission.")
        };
        uddi.publish_service(&biz, format!("scriptgen-{i}"), description, vec![])
            .expect("fresh registry");
        container
            .register(
                "/gce/scriptgen",
                ServiceEntry {
                    name: format!("scriptgen-{i}"),
                    access_point: format!("http://svc-{i}/soap/BatchScriptGen"),
                    wsdl_url: String::new(),
                    metadata: Element::new("serviceMetadata").with_child(
                        Element::new("schedulers")
                            .with_child(Element::new("scheduler").with_text(scheduler)),
                    ),
                },
            )
            .expect("fresh registry");
    }
    (uddi, container, truly_lsf)
}

/// An E9 multi-job request document: `n` jobs of `sleep_secs` each.
pub fn jobs_request(n: usize, sleep_secs: u64, cpus: u32) -> Element {
    let mut jobs = Element::new("jobs");
    for i in 0..n {
        jobs.push_child(
            Element::new("job")
                .with_text_child("host", "tg-login")
                .with_text_child("scheduler", "PBS")
                .with_text_child("queue", "batch")
                .with_text_child("name", format!("j{i}"))
                .with_text_child("cpus", cpus.to_string())
                .with_text_child("wallMinutes", "60")
                .with_text_child("command", format!("sleep {sleep_secs}")),
        );
    }
    jobs
}

/// A payload of `len` bytes with an `escape_fraction` of characters that
/// require XML escaping — the E5 sweep axis.
pub fn payload(len: usize, escape_fraction: f64) -> String {
    let every = if escape_fraction <= 0.0 {
        usize::MAX
    } else {
        (1.0 / escape_fraction).round().max(1.0) as usize
    };
    let mut s = String::with_capacity(len);
    for i in 0..len {
        s.push(if every != usize::MAX && i % every == 0 {
            '<'
        } else {
            // Deterministic printable filler.
            (b'a' + (i % 26) as u8) as char
        });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_schema_forms_round_trip() {
        for (leaves, group, depth) in [(4, 2, 1), (16, 4, 2), (64, 4, 2)] {
            let schema = synthetic_schema(leaves, group, depth);
            let wizard = portalws_wizard::SchemaWizard::new(schema.clone());
            let form = synthetic_form(&schema);
            let instance = wizard
                .instance_from_form("root", &form)
                .unwrap_or_else(|e| panic!("({leaves},{group},{depth}): {e}"));
            schema.validate(&instance).unwrap();
        }
    }

    #[test]
    fn discovery_population_counts() {
        let (uddi, container, truly) = discovery_population(64);
        assert_eq!(truly, 16);
        assert_eq!(uddi.service_count(), 64);
        assert_eq!(container.entry_count(), 64);
        // UDDI finds extra (misleading) hits; container is exact.
        assert!(uddi.find_service("LSF").len() > truly);
        assert_eq!(container.query("schedulers/scheduler", "LSF").len(), truly);
    }

    #[test]
    fn payload_escape_fraction() {
        let p = payload(1000, 0.5);
        let specials = p.bytes().filter(|&b| b == b'<').count();
        assert!((450..=550).contains(&specials), "{specials}");
        assert_eq!(payload(100, 0.0).bytes().filter(|&b| b == b'<').count(), 0);
    }

    #[test]
    fn jobs_request_shape() {
        let r = jobs_request(3, 5, 2);
        assert_eq!(r.find_all("job").count(), 3);
        assert_eq!(r.find("job").unwrap().find_text("command"), Some("sleep 5"));
    }
}

//! Counts that depend only on the seed's inputs must repeat exactly:
//! two short traced runs of one workload with one seed agree on them.
//! The runs are shorter than the read cache's 5 s TTL; in longer runs
//! `wire.requests_per_op` also counts its revalidation probes and WSDL
//! refetches, a few per 5 s.
//!
//! Not exact, and so not checked here:
//! - `wsdl.fetches_per_op`, `soap.cache_hit_ratio` and
//!   `soap.cache_invalidations`: the read cache revalidates after a 5 s
//!   wall-clock TTL, so they depend on how many ops fit in that time.
//! - `wire.bytes_per_op` and `xml.bytes_per_op`: job ids are in the
//!   replies, and how many digits they have depends on the op count.
//! - `process.minor_faults_per_op`: the kernel's, not the program's.

use std::collections::BTreeMap;
use std::process::Command;

const EXACT: &[&str] = &[
    "wire.requests_per_op",
    "wire.retries",
    "wire.errors",
    "wire.timeouts",
    "auth.verifications_per_op",
    "auth.hops_per_op",
    "services.transfer_chunks_per_op",
    "services.xml_call_commands_per_op",
    "gridsim.stripe_ops_per_op",
    "gridsim.jobs_retained_per_op",
    "process.alloc_count_per_op",
    "process.alloc_bytes_per_op",
];

/// Metric values from the result line: `"name": {"value": v, ...}`.
fn metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').expect("metric name is quoted") + 1;
        let name = &rest[name_start..at];
        let tail = &rest[at + "\": {\"value\": ".len()..];
        let end = tail.find(',').expect("value is followed by its unit");
        out.insert(name.to_owned(), tail[..end].parse().expect("numeric value"));
        rest = &tail[end..];
    }
    out
}

fn traced(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    metrics(last)
}

fn assert_repeats(workload: &str) {
    let (a, b) = (traced(workload, 42), traced(workload, 42));
    for name in EXACT {
        let (x, y) = (a[*name], b[*name]);
        assert_eq!(x, y, "{workload}: {name} differs between runs ({x} vs {y})");
    }
}

#[test]
fn portal_session_counts_repeat() {
    assert_repeats("portal_session");
}

#[test]
fn write_churn_counts_repeat() {
    assert_repeats("write_churn");
}

#[test]
fn bulk_transfer_counts_repeat() {
    assert_repeats("bulk_transfer");
}

#[test]
fn result_line_parses() {
    let m = metrics(
        r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.b": {"value": 1.5, "unit": "ms"}, "c": {"value": 2.0, "unit": "s"}}}"#,
    );
    assert_eq!(m.len(), 2);
    assert_eq!(m["a.b"], 1.5);
    assert_eq!(m["c"], 2.0);
}

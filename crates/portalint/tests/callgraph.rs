//! Call-graph and reachability fixture suite: cross-crate resolution,
//! method-call ambiguity (the documented over-approximation),
//! `#[cfg(test)]` extent exclusion, depth ≥3 transitive chains for both
//! reachability families (firing and suppressed), and pins that the real
//! workspace sources carry the entry markers the families key off.

use portalint::{
    check_reachability, check_stats_coverage, CallGraph, Violation, RULE_HOTPATH, RULE_REACTOR,
    RULE_STATS,
};

fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

fn firing<'v>(violations: &'v [Violation], rule: &str) -> Vec<&'v Violation> {
    violations
        .iter()
        .filter(|v| v.rule == rule && !v.suppressed)
        .collect()
}

#[test]
fn reactor_chain_fixture_fires_deep_and_suppresses_allowed_io() {
    let fs = files(&[(
        "crates/wire/src/reactor_chain.rs",
        include_str!("fixtures/reactor_chain.rs"),
    )]);
    let vs = check_reachability(&fs);
    let fires = firing(&vs, RULE_REACTOR);
    // The depth-3 sleep fires; the unreachable read_to_end does not.
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "sleep");
    assert!(
        fires[0]
            .message
            .contains("run → drive → step → idle_backoff"),
        "{}",
        fires[0].message
    );
    // The nonblocking read carries its allow.
    let suppressed: Vec<&Violation> = vs.iter().filter(|v| v.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "{vs:?}");
    assert_eq!(suppressed[0].kind, "blocking-read");
    assert!(suppressed[0]
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("nonblocking")));
}

#[test]
fn hotpath_fixture_resolves_cross_crate_and_skips_lazy_and_test_code() {
    let fs = files(&[
        (
            "crates/soap/src/hotpath_soap.rs",
            include_str!("fixtures/hotpath_soap.rs"),
        ),
        (
            "crates/xml/src/hotpath_xml.rs",
            include_str!("fixtures/hotpath_xml.rs"),
        ),
    ]);
    let vs = check_reachability(&fs);
    let fires = firing(&vs, RULE_HOTPATH);
    // Exactly one live sink: the format! at depth 3 across the crate
    // boundary. The ok_or_else(to_owned) is lazy-exempt and the
    // #[cfg(test)] String::from is excluded entirely.
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "format!");
    assert_eq!(fires[0].file, "crates/xml/src/hotpath_xml.rs");
    assert!(
        fires[0]
            .message
            .contains("write_envelope → render_header → render_attrs → render_one"),
        "{}",
        fires[0].message
    );
    // The audited to_owned in the entry file is suppressed with a reason.
    let suppressed: Vec<&Violation> = vs.iter().filter(|v| v.suppressed).collect();
    assert_eq!(suppressed.len(), 1, "{vs:?}");
    assert_eq!(suppressed[0].kind, "to_owned");
}

#[test]
fn a_root_added_first_with_a_longer_chain_leaves_findings_unchanged() {
    // A sink is attributed to the root with the shortest chain, not to
    // the first root in file order, so this root, listed first, does not
    // reword the finding `write_envelope` already owns.
    let base = [
        (
            "crates/soap/src/hotpath_soap.rs",
            include_str!("fixtures/hotpath_soap.rs"),
        ),
        (
            "crates/xml/src/hotpath_xml.rs",
            include_str!("fixtures/hotpath_xml.rs"),
        ),
    ];
    let longer = (
        "crates/core/src/hotpath_longer_root.rs",
        include_str!("fixtures/hotpath_longer_root.rs"),
    );
    let before = check_reachability(&files(&base));
    let after = check_reachability(&files(&[longer, base[0], base[1]]));
    assert_eq!(after, before);
    let sink = before
        .iter()
        .find(|v| v.kind == "format!")
        .expect("the sink fires");
    assert!(sink.message.contains("entry `write_envelope`"), "{sink:?}");
}

#[test]
fn method_ambiguity_over_approximates_to_every_candidate() {
    // `x.finish()` cannot be typed by a lexer: the resolver walks every
    // same-name definition, so a blocking sink behind either candidate
    // fires. This is the documented over-approximation — better a
    // reviewed allow than a silent block.
    let fs = files(&[
        (
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { x.finish(); }",
        ),
        ("crates/soap/src/clean.rs", "pub fn finish() {}"),
        (
            "crates/xml/src/dirty.rs",
            "pub fn finish() { std::thread::sleep(d); }",
        ),
    ]);
    let vs = check_reachability(&fs);
    assert_eq!(firing(&vs, RULE_REACTOR).len(), 1, "{vs:?}");
    assert_eq!(vs[0].file, "crates/xml/src/dirty.rs");
}

#[test]
fn cfg_test_fns_are_not_call_targets() {
    let fs = files(&[(
        "crates/wire/src/reactor.rs",
        "// portalint: reactor-entry\nfn run() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { std::thread::sleep(d); }\n}",
    )]);
    assert!(check_reachability(&fs).is_empty());
}

#[test]
fn real_reactor_carries_the_entry_marker() {
    // Pin the marker in the shipped source: if Worker::run loses its
    // `// portalint: reactor-entry` comment, the whole family silently
    // stops analyzing anything.
    let g = CallGraph::build(&files(&[(
        "crates/wire/src/reactor.rs",
        include_str!("../../wire/src/reactor.rs"),
    )]));
    let entries: Vec<&str> = g
        .entries(true)
        .into_iter()
        .map(|i| g.fns[i].name.as_str())
        .collect();
    assert_eq!(entries, vec!["run"], "reactor entry marker missing");
}

#[test]
fn real_substrate_carries_the_hot_path_markers() {
    let sources = files(&[
        (
            "crates/xml/src/event.rs",
            include_str!("../../xml/src/event.rs"),
        ),
        (
            "crates/xml/src/writer.rs",
            include_str!("../../xml/src/writer.rs"),
        ),
        (
            "crates/soap/src/envelope.rs",
            include_str!("../../soap/src/envelope.rs"),
        ),
        (
            "crates/soap/src/value.rs",
            include_str!("../../soap/src/value.rs"),
        ),
        (
            "crates/wire/src/http.rs",
            include_str!("../../wire/src/http.rs"),
        ),
    ]);
    let g = CallGraph::build(&sources);
    let mut entries: Vec<String> = g
        .entries(false)
        .into_iter()
        .map(|i| g.fns[i].display())
        .collect();
    entries.sort();
    assert_eq!(
        entries,
        vec![
            "Envelope::write_xml_into",
            "SoapValue::write_xml",
            "Tokenizer::next_event",
            "write_compact_into",
            "write_head",
        ],
        "hot-path entry markers drifted"
    );
}

#[test]
fn stats_coverage_fires_and_suppresses_in_fixture() {
    let stats = "\
pub enum ChaosClass { Drop }
pub struct WireStats {
    requests: AtomicU64,
    // portalint: allow(stats-coverage) — counter lands with the admission-control PR
    queued: AtomicU64,
}
pub struct StatsSnapshot { pub requests: u64 }
impl WireStats {
    fn record_chaos(&self, c: ChaosClass) { match c { ChaosClass::Drop => {} } }
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot { requests: self.requests.load(Relaxed) }
    }
}
impl StatsSnapshot {
    pub fn since(&self, b: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot { requests: self.requests - b.requests }
    }
}
";
    let fs = files(&[
        ("crates/wire/src/stats.rs", stats),
        (
            "crates/wire/src/chaos.rs",
            "fn plan() { let _ = ChaosClass::Drop; }",
        ),
    ]);
    let vs = check_stats_coverage(&fs);
    // `requests` has no increment site → fires. `queued` has neither an
    // increment nor a snapshot load, but both findings sit under its
    // allow.
    let fires = firing(&vs, RULE_STATS);
    assert_eq!(fires.len(), 1, "{vs:?}");
    assert_eq!(fires[0].kind, "no-increment");
    assert!(fires[0].message.contains("requests"));
    assert_eq!(vs.iter().filter(|v| v.suppressed).count(), 2, "{vs:?}");
}

//! Transitive reachability rules over the call graph.
//!
//! Two families, same engine:
//!
//! * **reactor-blocking** — nothing reachable from a function marked
//!   `// portalint: reactor-entry` may hit a blocking sink: `sleep`/
//!   `park`, `read_to_end`/`read_to_string`/`read_exact`/`read_line`,
//!   `accept`/`connect`, `write_all`, condvar/channel waits, bare
//!   `.read(buf)`/`.write(buf)` io with arguments (no-argument `.read()`/
//!   `.write()` are parking_lot lock acquisitions, inventoried by the
//!   lock rule instead). A lock acquisition spanning a syscall is caught
//!   through the syscall itself: any blocking sink under a reactor entry
//!   is a violation whether or not a lock is held at the time.
//! * **hot-path-alloc** — nothing reachable from a function marked
//!   `// portalint: hot-path-entry` may hit an allocation sink:
//!   `format!`/`vec!`, `.to_owned()`/`.to_string()`/`.to_vec()`/
//!   `.clone()`/`.into_owned()`, or `String::new`/`Vec::new`/`Box::new`/
//!   `…::from`. Sinks inside lazy error-path wrappers (`ok_or_else`,
//!   `map_err`, …) are exempt — they never run on the success path.
//!   `with_capacity` is deliberately not a sink: pre-sizing is the
//!   approved way to allocate, and it only appears on slow paths the
//!   borrow counters already watch.
//!
//! Sinks are *unresolved* calls matching the patterns above; a call that
//! resolves to a workspace function is an edge and its body is walked
//! instead. That split keeps the families honest about approximation:
//! resolution over-approximates (ambiguous method calls fan out to every
//! same-name definition), sink matching under-approximates (a blocking
//! call hidden behind a `dyn` trait boundary is invisible) — DESIGN.md §7
//! spells out both directions.
//!
//! Suppression is the standard allow machinery:
//! `// portalint: allow(reactor-blocking) — <reason>` on or directly
//! above the sink line.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use crate::graph::{CallGraph, CallSite};
use crate::lexer::lex;
use crate::rules::{parse_allow, Allow, Violation, RULE_HOTPATH, RULE_REACTOR};

/// Classify an unresolved call as a blocking sink (reactor family).
fn blocking_sink(call: &CallSite) -> Option<String> {
    if call.is_macro {
        return None;
    }
    let n = call.name.as_str();
    if matches!(n, "sleep" | "park" | "sleep_ms") {
        return Some(n.to_string());
    }
    if n == "connect"
        && matches!(
            call.qualifier.as_deref(),
            Some("TcpStream" | "TcpListener" | "UnixStream")
        )
    {
        return Some("connect".to_string());
    }
    if !call.is_method {
        return None;
    }
    match n {
        "read_to_end" | "read_to_string" | "read_exact" | "read_line" | "write_all" | "accept"
        | "connect" | "wait" | "wait_timeout" | "recv" | "recv_timeout" => Some(n.to_string()),
        "join" if !call.has_args => Some(n.to_string()),
        "read" | "write" if call.has_args => Some(format!("blocking-{n}")),
        _ => None,
    }
}

/// Classify an unresolved call as an allocation sink (hot-path family).
fn alloc_sink(call: &CallSite) -> Option<String> {
    if call.lazy {
        // Error-path-only closure argument: never runs on the hot path.
        return None;
    }
    let n = call.name.as_str();
    if call.is_macro {
        return matches!(n, "format" | "vec").then(|| format!("{n}!"));
    }
    if let Some(q) = &call.qualifier {
        let alloc_type = matches!(
            q.as_str(),
            "String" | "Vec" | "Box" | "VecDeque" | "HashMap" | "BTreeMap" | "HashSet" | "BTreeSet"
        );
        if alloc_type && matches!(n, "new" | "from" | "default") {
            return Some(format!("{q}::{n}"));
        }
        return None;
    }
    if call.is_method
        && matches!(
            n,
            "to_owned" | "to_string" | "to_vec" | "clone" | "into_owned"
        )
    {
        return Some(n.to_string());
    }
    None
}

/// Collect allow directives from every file, keyed `(file, rule, line)`.
fn collect_allows(files: &[(String, String)]) -> HashMap<(String, String, u32), Allow> {
    let mut out = HashMap::new();
    for (label, source) in files {
        for comment in &lex(source).comments {
            if let Some(Ok((rule, reason))) = parse_allow(&comment.text) {
                out.insert(
                    (label.clone(), rule.clone(), comment.line),
                    Allow {
                        line: comment.line,
                        rule,
                        reason,
                    },
                );
            }
        }
    }
    out
}

/// The call chain from `entry` down to `f`, as `a → b → c`.
fn chain(graph: &CallGraph, parent: &HashMap<usize, usize>, f: usize) -> String {
    let mut names = vec![graph.fns[f].name.clone()];
    let mut cur = f;
    while let Some(&p) = parent.get(&cur) {
        names.push(graph.fns[p].name.clone());
        cur = p;
    }
    names.reverse();
    names.join(" → ")
}

/// Run both reachability families over `(label, source)` pairs.
pub fn check_reachability(files: &[(String, String)]) -> Vec<Violation> {
    let graph = CallGraph::build(files);
    let allows = collect_allows(files);
    let allow_for = |file: &str, rule: &str, line: u32| -> Option<Allow> {
        allows
            .get(&(file.to_string(), rule.to_string(), line))
            .or_else(|| allows.get(&(file.to_string(), rule.to_string(), line.saturating_sub(1))))
            .cloned()
    };

    // Each sink is reported once, attributed to the root with the shortest
    // chain to it (ties to the root whose name sorts first), so adding a
    // root elsewhere in the workspace cannot reword an existing finding.
    type Attribution = (usize, String, Violation);
    let mut best: HashMap<(String, u32, &'static str, String), Attribution> = HashMap::new();

    for (reactor, rule) in [(true, RULE_REACTOR), (false, RULE_HOTPATH)] {
        for entry in graph.entries(reactor) {
            let entry_disp = graph.fns[entry].display();
            let mut parent: HashMap<usize, usize> = HashMap::new();
            let mut depth: HashMap<usize, usize> = HashMap::from([(entry, 1)]);
            let mut queue: VecDeque<usize> = VecDeque::from([entry]);
            while let Some(f) = queue.pop_front() {
                let len = depth[&f];
                for call in &graph.fns[f].calls {
                    let targets = graph.resolve(f, call);
                    if targets.is_empty() {
                        let sink = if reactor {
                            blocking_sink(call)
                        } else {
                            alloc_sink(call)
                        };
                        let Some(kind) = sink else {
                            continue;
                        };
                        let file = graph.fns[f].file.clone();
                        let key = (file.clone(), call.line, rule, kind.clone());
                        if best
                            .get(&key)
                            .is_some_and(|(l, e, _)| (*l, e) <= (len, &entry_disp))
                        {
                            continue;
                        }
                        let via = chain(&graph, &parent, f);
                        let message = if reactor {
                            format!(
                                "blocking `{kind}` is reachable from reactor entry `{entry_disp}` via {via}; a reactor worker that blocks stalls every connection it owns"
                            )
                        } else {
                            format!(
                                "allocation `{kind}` is reachable from hot-path entry `{entry_disp}` via {via}; the parse/serialize hot path must stay allocation-free"
                            )
                        };
                        let allow = allow_for(&file, rule, call.line);
                        let violation = Violation {
                            file,
                            line: call.line,
                            rule,
                            kind,
                            message,
                            suppressed: allow.is_some(),
                            reason: allow.map(|a| a.reason),
                        };
                        best.insert(key, (len, entry_disp.clone(), violation));
                        continue;
                    }
                    for t in targets {
                        if let Entry::Vacant(slot) = depth.entry(t) {
                            slot.insert(len + 1);
                            parent.insert(t, f);
                            queue.push_back(t);
                        }
                    }
                }
            }
        }
    }

    let mut out: Vec<Violation> = best.into_values().map(|(_, _, v)| v).collect();
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn reactor_blocking_fires_through_depth_three_chain() {
        let fs = files(&[(
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { step(); }\nfn step() { inner(); }\nfn inner() { deep(); }\nfn deep() { thread::sleep(d); }",
        )]);
        let v = check_reachability(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_REACTOR);
        assert_eq!(v[0].kind, "sleep");
        assert!(
            v[0].message.contains("run → step → inner → deep"),
            "{}",
            v[0].message
        );
        assert!(!v[0].suppressed);
    }

    #[test]
    fn reactor_blocking_suppressed_by_allow() {
        let fs = files(&[(
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() {\n    // portalint: allow(reactor-blocking) — listener is registered nonblocking\n    listener.accept();\n}",
        )]);
        let v = check_reachability(&fs);
        assert_eq!(v.len(), 1);
        assert!(v[0].suppressed);
        assert_eq!(
            v[0].reason.as_deref(),
            Some("listener is registered nonblocking")
        );
    }

    #[test]
    fn unreachable_blocking_is_not_flagged() {
        let fs = files(&[(
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { step(); }\nfn step() {}\nfn elsewhere() { thread::sleep(d); }",
        )]);
        assert!(check_reachability(&fs).is_empty());
    }

    #[test]
    fn hot_path_alloc_fires_cross_crate_depth_three() {
        let fs = files(&[
            (
                "crates/soap/src/envelope.rs",
                "// portalint: hot-path-entry\nfn write_xml_into(out: &mut String) { render_header(out); }",
            ),
            (
                "crates/xml/src/writer.rs",
                "pub fn render_header(out: &mut String) { render_attrs(out); }\nfn render_attrs(out: &mut String) { out.push_str(&format!(\"{}\", 1)); }",
            ),
        ]);
        let v = check_reachability(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_HOTPATH);
        assert_eq!(v[0].kind, "format!");
        assert_eq!(v[0].file, "crates/xml/src/writer.rs");
        assert!(
            v[0].message
                .contains("write_xml_into → render_header → render_attrs"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn lazy_error_paths_are_exempt() {
        let fs = files(&[(
            "crates/xml/src/event.rs",
            "// portalint: hot-path-entry\nfn next_event() { x.ok_or_else(|| name.to_owned()); }",
        )]);
        assert!(check_reachability(&fs).is_empty());
    }

    #[test]
    fn with_capacity_is_not_a_sink() {
        let fs = files(&[(
            "crates/xml/src/escape.rs",
            "// portalint: hot-path-entry\nfn escape() { let s = String::with_capacity(64); }",
        )]);
        assert!(check_reachability(&fs).is_empty());
    }

    #[test]
    fn cfg_test_bodies_do_not_reach() {
        let fs = files(&[(
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { step(); }\nfn step() {}\n#[cfg(test)]\nmod tests {\n    fn step() { thread::sleep(d); }\n}",
        )]);
        assert!(check_reachability(&fs).is_empty());
    }

    #[test]
    fn noarg_lock_read_is_not_blocking_io() {
        let fs = files(&[(
            "crates/wire/src/reactor.rs",
            "// portalint: reactor-entry\nfn run() { let g = state.read(); stream.read(buf); }",
        )]);
        let v = check_reachability(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].kind, "blocking-read");
    }

    #[test]
    fn method_ambiguity_over_approximates() {
        // `x.render()` has two same-name candidates in different crates:
        // the conservative resolver walks both, so a sink behind either
        // fires.
        let fs = files(&[
            (
                "crates/wire/src/reactor.rs",
                "// portalint: reactor-entry\nfn run() { x.render(); }",
            ),
            ("crates/soap/src/a.rs", "pub fn render() {}"),
            (
                "crates/xml/src/b.rs",
                "pub fn render() { thread::sleep(d); }",
            ),
        ]);
        let v = check_reachability(&fs);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].file, "crates/xml/src/b.rs");
    }
}

//! Workspace symbol table and call graph, built on the lexer.
//!
//! This is deliberately *not* type inference: the build is offline (no
//! `syn`, no rustc internals) and the reachability rules need a
//! conservative approximation, not a precise one. The model:
//!
//! * every `fn` item in live (non-test, non-`macro_rules!`) code is a
//!   node, tagged with its file, crate, and — when defined inside an
//!   `impl` block — the implementing type ("owner");
//! * every call site inside a function body is an edge *candidate*:
//!   `free_call(…)`, `path::qualified(…)`, `Type::qualified(…)`,
//!   `self.method(…)`, `recv.method(…)`, and `macro!(…)` are all
//!   extracted with enough shape (qualifier, receiver, argument
//!   presence) for name resolution;
//! * resolution ([`CallGraph::resolve`]) is by name, narrowed by the
//!   qualifier or receiver when one exists. What it over- and
//!   under-approximates is documented on the method — the reachability
//!   rules in [`crate::reach`] are designed around exactly those bounds.
//!
//! Entry points for the reachability rules are declared in source with
//! marker comments (`// portalint: reactor-entry`,
//! `// portalint: hot-path-entry`) attached to the next `fn` item, the
//! same convention as the `wire-error-map` marker.

use std::collections::HashMap;

use crate::lexer::{lex, Lexed, Tok};

/// Method names that shadow ubiquitous std/trait methods: resolving a
/// bare `recv.name(…)` call for one of these by name alone would connect
/// nearly every function in the workspace. They resolve only through a
/// `self.` receiver (same impl) or an explicit qualifier; otherwise the
/// call is left unresolved — a documented under-approximation that the
/// sink lists in [`crate::reach`] compensate for (e.g. an unresolved
/// `.read(buf)` *is* the blocking-io sink pattern).
const STOP_NAMES: &[&str] = &[
    "new", "clone", "read", "write", "next", "get", "get_mut", "push", "pop", "len", "is_empty",
    "into", "from", "lock", "try_lock", "insert", "remove", "send", "recv", "join", "take",
    "clear", "min", "max", "iter", "drop", "handle", "decide", "invoke", "ok", "err",
];

/// Calls whose closure argument is lazily evaluated on the error path
/// only: an allocation inside `ok_or_else(…)` never runs on the success
/// path, so the hot-path-alloc rule exempts sinks inside their argument
/// lists.
const LAZY_WRAPPERS: &[&str] = &[
    "ok_or_else",
    "map_err",
    "unwrap_or_else",
    "unwrap_or_default",
    "or_else",
];

/// One `fn` item in live code.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Repo-relative file label.
    pub file: String,
    /// Crate directory name (`wire` for `crates/wire/src/…`).
    pub crate_name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Function name.
    pub name: String,
    /// Implementing type when defined inside an `impl` block.
    pub owner: Option<String>,
    /// Marked `// portalint: reactor-entry`.
    pub reactor_entry: bool,
    /// Marked `// portalint: hot-path-entry`.
    pub hotpath_entry: bool,
    /// Call sites inside the body, in order.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// `Owner::name` or plain `name`, for messages.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the called name.
    pub line: u32,
    /// Called name (function, method, or macro name without `!`).
    pub name: String,
    /// Last `::` path segment before the name (`thread` in
    /// `std::thread::sleep`, `Vec` in `Vec::new`), when qualified.
    pub qualifier: Option<String>,
    /// Preceded by `.` — a method call.
    pub is_method: bool,
    /// The receiver is literally `self` (`self.step(…)`).
    pub self_recv: bool,
    /// The argument list is non-empty (`(` not immediately closed).
    pub has_args: bool,
    /// A macro invocation (`name!(…)` / `name![…]` / `name!{…}`).
    pub is_macro: bool,
    /// Inside the argument list of a lazy wrapper (`ok_or_else`,
    /// `map_err`, …): evaluated on the error path only.
    pub lazy: bool,
}

/// The workspace call graph: all function definitions plus a name index.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All definitions, in file order.
    pub fns: Vec<FnDef>,
    by_name: HashMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over `(label, source)` pairs.
    pub fn build(files: &[(String, String)]) -> CallGraph {
        let mut graph = CallGraph::default();
        for (label, source) in files {
            let defs = file_fns(label, source);
            for def in defs {
                graph
                    .by_name
                    .entry(def.name.clone())
                    .or_default()
                    .push(graph.fns.len());
                graph.fns.push(def);
            }
        }
        graph
    }

    /// Indices of entry-marked functions for one family.
    pub fn entries(&self, reactor: bool) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| {
                if reactor {
                    self.fns[i].reactor_entry
                } else {
                    self.fns[i].hotpath_entry
                }
            })
            .collect()
    }

    /// Resolve a call site from `caller` to candidate definitions.
    ///
    /// Conservative name resolution, no type inference:
    ///
    /// * **Qualified** (`Type::f`, `module::f`, `Self::f`): candidates are
    ///   functions named `name` whose owner matches the qualifier, or that
    ///   live in a file/module matching the qualifier. A qualifier that
    ///   matches nothing in the workspace (e.g. `Vec::new`,
    ///   `thread::sleep`) resolves to nothing — external calls are
    ///   *unresolved*, which is what the sink patterns match on.
    /// * **`self.f(…)`**: same-impl methods first, then same-file
    ///   functions.
    /// * **`recv.f(…)`**: same-file functions first; otherwise *every*
    ///   function named `f` in the workspace — the documented
    ///   over-approximation (a method call may dispatch to any impl we
    ///   cannot distinguish), except for `STOP_NAMES`, which stay
    ///   unresolved (the documented under-approximation; calls through
    ///   `dyn` trait objects such as `Handler::handle` are likewise
    ///   dispatch boundaries the resolver does not cross).
    /// * **Free calls** (`f(…)`): every function named `f` (the same
    ///   over-approximation; `use`-renames are invisible to a lexer).
    /// * **Macros** resolve to nothing: what they expand to is unseen
    ///   (under-approximation), but macro *names* participate in the sink
    ///   patterns (`format!`, `vec!`).
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.is_macro {
            return Vec::new();
        }
        let same_name: &[usize] = self
            .by_name
            .get(&call.name)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        if let Some(q) = &call.qualifier {
            let caller_owner = self.fns[caller].owner.clone();
            let by_owner: Vec<usize> = same_name
                .iter()
                .copied()
                .filter(|&i| match &self.fns[i].owner {
                    Some(o) => o == q || (q == "Self" && Some(o) == caller_owner.as_ref()),
                    None => false,
                })
                .collect();
            if !by_owner.is_empty() {
                return by_owner;
            }
            // Module-path call: `scan::find_byte` → a free fn in
            // `…/scan.rs` (or `…/scan/…`).
            let by_module: Vec<usize> = same_name
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.fns[i].file;
                    f.ends_with(&format!("/{q}.rs")) || f.contains(&format!("/{q}/"))
                })
                .collect();
            return by_module;
        }
        if call.is_method {
            if call.self_recv {
                let caller_owner = self.fns[caller].owner.clone();
                let same_impl: Vec<usize> = same_name
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].owner.is_some() && self.fns[i].owner == caller_owner)
                    .collect();
                if !same_impl.is_empty() {
                    return same_impl;
                }
            }
            let caller_file = self.fns[caller].file.clone();
            let same_file: Vec<usize> = same_name
                .iter()
                .copied()
                .filter(|&i| self.fns[i].file == caller_file)
                .collect();
            if !same_file.is_empty() {
                return same_file;
            }
            if STOP_NAMES.contains(&call.name.as_str()) {
                return Vec::new();
            }
            return same_name.to_vec();
        }
        // Free call.
        same_name.to_vec()
    }
}

/// Extract every live `fn` definition (with its call sites) from a file.
pub fn file_fns(file: &str, source: &str) -> Vec<FnDef> {
    let lexed = lex(source);
    let live = lexed.live_indices();
    let crate_name = file
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace")
        .to_string();

    let mut defs: Vec<FnDef> = Vec::new();
    // Stack of (brace_depth_when_opened, owner) for impl blocks.
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut depth = 0usize;
    let tok = |k: usize| -> Option<&Tok> { live.get(k).map(|&i| &lexed.tokens[i].tok) };
    let line_of = |k: usize| -> u32 { lexed.tokens[live[k]].line };

    let mut k = 0usize;
    while k < live.len() {
        match tok(k) {
            Some(Tok::Punct('{')) => {
                depth += 1;
                k += 1;
            }
            Some(Tok::Punct('}')) => {
                depth = depth.saturating_sub(1);
                while impl_stack.last().is_some_and(|(d, _)| *d >= depth) {
                    impl_stack.pop();
                }
                k += 1;
            }
            Some(Tok::Ident(id)) if id == "impl" => {
                // `impl<…> Type {` or `impl<…> Trait for Type {`: the
                // owner is the first identifier after `for` when present,
                // else the first identifier after the generics.
                let mut j = k + 1;
                let mut angle = 0i32;
                let mut first: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut saw_for = false;
                while j < live.len() {
                    match tok(j) {
                        Some(Tok::Punct('<')) => angle += 1,
                        Some(Tok::Punct('>')) => angle -= 1,
                        Some(Tok::Punct('{')) if angle <= 0 => break,
                        Some(Tok::Punct(';')) if angle <= 0 => break,
                        Some(Tok::Ident(w)) if angle <= 0 => {
                            if w == "for" {
                                saw_for = true;
                            } else if w == "where" {
                                break;
                            } else if saw_for {
                                if after_for.is_none() {
                                    after_for = Some(w.clone());
                                }
                            } else if first.is_none() {
                                first = Some(w.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(owner) = after_for.or(first) {
                    impl_stack.push((depth, owner));
                }
                // Skip to (not past) the `{`/`;` so the depth bookkeeping
                // above sees it. A where clause may hold idents; harmless.
                while k < live.len()
                    && !matches!(tok(k), Some(Tok::Punct('{')) | Some(Tok::Punct(';')))
                {
                    k += 1;
                }
            }
            Some(Tok::Ident(id)) if id == "fn" => {
                let Some(Tok::Ident(name)) = tok(k + 1) else {
                    k += 1;
                    continue;
                };
                let name = name.clone();
                let fn_line = line_of(k);
                // Scan the signature to the body `{` or a `;` (trait
                // declarations, `extern "C"` items have no body).
                let mut j = k + 2;
                let mut paren = 0i32;
                let mut angle = 0i32;
                while j < live.len() {
                    match tok(j) {
                        Some(Tok::Punct('(')) => paren += 1,
                        Some(Tok::Punct(')')) => paren -= 1,
                        Some(Tok::Punct('<')) => angle += 1,
                        Some(Tok::Punct('>')) => angle -= 1,
                        Some(Tok::Punct('{')) if paren == 0 => break,
                        Some(Tok::Punct(';')) if paren == 0 && angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let owner = impl_stack.last().map(|(_, o)| o.clone());
                if matches!(tok(j), Some(Tok::Punct('{'))) {
                    // Body extent: matching brace.
                    let body_start = j + 1;
                    let mut body_depth = 1usize;
                    let mut e = body_start;
                    while e < live.len() && body_depth > 0 {
                        match tok(e) {
                            Some(Tok::Punct('{')) => body_depth += 1,
                            Some(Tok::Punct('}')) => body_depth -= 1,
                            _ => {}
                        }
                        e += 1;
                    }
                    let body_end = e.saturating_sub(1); // index of closing `}`
                    let calls = extract_calls(&lexed, &live, body_start, body_end);
                    defs.push(FnDef {
                        file: file.to_string(),
                        crate_name: crate_name.clone(),
                        line: fn_line,
                        name,
                        owner,
                        reactor_entry: false,
                        hotpath_entry: false,
                        calls,
                    });
                    k = e; // resume after the body
                } else {
                    defs.push(FnDef {
                        file: file.to_string(),
                        crate_name: crate_name.clone(),
                        line: fn_line,
                        name,
                        owner,
                        reactor_entry: false,
                        hotpath_entry: false,
                        calls: Vec::new(),
                    });
                    k = j + 1;
                }
            }
            _ => {
                k += 1;
            }
        }
    }

    attach_entry_markers(&lexed, &mut defs);
    defs
}

/// Attach `reactor-entry` / `hot-path-entry` marker comments to the next
/// `fn` item at or below each marker's line.
fn attach_entry_markers(lexed: &Lexed, defs: &mut [FnDef]) {
    for comment in &lexed.comments {
        let Some(at) = comment.text.find("portalint:") else {
            continue;
        };
        let directive = comment.text[at + "portalint:".len()..].trim();
        let reactor = directive.starts_with("reactor-entry");
        let hotpath = directive.starts_with("hot-path-entry");
        if !reactor && !hotpath {
            continue;
        }
        if let Some(def) = defs.iter_mut().find(|d| d.line >= comment.line) {
            if reactor {
                def.reactor_entry = true;
            } else {
                def.hotpath_entry = true;
            }
        }
    }
}

/// Names that look like calls but are control flow or bindings.
fn is_call_keyword(id: &str) -> bool {
    matches!(
        id,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "let"
            | "else"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "fn"
            | "impl"
            | "use"
            | "pub"
            | "where"
            | "unsafe"
            | "break"
            | "continue"
            | "dyn"
            | "box"
            | "await"
            | "async"
            | "yield"
            | "static"
            | "const"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "true"
            | "false"
            | "enum"
            | "struct"
            | "trait"
            | "type"
            | "mod"
            | "extern"
    )
}

/// Walk one body extent `[start, end)` and extract call sites.
fn extract_calls(lexed: &Lexed, live: &[usize], start: usize, end: usize) -> Vec<CallSite> {
    let tok = |k: usize| -> Option<&Tok> {
        if k < end {
            live.get(k).map(|&i| &lexed.tokens[i].tok)
        } else {
            None
        }
    };
    let line_of = |k: usize| -> u32 { lexed.tokens[live[k]].line };

    let mut calls = Vec::new();
    // Paren depths at which a lazy wrapper's argument list closes.
    let mut lazy_extents: Vec<i32> = Vec::new();
    let mut paren = 0i32;
    for k in start..end {
        match tok(k) {
            Some(Tok::Punct('(')) => paren += 1,
            Some(Tok::Punct(')')) => {
                paren -= 1;
                // A wrapper pushed at depth d owns the arg list at depths
                // > d; the list is over once paren returns to d.
                while lazy_extents.last().is_some_and(|&d| d >= paren) {
                    lazy_extents.pop();
                }
            }
            Some(Tok::Ident(id)) if !is_call_keyword(id) => {
                let next = tok(k + 1);
                let is_macro = matches!(next, Some(Tok::Punct('!')))
                    && matches!(
                        tok(k + 2),
                        Some(Tok::Punct('(')) | Some(Tok::Punct('[')) | Some(Tok::Punct('{'))
                    );
                let is_call = matches!(next, Some(Tok::Punct('(')));
                if !is_macro && !is_call {
                    continue;
                }
                // Definitions (`fn name(`) are not calls; `fn` is a
                // keyword so the previous-token check suffices.
                if k > start && matches!(tok(k - 1), Some(Tok::Ident(p)) if p == "fn") {
                    continue;
                }
                let mut qualifier = None;
                let mut is_method = false;
                let mut self_recv = false;
                if k > start {
                    if matches!(tok(k - 1), Some(Tok::Punct('.'))) {
                        is_method = true;
                        self_recv = k >= start + 2
                            && matches!(tok(k - 2), Some(Tok::Ident(r)) if r == "self");
                    } else if k >= start + 3
                        && matches!(tok(k - 1), Some(Tok::Punct(':')))
                        && matches!(tok(k - 2), Some(Tok::Punct(':')))
                    {
                        if let Some(Tok::Ident(q)) = tok(k - 3) {
                            qualifier = Some(q.clone());
                        }
                    }
                }
                let open_at = if is_macro { k + 2 } else { k + 1 };
                let has_args = !matches!(
                    (tok(open_at), tok(open_at + 1)),
                    (Some(Tok::Punct('(')), Some(Tok::Punct(')')))
                        | (Some(Tok::Punct('[')), Some(Tok::Punct(']')))
                        | (Some(Tok::Punct('{')), Some(Tok::Punct('}')))
                );
                let lazy = !lazy_extents.is_empty();
                if is_call && LAZY_WRAPPERS.contains(&id.as_str()) {
                    // The argument list opens at paren+1 and closes back
                    // at the current depth.
                    lazy_extents.push(paren);
                }
                calls.push(CallSite {
                    line: line_of(k),
                    name: id.clone(),
                    qualifier,
                    is_method,
                    self_recv,
                    has_args,
                    is_macro,
                    lazy,
                });
            }
            _ => {}
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        CallGraph::build(&owned)
    }

    #[test]
    fn fn_inventory_with_impl_owner() {
        let src = "fn free() {}\nimpl Widget {\n    fn method(&self) {}\n}\nimpl Draw for Widget {\n    fn draw(&self) {}\n}\nfn after() {}";
        let defs = file_fns("crates/wire/src/w.rs", src);
        let summary: Vec<(String, Option<String>)> = defs
            .iter()
            .map(|d| (d.name.clone(), d.owner.clone()))
            .collect();
        assert_eq!(
            summary,
            vec![
                ("free".into(), None),
                ("method".into(), Some("Widget".into())),
                ("draw".into(), Some("Widget".into())),
                ("after".into(), None),
            ]
        );
        assert_eq!(defs[0].crate_name, "wire");
    }

    #[test]
    fn call_shapes_extracted() {
        let src = "fn f(&self) {\n    helper();\n    thread::sleep(d);\n    self.step(1);\n    conn.flush();\n    format!(\"{x}\");\n    Vec::new();\n}";
        let defs = file_fns("a.rs", src);
        let calls = &defs[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["helper", "sleep", "step", "flush", "format", "new"]
        );
        assert_eq!(calls[1].qualifier.as_deref(), Some("thread"));
        assert!(calls[2].self_recv);
        assert!(calls[3].is_method && !calls[3].self_recv);
        assert!(calls[4].is_macro);
        assert_eq!(calls[5].qualifier.as_deref(), Some("Vec"));
        assert!(!calls[3].has_args);
        assert!(calls[2].has_args);
    }

    #[test]
    fn lazy_wrapper_args_marked() {
        let src = "fn f() {\n    x.ok_or_else(|| msg.to_owned())?;\n    y.to_owned();\n}";
        let defs = file_fns("a.rs", src);
        let to_owned: Vec<&CallSite> = defs[0]
            .calls
            .iter()
            .filter(|c| c.name == "to_owned")
            .collect();
        assert_eq!(to_owned.len(), 2);
        assert!(to_owned[0].lazy);
        assert!(!to_owned[1].lazy);
    }

    #[test]
    fn entry_markers_attach_to_next_fn() {
        let src = "fn before() {}\n// portalint: reactor-entry\nfn run(&mut self) {}\n// portalint: hot-path-entry\npub fn next_event() {}";
        let defs = file_fns("a.rs", src);
        assert!(!defs[0].reactor_entry);
        assert!(defs[1].reactor_entry && !defs[1].hotpath_entry);
        assert!(defs[2].hotpath_entry && !defs[2].reactor_entry);
    }

    #[test]
    fn qualified_resolution_prefers_owner_then_module() {
        let g = graph(&[
            (
                "crates/wire/src/a.rs",
                "impl Epoll { fn wait(&self) {} }\nfn caller() { epoll.wait(x); Epoll::wait(y); }",
            ),
            ("crates/xml/src/scan.rs", "pub fn find_byte() {}"),
            (
                "crates/xml/src/b.rs",
                "fn user() { scan::find_byte(); Vec::new(); }",
            ),
        ]);
        let caller = g.fns.iter().position(|f| f.name == "caller").unwrap();
        // `epoll.wait(x)` — method call, same file → Epoll::wait.
        let m = &g.fns[caller].calls[0];
        assert_eq!(g.resolve(caller, m).len(), 1);
        // `Epoll::wait(y)` — owner-qualified.
        let q = &g.fns[caller].calls[1];
        assert_eq!(g.resolve(caller, q).len(), 1);
        let user = g.fns.iter().position(|f| f.name == "user").unwrap();
        // `scan::find_byte()` — module-qualified, cross-crate.
        assert_eq!(g.resolve(user, &g.fns[user].calls[0]).len(), 1);
        // `Vec::new()` — external qualifier: unresolved, not every `new`.
        assert!(g.resolve(user, &g.fns[user].calls[1]).is_empty());
    }

    #[test]
    fn stop_names_stay_unresolved_without_receiver_context() {
        let g = graph(&[
            (
                "crates/wire/src/a.rs",
                "impl Conn { fn read(&self) {} }\nfn f() { stream.read(buf); }",
            ),
            (
                "crates/soap/src/b.rs",
                "fn helper() {}\nfn g() { x.helper(); }",
            ),
        ]);
        let f = g.fns.iter().position(|d| d.name == "f").unwrap();
        // Same-file `read` wins over the stop list (receiver unknown but
        // a local definition exists).
        assert_eq!(g.resolve(f, &g.fns[f].calls[0]).len(), 1);
        // Bare method call on a non-stop name over-approximates to every
        // definition in the workspace.
        let gg = g.fns.iter().position(|d| d.name == "g").unwrap();
        assert_eq!(g.resolve(gg, &g.fns[gg].calls[0]).len(), 1);
    }

    #[test]
    fn extern_decls_are_bodyless_nodes() {
        let src = "extern \"C\" {\n    pub fn epoll_wait(epfd: i32) -> i32;\n}\nfn f() { sys::epoll_wait(1); }";
        let defs = file_fns("crates/wire/src/sys.rs", src);
        assert_eq!(defs[0].name, "epoll_wait");
        assert!(defs[0].calls.is_empty());
    }
}

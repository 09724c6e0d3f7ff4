//! One `DataManagement` facade, one answer at every shard count.
//!
//! A scripted session runs through `SoapClient` against the GCE testbed
//! namespace on one shard and on four, as an anonymous caller. It calls
//! every method with good arguments and with a missing one; lists a
//! relative path, `/`, `""` and a home the caller may not read; hands the
//! chunk calls malformed and foreign handles; calls an unknown method;
//! and sends one `xml_call` holding each command plus an unknown one.
//! Every value and every fault (code, kind and string) must be equal on
//! both, once each `s<k>/` handle prefix is removed, and so must the
//! published `methods()`.

use std::sync::Arc;

use portalws_services::{DataManagementService, ShardMap};
use portalws_soap::{
    FaultCode, MethodDesc, PortalErrorKind, SoapClient, SoapError, SoapServer, SoapService,
    SoapValue,
};
use portalws_wire::{Handler, InMemoryTransport};
use portalws_xml::Element;

const HOME: &str = "/home-alice@GCE.ORG";

/// What one call answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Value(SoapValue),
    Fault {
        code: FaultCode,
        kind: Option<PortalErrorKind>,
        string: String,
    },
    /// A transport or protocol error; no step should see one.
    Broken(String),
}

/// A wrapped transfer handle `s<k>/t-<id>` without its shard prefix;
/// any other text unchanged.
fn unwrap_handle(text: &str) -> &str {
    text.strip_prefix('s')
        .and_then(|rest| rest.split_once('/'))
        .filter(|(k, inner)| {
            !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()) && inner.starts_with("t-")
        })
        .map_or(text, |(_, inner)| inner)
}

fn unwrap_handles(value: SoapValue) -> SoapValue {
    match value {
        SoapValue::String(s) => SoapValue::str(unwrap_handle(&s)),
        SoapValue::Struct(fields) => SoapValue::Struct(
            (fields.into_iter())
                .map(|(name, v)| (name, unwrap_handles(v)))
                .collect(),
        ),
        SoapValue::Array(items) => {
            SoapValue::Array(items.into_iter().map(unwrap_handles).collect())
        }
        other => other,
    }
}

/// A client session that records every answer under its step's label.
struct Session {
    client: SoapClient,
    answers: Vec<(String, Answer)>,
}

impl Session {
    /// Call `method`, record the answer, and hand back the raw value (so
    /// later steps can use the handles it holds).
    fn call(&mut self, method: &str, args: &[SoapValue]) -> Option<SoapValue> {
        let label = format!("step {} {method}/{}", self.answers.len(), args.len());
        let (answer, value) = match self.client.call(method, args) {
            Ok(v) => (Answer::Value(unwrap_handles(v.clone())), Some(v)),
            Err(SoapError::Fault(f)) => (
                Answer::Fault {
                    kind: f.kind(),
                    code: f.code,
                    string: f.string,
                },
                None,
            ),
            Err(e) => (Answer::Broken(e.to_string()), None),
        };
        self.answers.push((label, answer));
        value
    }
}

fn s(text: impl Into<String>) -> SoapValue {
    SoapValue::str(text.into())
}

/// A top-level collection that four shards place apart from `/public`,
/// so moves between the two cross shards there.
fn top_apart_from_public() -> String {
    let map = ShardMap::new(4);
    (0..)
        .map(|i| format!("proj-{i}"))
        .find(|top| map.owner_of_top(top) != map.owner_of_top("public"))
        .expect("160 vnodes per shard spread the names")
}

/// Run the script on a testbed of `shards` shards.
fn script(shards: usize, apart: &str) -> (Vec<(String, Answer)>, Vec<MethodDesc>, usize) {
    let svc = Arc::new(DataManagementService::testbed(
        &["alice@GCE.ORG", "bob@GCE.ORG"],
        shards,
    ));
    let server = SoapServer::new();
    server.mount(Arc::clone(&svc) as Arc<dyn SoapService>);
    let handler: Arc<dyn Handler> = Arc::new(server);
    let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement");
    let c = &mut Session {
        client,
        answers: Vec::new(),
    };
    let apart = format!("/{apart}");

    c.call("generation", &[]);
    // The root, the spellings near it, a relative path, a home the caller
    // may not read, and a top that does not exist.
    for path in ["/", "", "//", "public", "/public", HOME, "/ghost"] {
        c.call("ls", &[s(path)]);
    }
    c.call("ls", &[]);
    for method in ["cat", "get", "getB64"] {
        for path in [
            "/public/README",
            "public/README",
            "",
            "/",
            "/home-alice@GCE.ORG/x",
            "/public/ghost",
        ] {
            c.call(method, &[s(path)]);
        }
        c.call(method, &[]);
    }

    c.call("put", &[s("/public/a.txt"), s("alpha <&>")]);
    c.call("put", &[s("/public/a.txt")]);
    c.call("put", &[]);
    c.call("put", &[s(format!("{HOME}/a.txt")), s("alpha")]);
    c.call(
        "putB64",
        &[s("/public/b.bin"), SoapValue::Base64(vec![0, 1, 2, 255])],
    );
    c.call("putB64", &[s("/public/b.bin")]);
    c.call("mkdir", &[s(apart.as_str())]);
    c.call("mkdir", &[s("/public/sub")]);
    c.call("mkdir", &[]);
    c.call("rename", &[s("/public/a.txt"), s("/public/a2.txt")]);
    c.call("rename", &[s("/public/a2.txt")]);
    c.call("cp", &[s("/public/a2.txt"), s("/public/sub/a3.txt")]);
    c.call("cp", &[s("/public/a2.txt")]);
    c.call("rm", &[s("/public/sub/a3.txt")]);
    c.call("rm", &[s("/public/ghost")]);
    c.call("rm", &[]);

    // Chunked transfers. Each shard numbers its own handles, so every
    // handle this part opens lives in `/public`: the ids then match at
    // every shard count, and only the `s<k>/` prefix tells them apart.
    let put = c.call("open_put", &[s("/public/big.bin")]);
    let handle = put.and_then(|v| v.as_str().map(str::to_owned));
    let handle = handle.expect("open_put answers a handle");
    let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
    c.call(
        "put_chunk",
        &[s(&handle), SoapValue::Int(0), SoapValue::Base64(payload)],
    );
    c.call("put_chunk", &[s(&handle), SoapValue::Int(5_000)]);
    for bad in ["t-1", "s9/t-1", "sX/t-1"] {
        let one = SoapValue::Base64(vec![1]);
        c.call("put_chunk", &[s(bad), SoapValue::Int(0), one]);
        c.call(
            "get_chunk",
            &[s(bad), SoapValue::Int(0), SoapValue::Int(16)],
        );
        c.call("commit", &[s(bad)]);
        c.call("abort", &[s(bad)]);
    }
    c.call("commit", &[s(&handle)]);
    c.call("commit", &[]);
    c.call("put_chunk", &[]);
    let opened = c.call("open_get", &[s("/public/big.bin")]);
    let get = opened.and_then(|v| {
        v.field("handle")
            .and_then(|h| h.as_str().map(str::to_owned))
    });
    let get = get.expect("open_get answers a handle");
    c.call(
        "get_chunk",
        &[s(&get), SoapValue::Int(0), SoapValue::Int(16)],
    );
    c.call(
        "get_chunk",
        &[s(&get), SoapValue::Int(4_990), SoapValue::Int(64)],
    );
    c.call("get_chunk", &[s(&get), SoapValue::Int(0)]);
    c.call(
        "get_chunk",
        &[s(&get), SoapValue::Int(-1), SoapValue::Int(16)],
    );
    c.call("abort", &[s(&get)]);
    c.call("abort", &[]);
    c.call("open_get", &[]);
    c.call("open_get", &[s("/public/ghost")]);
    c.call("open_put", &[]);
    // Refused last: a refused open still spends an id on its shard.
    c.call("open_put", &[s(format!("{HOME}/big.bin"))]);
    c.call("open_get", &[s(format!("{HOME}/x"))]);

    // Moves between `/public` and a top four shards place elsewhere.
    let a2 = format!("{apart}/a2.txt");
    c.call("rename", &[s("/public/a2.txt"), s(a2.as_str())]);
    c.call("cp", &[s(a2.as_str()), s("/public/a4.txt")]);
    c.call("rename", &[s("/public/ghost"), s(format!("{apart}/ghost"))]);
    c.call("cp", &[s("/public/README"), s(format!("{HOME}/README"))]);
    c.call(
        "rename",
        &[s("/public/a4.txt"), s(format!("{HOME}/a4.txt"))],
    );
    c.call("ls", &[s("/public")]);

    // One batch of every command plus an unknown one.
    let cmd = |op: &str, attr: &str, value: &str| Element::new(op).with_attr(attr, value);
    let request = Element::new("request")
        .with_child(cmd("ls", "collection", "/"))
        .with_child(cmd("ls", "collection", ""))
        .with_child(cmd("ls", "collection", "public"))
        .with_child(cmd("ls", "collection", "/public"))
        .with_child(cmd("ls", "collection", HOME))
        .with_child(Element::new("ls"))
        .with_child(cmd("mkdir", "path", "/public/x"))
        .with_child(cmd("put", "path", "/public/x/c.txt").with_text("gamma"))
        .with_child(cmd("put", "path", &format!("{apart}/d.txt")).with_text("delta"))
        .with_child(cmd("cat", "path", "/public/x/c.txt"))
        .with_child(cmd("get", "path", "/public/a4.txt"))
        .with_child(Element::new("cat"))
        .with_child(cmd("rm", "path", "/public/x/c.txt"))
        .with_child(cmd("rm", "path", HOME))
        .with_child(cmd("frob", "path", "/public"));
    c.call("xml_call", &[SoapValue::Xml(request)]);
    c.call("xml_call", &[]);
    c.call("xml_call", &[SoapValue::Xml(Element::new("wrong"))]);
    c.call("chmod", &[s("/public")]);

    // Where everything ended up.
    for path in ["/", "/public", "/public/x", apart.as_str()] {
        c.call("ls", &[s(path)]);
    }
    c.call("generation", &[]);
    let answers = std::mem::take(&mut c.answers);
    (answers, svc.methods(), svc.pending_moves())
}

#[test]
fn one_session_answers_alike_on_one_and_four_shards() {
    let apart = top_apart_from_public();
    let (one, one_methods, _) = script(1, &apart);
    let (four, four_methods, pending) = script(4, &apart);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a, b);
    }
    assert_eq!(one_methods, four_methods);
    assert_eq!(pending, 0, "the cross-shard moves left a journal entry");

    // The session reached what it set out to: faults of every kind the
    // script provokes, and values from every method it calls.
    let faults: Vec<Option<PortalErrorKind>> = (one.iter())
        .filter_map(|(_, a)| match a {
            Answer::Fault { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    for kind in [
        PortalErrorKind::BadArguments,
        PortalErrorKind::PermissionDenied,
        PortalErrorKind::FileNotFound,
        PortalErrorKind::NotFound,
    ] {
        assert!(faults.contains(&Some(kind)), "no {kind:?} fault: {one:#?}");
    }
    assert!(faults.contains(&None), "no untyped fault (unknown method)");
    let answered: Vec<&str> = (one.iter())
        .filter(|(_, a)| matches!(a, Answer::Value(_)))
        .filter_map(|(label, _)| label.split(' ').nth(2)?.split('/').next())
        .collect();
    for method in one_methods.iter().map(|m| m.name.as_str()) {
        assert!(
            answered.contains(&method),
            "{method} never answered a value"
        );
    }
    assert!(!one.iter().any(|(_, a)| matches!(a, Answer::Broken(_))));
}

//! SRB data-management Web service (§3.2).
//!
//! "The methods exposed in the SRB Web Services are `ls`, `cat`, `get`,
//! `put`, and `xml_call`. … The get and put methods transfer a file
//! between an SRB collection and the client by simply streaming the file
//! as a string. This transfer mechanism does not scale well, and was only
//! used as a proof of concept. The `xml_call` method allows the client to
//! create a single request string consisting of multiple SRB commands …
//! sent to the Web Service using a single connection. The service
//! executes the separate commands found within the requests sequentially."
//!
//! Both the string-streaming (measured in E5) and the batching (measured
//! in E6) are reproduced exactly; `getB64`/`putB64` are the encoding
//! ablation E5 compares against.
//!
//! One facade serves the port over one or more brokers. Each broker is a
//! [`Shard`] with its own chunked-transfer table, and [`crate::shard`]
//! places every top-level collection on one shard. One broker is a
//! one-shard map, so a deployment runs the same request path at every
//! shard count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use portalws_gridsim::srb::{Srb, SrbError};
use portalws_soap::{
    CallContext, Fault, MethodDesc, PortalErrorKind, SoapResult, SoapService, SoapType, SoapValue,
};
use portalws_wire::ArcCell;
use portalws_xml::Element;

use crate::caller_principal;
use crate::shard::{Journal, ShardMap};
use crate::transfer::TransferTable;

/// One shard of the namespace: a broker and the chunked-transfer table
/// that stages on it.
pub struct Shard {
    srb: Arc<Srb>,
    transfers: TransferTable,
}

impl Shard {
    fn new(srb: Arc<Srb>) -> Shard {
        let transfers = TransferTable::new(Arc::clone(&srb));
        Shard { srb, transfers }
    }

    /// The shard's broker.
    pub fn srb(&self) -> &Arc<Srb> {
        &self.srb
    }

    /// The shard's chunked-transfer handle table (benches and tests read
    /// its buffering high-water and tune its caps).
    pub fn transfers(&self) -> &TransferTable {
        &self.transfers
    }

    /// Read an object as UTF-8 text, or fault with a message that points
    /// the caller at the binary-safe paths. Before this check the string
    /// path degraded into a generic "not UTF-8" broker error with no hint
    /// that `getB64` and the chunked `open_get`/`get_chunk` protocol
    /// exist.
    pub(crate) fn cat_utf8(&self, principal: &str, path: &str) -> SoapResult<String> {
        let bytes = self.srb.get(principal, path).map_err(srb_fault)?;
        String::from_utf8(bytes).map_err(|_| {
            Fault::portal(
                PortalErrorKind::BadArguments,
                format!(
                    "object at {path:?} is not UTF-8 text; use getB64 or the chunked open_get/get_chunk path for binary content"
                ),
            )
        })
    }

    /// Execute one `xml_call` command element on this shard's broker,
    /// returning its result element.
    pub(crate) fn run_command(&self, principal: &str, cmd: &Element) -> Element {
        let op = cmd.local_name();
        // The broker rejects relative and blank paths, so a missing
        // attribute faults up front instead of being papered over with a
        // default.
        let attr = |name: &str| {
            cmd.attr(name)
                .ok_or_else(|| SrbError::Invalid(format!("{op} needs {name}")))
        };
        let result = || Element::new("result").with_attr("op", op);
        let outcome = (|| -> Result<Element, SrbError> {
            match op {
                "ls" => {
                    let mut out = result();
                    let path = attr("collection")?;
                    self.srb
                        .ls_each(principal, path, |name, is_collection, size| {
                            out.push_child(ls_entry(name, is_collection, size))
                        })?;
                    Ok(out)
                }
                "cat" | "get" => Ok(result().with_text(self.srb.cat(principal, attr("path")?)?)),
                "put" => {
                    let path = attr("path")?;
                    let text = cmd.text();
                    self.srb.put(principal, path, text.as_bytes())?;
                    Ok(result().with_attr("bytes", decimal(text.len(), &mut [0; 20])))
                }
                "rm" => {
                    self.srb.rm(principal, attr("path")?)?;
                    Ok(result())
                }
                "mkdir" => {
                    self.srb.mkdir(attr("path")?)?;
                    Ok(result())
                }
                other => Err(SrbError::Invalid(format!("unknown command {other:?}"))),
            }
        })();
        outcome.unwrap_or_else(|e| error_result(op, e.to_string()))
    }
}

/// SOAP facade over the Storage Resource Broker: one or more brokers,
/// each top-level collection on the shard the [`ShardMap`] names.
pub struct DataManagementService {
    pub(crate) shards: Box<[Shard]>,
    pub(crate) map: ArcCell<ShardMap>,
    /// Bumped once each mutation has run, and on every topology change;
    /// a reply carries the value read before its method ran. Excess bumps
    /// only cost cache refills.
    pub(crate) generation: AtomicU64,
    pub(crate) journal: Journal,
}

impl DataManagementService {
    /// A facade over one broker.
    pub fn new(srb: Arc<Srb>) -> DataManagementService {
        Self::with_brokers(vec![srb])
    }

    /// A facade over `brokers`, one shard each in the order given. Give
    /// it at least one: with none, every call faults `NOT_FOUND`.
    pub fn with_brokers(brokers: Vec<Arc<Srb>>) -> DataManagementService {
        DataManagementService {
            map: ArcCell::new(Arc::new(ShardMap::new(brokers.len()))),
            shards: brokers.into_iter().map(Shard::new).collect(),
            generation: AtomicU64::new(0),
            journal: Journal::new(),
        }
    }

    /// A facade over `shards` fresh brokers populated like the GCE
    /// testbed: one home collection per user with a 1 MiB quota, plus a
    /// world-readable `/public`, each provisioned only on its owning
    /// shard.
    pub fn testbed(users: &[&str], shards: usize) -> DataManagementService {
        let svc = Self::with_brokers((0..shards.max(1)).map(|_| Arc::new(Srb::new())).collect());
        for user in users {
            let home = format!("/home-{user}");
            let _ = svc.mkdir(&home);
            svc.set_acl(&home, vec![(*user).to_owned()]);
            svc.set_quota(&home, 1 << 20);
        }
        let _ = svc.mkdir("/public");
        let _ = svc.put_bytes(
            "anonymous",
            "/public/README",
            b"GCE testbed public collection\n",
        );
        svc
    }

    /// The shards in shard order: shard `k` serves the handles `s<k>/…`.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }
}

/// Map broker errors onto the portal's common error codes — the paper's
/// consistent-error-messaging requirement, with `DISK_FULL` as its own
/// worked example.
pub(crate) fn srb_fault(e: SrbError) -> Fault {
    let kind = match &e {
        SrbError::NotFound(_) => PortalErrorKind::FileNotFound,
        SrbError::PermissionDenied(_) => PortalErrorKind::PermissionDenied,
        SrbError::DiskFull { .. } => PortalErrorKind::DiskFull,
        SrbError::Invalid(_) => PortalErrorKind::BadArguments,
    };
    Fault::portal(kind, e.to_string())
}

/// The inline result of an `xml_call` command that failed.
pub(crate) fn error_result(op: &str, message: String) -> Element {
    Element::new("result")
        .with_attr("op", op)
        .with_attr("error", "true")
        .with_text(message)
}

/// One entry of an `xml_call` `ls` result. Its attributes are built from
/// borrowed text, so an entry whose name fits in an [`Element`]'s inline
/// strings costs only its attribute vector.
pub(crate) fn ls_entry(name: &str, is_collection: bool, size: usize) -> Element {
    Element::new("entry")
        .with_attr("name", name)
        .with_attr("collection", if is_collection { "true" } else { "false" })
        .with_attr("size", decimal(size, &mut [0; 20]))
}

/// `n` in decimal, written into the end of `buf` (20 bytes hold any
/// `u64`), so a number becomes an attribute value with no `String`.
fn decimal(mut n: usize, buf: &mut [u8; 20]) -> &str {
    let mut len = 0;
    for digit in buf.iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        len += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    let digits = buf.get(buf.len() - len..).unwrap_or_default();
    std::str::from_utf8(digits).unwrap_or_default()
}

fn missing(name: &str) -> Fault {
    Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}"))
}

fn arg_str<'a>(args: &'a [(String, SoapValue)], i: usize, name: &str) -> SoapResult<&'a str> {
    args.get(i)
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| missing(name))
}

fn arg_bytes<'a>(args: &'a [(String, SoapValue)], i: usize, name: &str) -> SoapResult<&'a [u8]> {
    args.get(i)
        .and_then(|(_, v)| v.as_bytes())
        .ok_or_else(|| missing(name))
}

fn arg_usize(args: &[(String, SoapValue)], i: usize, name: &str) -> SoapResult<usize> {
    let v = args
        .get(i)
        .and_then(|(_, v)| v.as_i64())
        .ok_or_else(|| missing(name))?;
    usize::try_from(v).map_err(|_| {
        Fault::portal(
            PortalErrorKind::BadArguments,
            format!("{name} must be non-negative"),
        )
    })
}

impl DataManagementService {
    /// Run one SOAP method as `principal`.
    fn answer(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        principal: &str,
    ) -> SoapResult<SoapValue> {
        match method {
            "ls" => {
                let path = arg_str(args, 0, "collection")?;
                let entries = self.ls_routed(principal, path)?;
                // The paper's ls "returns an array containing the directory
                // listing".
                Ok(SoapValue::Array(
                    entries
                        .into_iter()
                        .map(|e| {
                            SoapValue::Struct(vec![
                                ("name".into(), SoapValue::str(e.name)),
                                ("isCollection".into(), SoapValue::Bool(e.is_collection)),
                                ("size".into(), SoapValue::Int(e.size as i64)),
                            ])
                        })
                        .collect(),
                ))
            }
            // `get` is string streaming, exactly as deployed in 2002.
            "cat" | "get" => {
                let path = arg_str(args, 0, "path")?;
                Ok(SoapValue::String(
                    self.route(path)?.cat_utf8(principal, path)?,
                ))
            }
            "put" => {
                let path = arg_str(args, 0, "path")?;
                let content = arg_str(args, 1, "content")?;
                self.route(path)?
                    .srb
                    .put(principal, path, content.as_bytes())
                    .map_err(srb_fault)?;
                Ok(SoapValue::Int(content.len() as i64))
            }
            // Base64 ablation (E5): binary-safe, no escaping amplification.
            "getB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = self
                    .route(path)?
                    .srb
                    .get(principal, path)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Base64(bytes))
            }
            "putB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = arg_bytes(args, 1, "data")?;
                self.route(path)?
                    .srb
                    .put(principal, path, bytes)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Int(bytes.len() as i64))
            }
            "rm" => {
                let path = arg_str(args, 0, "path")?;
                self.route(path)?
                    .srb
                    .rm(principal, path)
                    .map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            "mkdir" => {
                let path = arg_str(args, 0, "path")?;
                self.route(path)?.srb.mkdir(path).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            // Namespace moves: one broker's atomic move within a
            // shard, the journaled protocol across shards.
            "rename" | "cp" => {
                let from = arg_str(args, 0, "from")?;
                let to = arg_str(args, 1, "to")?;
                self.move_object(principal, from, to, method == "cp")?;
                Ok(SoapValue::Null)
            }
            // Chunked streaming transfer protocol (E13): SOAP stays the
            // control channel, the payload moves as bounded chunks.
            "open_get" => {
                let (handle, size) = self.open_get(principal, arg_str(args, 0, "path")?)?;
                Ok(SoapValue::Struct(vec![
                    ("handle".into(), SoapValue::String(handle)),
                    ("size".into(), SoapValue::Int(size as i64)),
                ]))
            }
            "get_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let len = arg_usize(args, 2, "length")?;
                let (shard, handle) = self.handle_shard(handle)?;
                let bytes = shard
                    .transfers
                    .get_chunk(principal, handle, off, len)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Base64(bytes))
            }
            "open_put" => Ok(SoapValue::String(
                self.open_put(principal, arg_str(args, 0, "path")?)?,
            )),
            "put_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let data = arg_bytes(args, 2, "data")?;
                let (shard, handle) = self.handle_shard(handle)?;
                let acked = shard
                    .transfers
                    .put_chunk(principal, handle, off, data)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(acked as i64))
            }
            "commit" => {
                let (shard, handle) = self.handle_shard(arg_str(args, 0, "handle")?)?;
                let total = shard
                    .transfers
                    .commit(principal, handle)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(total as i64))
            }
            "abort" => {
                let (shard, handle) = self.handle_shard(arg_str(args, 0, "handle")?)?;
                shard
                    .transfers
                    .abort(principal, handle)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Null)
            }
            "xml_call" => {
                let request = args.first().and_then(|(_, v)| v.as_xml()).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::BadArguments, "missing request document")
                })?;
                if request.local_name() != "request" {
                    return Err(Fault::portal(
                        PortalErrorKind::BadArguments,
                        "xml_call expects a <request> document",
                    ));
                }
                // "The service executes the separate commands found within
                // the requests sequentially."
                let mut response = Element::new("response");
                for cmd in request.children() {
                    response.push_child(self.run_routed_command(principal, cmd));
                }
                Ok(SoapValue::Xml(response))
            }
            // The read cache's revalidation probe.
            "generation" => Ok(SoapValue::Int(
                self.generation.load(Ordering::Relaxed) as i64
            )),
            other => Err(Fault::client(format!(
                "DataManagement has no method {other:?}"
            ))),
        }
    }
}

impl SoapService for DataManagementService {
    fn name(&self) -> &str {
        "DataManagement"
    }

    fn generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::Relaxed))
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let answer = self.answer(method, args, &caller_principal(ctx));
        // Over-approximate mutation detection: anything that can change
        // visible namespace state bumps the generation once it has run,
        // refused or not. A reply is stamped before its method runs, so
        // no reply that saw the state a write replaced carries the
        // generation the write leaves behind.
        if matches!(
            method,
            "put"
                | "putB64"
                | "rm"
                | "mkdir"
                | "rename"
                | "cp"
                | "open_put"
                | "put_chunk"
                | "commit"
                | "abort"
                | "xml_call"
        ) {
            self.bump();
        }
        answer
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "ls",
                vec![("collection", SoapType::String)],
                SoapType::Array,
                "Directory listing of an SRB collection; \"/\" lists every top-level collection",
            ),
            MethodDesc::new(
                "cat",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Contents of a file in an SRB collection",
            ),
            MethodDesc::new(
                "get",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Transfer a file to the client as a string",
            ),
            MethodDesc::new(
                "put",
                vec![("path", SoapType::String), ("content", SoapType::String)],
                SoapType::Int,
                "Transfer a file from the client as a string",
            ),
            MethodDesc::new(
                "getB64",
                vec![("path", SoapType::String)],
                SoapType::Base64,
                "Binary-safe transfer to the client (ablation)",
            ),
            MethodDesc::new(
                "putB64",
                vec![("path", SoapType::String), ("data", SoapType::Base64)],
                SoapType::Int,
                "Binary-safe transfer from the client (ablation)",
            ),
            MethodDesc::new(
                "rm",
                vec![("path", SoapType::String)],
                SoapType::Void,
                "Delete an object",
            ),
            MethodDesc::new(
                "mkdir",
                vec![("path", SoapType::String)],
                SoapType::Void,
                "Create a collection",
            ),
            MethodDesc::new(
                "rename",
                vec![("from", SoapType::String), ("to", SoapType::String)],
                SoapType::Void,
                "Move an object, replacing any existing destination; atomic within a shard, journaled copy-then-delete across shards",
            ),
            MethodDesc::new(
                "cp",
                vec![("from", SoapType::String), ("to", SoapType::String)],
                SoapType::Void,
                "Copy an object, leaving the source in place",
            ),
            MethodDesc::new(
                "open_get",
                vec![("path", SoapType::String)],
                SoapType::Struct,
                "Open a chunked read handle; returns {handle, size}",
            ),
            MethodDesc::new(
                "get_chunk",
                vec![
                    ("handle", SoapType::String),
                    ("offset", SoapType::Int),
                    ("length", SoapType::Int),
                ],
                SoapType::Base64,
                "Ranged read through a transfer handle; empty at EOF",
            ),
            MethodDesc::new(
                "open_put",
                vec![("path", SoapType::String)],
                SoapType::String,
                "Open a chunked write handle staging beside the destination",
            ),
            MethodDesc::new(
                "put_chunk",
                vec![
                    ("handle", SoapType::String),
                    ("offset", SoapType::Int),
                    ("data", SoapType::Base64),
                ],
                SoapType::Int,
                "Append one chunk; returns the acknowledged frontier",
            ),
            MethodDesc::new(
                "commit",
                vec![("handle", SoapType::String)],
                SoapType::Int,
                "Atomically promote a staged put to its destination",
            ),
            MethodDesc::new(
                "abort",
                vec![("handle", SoapType::String)],
                SoapType::Void,
                "Abandon a transfer and reclaim its handle and staging",
            ),
            MethodDesc::new(
                "xml_call",
                vec![("request", SoapType::Xml)],
                SoapType::Xml,
                "Execute multiple SRB commands from one XML request over one connection",
            ),
            MethodDesc::new(
                "generation",
                vec![],
                SoapType::Int,
                "Current mutation generation (cheap cache revalidation probe)",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::{ReadCache, ReadCacheConfig, SoapClient, SoapError, SoapServer};
    use portalws_wire::{Handler, InMemoryTransport};
    use std::time::Duration;

    /// Every facade test runs on one broker and on a map that spreads
    /// top-level collections across three.
    const SHARD_COUNTS: [usize; 2] = [1, 3];

    fn fresh(shards: usize) -> Arc<DataManagementService> {
        let brokers = (0..shards).map(|_| Arc::new(Srb::new())).collect();
        Arc::new(DataManagementService::with_brokers(brokers))
    }

    fn serve(svc: &Arc<DataManagementService>) -> SoapClient {
        let server = SoapServer::new();
        server.mount(Arc::clone(svc) as Arc<dyn SoapService>);
        let handler: Arc<dyn Handler> = Arc::new(server);
        SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement")
    }

    fn client(shards: usize) -> (Arc<DataManagementService>, SoapClient) {
        let svc = fresh(shards);
        svc.mkdir("/data").unwrap();
        svc.put_bytes("anonymous", "/data/in.txt", b"line one\nline two\n")
            .unwrap();
        let c = serve(&svc);
        (svc, c)
    }

    fn kind(err: &SoapError) -> Option<PortalErrorKind> {
        err.as_fault().and_then(|f| f.kind())
    }

    #[test]
    fn ls_returns_array_of_structs() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let out = c.call("ls", &[SoapValue::str("/data")]).unwrap();
            let arr = out.as_array().unwrap();
            assert_eq!(arr.len(), 1);
            assert_eq!(arr[0].field("name").unwrap().as_str(), Some("in.txt"));
            assert_eq!(arr[0].field("size").unwrap().as_i64(), Some(18));
        }
    }

    #[test]
    fn only_slash_lists_the_root() {
        for shards in [1, 4] {
            let (svc, c) = client(shards);
            for top in ["/public", "/proj-0", "/proj-1"] {
                svc.mkdir(top).unwrap();
            }
            let root = c.call("ls", &[SoapValue::str("/")]).unwrap();
            let names: Vec<&str> = (root.as_array().unwrap().iter())
                .filter_map(|e| e.field("name").and_then(SoapValue::as_str))
                .collect();
            assert_eq!(names, ["data", "proj-0", "proj-1", "public"], "{shards}");
            // Every other spelling is the broker's to refuse.
            for (path, says) in [("", "is not absolute"), ("//", "has an empty segment")] {
                let err = c.call("ls", &[SoapValue::str(path)]).unwrap_err();
                assert_eq!(kind(&err), Some(PortalErrorKind::BadArguments), "{path:?}");
                assert!(err.to_string().contains(says), "{path:?}: {err}");
            }
            let ls = |collection: &str| Element::new("ls").with_attr("collection", collection);
            let request = Element::new("request")
                .with_child(ls("/"))
                .with_child(ls(""))
                .with_child(ls("//"));
            let out = c.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
            let results: Vec<&Element> = out.as_xml().unwrap().children().collect();
            assert_eq!(results[0].children().count(), 4, "{shards}");
            assert_eq!(results[1].attr("error"), Some("true"));
            assert!(results[1].text().contains("is not absolute"));
            assert_eq!(results[2].attr("error"), Some("true"));
            assert!(results[2].text().contains("has an empty segment"));
        }
    }

    #[test]
    fn cat_and_get_stream_strings() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let out = c.call("cat", &[SoapValue::str("/data/in.txt")]).unwrap();
            assert_eq!(out.as_str().unwrap(), "line one\nline two\n");
            let out = c.call("get", &[SoapValue::str("/data/in.txt")]).unwrap();
            assert!(out.as_str().unwrap().starts_with("line one"));
        }
    }

    #[test]
    fn put_then_get_round_trip() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            let content = "x <b>&</b> y\n".repeat(10);
            let n = c
                .call(
                    "put",
                    &[
                        SoapValue::str("/data/out.txt"),
                        SoapValue::str(content.clone()),
                    ],
                )
                .unwrap();
            assert_eq!(n.as_i64(), Some(content.len() as i64));
            assert_eq!(
                svc.get_bytes("anonymous", "/data/out.txt").unwrap(),
                content.as_bytes()
            );
            let back = c.call("get", &[SoapValue::str("/data/out.txt")]).unwrap();
            assert_eq!(back.as_str().unwrap(), content);
        }
    }

    #[test]
    fn rename_and_cp_over_soap() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            c.call(
                "rename",
                &[
                    SoapValue::str("/data/in.txt"),
                    SoapValue::str("/data/moved.txt"),
                ],
            )
            .unwrap();
            assert!(svc.get_bytes("anonymous", "/data/in.txt").is_err());
            c.call(
                "cp",
                &[
                    SoapValue::str("/data/moved.txt"),
                    SoapValue::str("/data/copy.txt"),
                ],
            )
            .unwrap();
            for path in ["/data/moved.txt", "/data/copy.txt"] {
                assert_eq!(
                    svc.get_bytes("anonymous", path).unwrap(),
                    b"line one\nline two\n"
                );
            }
        }
    }

    #[test]
    fn base64_round_trip_is_binary_safe() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let data: Vec<u8> = (0u8..=255).collect();
            c.call(
                "putB64",
                &[SoapValue::str("/data/bin"), SoapValue::Base64(data.clone())],
            )
            .unwrap();
            let back = c.call("getB64", &[SoapValue::str("/data/bin")]).unwrap();
            assert_eq!(back.as_bytes().unwrap(), &data[..]);
        }
    }

    #[test]
    fn missing_file_maps_to_file_not_found() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let err = c.call("get", &[SoapValue::str("/data/ghost")]).unwrap_err();
            assert_eq!(kind(&err), Some(PortalErrorKind::FileNotFound));
        }
    }

    #[test]
    fn quota_maps_to_disk_full() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            svc.set_quota("/data", 32);
            let err = c
                .call(
                    "put",
                    &[
                        SoapValue::str("/data/big.txt"),
                        SoapValue::str("much more than thirty-two bytes of text"),
                    ],
                )
                .unwrap_err();
            assert_eq!(kind(&err), Some(PortalErrorKind::DiskFull));
        }
    }

    #[test]
    fn acl_maps_to_permission_denied() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            svc.set_acl("/data", vec!["alice".into()]);
            let err = c.call("ls", &[SoapValue::str("/data")]).unwrap_err();
            assert_eq!(kind(&err), Some(PortalErrorKind::PermissionDenied));
        }
    }

    #[test]
    fn xml_call_batches_commands_sequentially() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let request = Element::new("request")
                .with_child(Element::new("mkdir").with_attr("path", "/data/sub"))
                .with_child(
                    Element::new("put")
                        .with_attr("path", "/data/sub/a.txt")
                        .with_text("alpha"),
                )
                .with_child(Element::new("cat").with_attr("path", "/data/sub/a.txt"))
                .with_child(Element::new("ls").with_attr("collection", "/data/sub"));
            let out = c.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
            let response = out.as_xml().unwrap();
            let results: Vec<&Element> = response.children().collect();
            assert_eq!(results.len(), 4);
            assert_eq!(results[2].text(), "alpha");
            assert_eq!(results[3].children().count(), 1);
        }
    }

    #[test]
    fn xml_call_reports_per_command_errors_inline() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let request = Element::new("request")
                .with_child(Element::new("cat").with_attr("path", "/data/ghost"))
                .with_child(Element::new("cat").with_attr("path", "/data/in.txt"));
            let out = c.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
            let response = out.as_xml().unwrap();
            let results: Vec<&Element> = response.children().collect();
            assert_eq!(results[0].attr("error"), Some("true"));
            // A failed command does not abort the batch.
            assert_eq!(results[1].text(), "line one\nline two\n");
        }
    }

    /// The collection the reply-text test lists: 128 seeded objects, a
    /// sub-collection, and the 4 objects its batch puts.
    const DIR: &str = "/data/c0";

    /// `(path, content)` of `n` objects in [`DIR`] named as `write_churn`
    /// names its own, with markup and non-ASCII text in every content.
    fn objects(prefix: char, n: u32) -> Vec<(String, String)> {
        (0..n)
            .map(|k| {
                let tag = k.wrapping_mul(2_654_435_761);
                let pad = "x".repeat(k as usize % 70);
                let content = format!("<{prefix}{k}> & \"é\" {pad}");
                (format!("{DIR}/{prefix}{k}-{tag:08x}"), content)
            })
            .collect()
    }

    /// Make `DIR` with its sub-collection and 128 objects, through
    /// whichever admin calls the broker under test has.
    fn seed(mkdir: impl Fn(&str), put: impl Fn(&str, &str)) {
        for dir in ["/data", DIR, "/data/c0/sub"] {
            mkdir(dir);
        }
        for (path, content) in objects('s', 128) {
            put(&path, &content);
        }
    }

    /// 4 puts, an `ls` of [`DIR`], 4 gets, 3 rms and one unknown command.
    fn batch(puts: &[(String, String)]) -> Element {
        let command = |op: &str, path: &str| Element::new(op).with_attr("path", path);
        let mut request = Element::new("request");
        for (path, content) in puts {
            request.push_child(command("put", path).with_text(content.as_str()));
        }
        request.push_child(Element::new("ls").with_attr("collection", DIR));
        for (path, _) in puts {
            request.push_child(command("get", path));
        }
        for (path, _) in &puts[..3] {
            request.push_child(command("rm", path));
        }
        request.with_child(command("frob", DIR))
    }

    /// The reply to [`batch`] as it was built before listings borrowed
    /// their names: `Srb::ls` on a twin broker, then one `Element` per
    /// `DirEntry` with `to_string()` attributes.
    fn reply_the_old_way(puts: &[(String, String)]) -> String {
        let twin = Srb::new();
        seed(
            |dir| twin.mkdir(dir).unwrap(),
            |path, content| twin.put("anonymous", path, content.as_bytes()).unwrap(),
        );
        for (path, content) in puts {
            twin.put("anonymous", path, content.as_bytes()).unwrap();
        }
        let result = |op: &str| Element::new("result").with_attr("op", op);
        let mut response = Element::new("response");
        for (_, content) in puts {
            response.push_child(result("put").with_attr("bytes", content.len().to_string()));
        }
        let mut ls = result("ls");
        for e in twin.ls("anonymous", DIR).unwrap() {
            ls.push_child(
                Element::new("entry")
                    .with_attr("name", e.name)
                    .with_attr("collection", e.is_collection.to_string())
                    .with_attr("size", e.size.to_string()),
            );
        }
        response.push_child(ls);
        for (_, content) in puts {
            response.push_child(result("get").with_text(content.as_str()));
        }
        for _ in &puts[..3] {
            response.push_child(result("rm"));
        }
        let unknown = SrbError::Invalid(format!("unknown command {:?}", "frob"));
        response.push_child(
            result("frob")
                .with_attr("error", "true")
                .with_text(unknown.to_string()),
        );
        response.to_xml()
    }

    #[test]
    fn xml_call_reply_text_is_what_the_old_listing_built() {
        let puts = objects('w', 4);
        let want = reply_the_old_way(&puts);
        assert!(want.contains(r#"<entry name="sub" collection="true" size="0"/>"#));

        for shards in SHARD_COUNTS {
            let svc = fresh(shards);
            seed(
                |dir| svc.mkdir(dir).unwrap(),
                |path, content| {
                    svc.put_bytes("anonymous", path, content.as_bytes())
                        .unwrap()
                },
            );
            let c = serve(&svc);
            let out = c.call("xml_call", &[SoapValue::Xml(batch(&puts))]).unwrap();
            assert_eq!(out.as_xml().unwrap().to_xml(), want);
        }
    }

    #[test]
    fn decimal_writes_every_width() {
        for n in [0, 7, 10, 4096, 123_456_789, usize::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string());
        }
    }

    #[test]
    fn xml_call_rejects_non_request_documents() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let err = c
                .call("xml_call", &[SoapValue::Xml(Element::new("wrong"))])
                .unwrap_err();
            assert!(matches!(err, SoapError::Fault(_)));
        }
    }

    #[test]
    fn unknown_method_is_fault() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            assert!(c.call("chmod", &[]).is_err());
        }
    }

    #[test]
    fn a_cached_get_past_its_ttl_costs_one_generation_probe() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            let cache = Arc::new(ReadCache::new(ReadCacheConfig {
                ttl: Duration::from_millis(1),
                ..ReadCacheConfig::default()
            }));
            c.enable_read_cache(Arc::clone(&cache), &["get"]);
            let get = || c.call("get", &[SoapValue::str("/data/in.txt")]).unwrap();
            get();
            std::thread::sleep(Duration::from_millis(5));
            let (wire, hits) = (c.transport().stats(), cache.stats());
            let (wire_before, hits_before) = (wire.snapshot(), hits.snapshot());
            assert_eq!(get().as_str(), Some("line one\nline two\n"));
            // The probe answers the generation the entry was filled at,
            // so the body is served from the cache, not fetched again.
            assert_eq!(wire.snapshot().since(&wire_before).requests, 1, "{shards}");
            assert_eq!(
                hits.snapshot().since(&hits_before).cache_hits,
                1,
                "{shards}"
            );
        }
    }

    #[test]
    fn non_utf8_get_faults_toward_binary_paths() {
        // Regression: the string path used to surface a bare broker error
        // with no redirect; callers must be pointed at getB64/open_get.
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            svc.put_bytes("anonymous", "/data/bin", &[0xC3, 0x28, 0xFF])
                .unwrap();
            for method in ["get", "cat"] {
                let err = c.call(method, &[SoapValue::str("/data/bin")]).unwrap_err();
                let fault = err.as_fault().expect("typed fault");
                assert_eq!(fault.kind(), Some(PortalErrorKind::BadArguments));
                assert!(
                    fault.string.contains("getB64") && fault.string.contains("open_get"),
                    "{method} fault must direct to the binary paths: {}",
                    fault.string
                );
            }
            // The binary paths themselves still work on the same object.
            let back = c.call("getB64", &[SoapValue::str("/data/bin")]).unwrap();
            assert_eq!(back.as_bytes().unwrap(), &[0xC3, 0x28, 0xFF]);
        }
    }

    #[test]
    fn chunked_transfer_round_trip_over_soap() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
            // Put in 7 KiB chunks.
            let handle = c
                .call("open_put", &[SoapValue::str("/data/big.bin")])
                .unwrap();
            let handle = handle.as_str().unwrap().to_owned();
            let chunk = 7 * 1024;
            let mut off = 0usize;
            while off < payload.len() {
                let end = (off + chunk).min(payload.len());
                let acked = c
                    .call(
                        "put_chunk",
                        &[
                            SoapValue::str(handle.clone()),
                            SoapValue::Int(off as i64),
                            SoapValue::Base64(payload[off..end].to_vec()),
                        ],
                    )
                    .unwrap();
                assert_eq!(acked.as_i64(), Some(end as i64));
                off = end;
            }
            let total = c.call("commit", &[SoapValue::str(handle)]).unwrap();
            assert_eq!(total.as_i64(), Some(payload.len() as i64));
            assert_eq!(
                svc.get_bytes("anonymous", "/data/big.bin").unwrap(),
                payload
            );

            // Get it back in different-sized chunks.
            let opened = c
                .call("open_get", &[SoapValue::str("/data/big.bin")])
                .unwrap();
            let gh = opened.field("handle").unwrap().as_str().unwrap().to_owned();
            let size = opened.field("size").unwrap().as_i64().unwrap() as usize;
            assert_eq!(size, payload.len());
            let mut back = Vec::new();
            let chunk = 9 * 1024;
            while back.len() < size {
                let piece = c
                    .call(
                        "get_chunk",
                        &[
                            SoapValue::str(gh.clone()),
                            SoapValue::Int(back.len() as i64),
                            SoapValue::Int(chunk as i64),
                        ],
                    )
                    .unwrap();
                let piece = piece.as_bytes().unwrap().to_vec();
                assert!(!piece.is_empty());
                back.extend_from_slice(&piece);
            }
            assert_eq!(back, payload);
            // One more read lands exactly at EOF: clean empty chunk.
            let eof = c
                .call(
                    "get_chunk",
                    &[
                        SoapValue::str(gh.clone()),
                        SoapValue::Int(size as i64),
                        SoapValue::Int(chunk as i64),
                    ],
                )
                .unwrap();
            assert_eq!(eof.as_bytes().unwrap(), b"");
            c.call("abort", &[SoapValue::str(gh)]).unwrap();
        }
    }

    #[test]
    fn chunked_put_of_zero_length_file_round_trips() {
        for shards in SHARD_COUNTS {
            let (svc, c) = client(shards);
            let handle = c
                .call("open_put", &[SoapValue::str("/data/empty.bin")])
                .unwrap();
            let handle = handle.as_str().unwrap().to_owned();
            let total = c.call("commit", &[SoapValue::str(handle)]).unwrap();
            assert_eq!(total.as_i64(), Some(0));
            assert_eq!(svc.get_bytes("anonymous", "/data/empty.bin").unwrap(), b"");
            // And the chunked read of it: open reports size 0, first read EOF.
            let opened = c
                .call("open_get", &[SoapValue::str("/data/empty.bin")])
                .unwrap();
            assert_eq!(opened.field("size").unwrap().as_i64(), Some(0));
            let gh = opened.field("handle").unwrap().as_str().unwrap().to_owned();
            let eof = c
                .call(
                    "get_chunk",
                    &[SoapValue::str(gh), SoapValue::Int(0), SoapValue::Int(4096)],
                )
                .unwrap();
            assert_eq!(eof.as_bytes().unwrap(), b"");
        }
    }

    #[test]
    fn transfer_faults_carry_typed_kinds_over_soap() {
        for shards in SHARD_COUNTS {
            let (_, c) = client(shards);
            // Unknown handle on a shard that exists → NOT_FOUND.
            let err = c
                .call(
                    "get_chunk",
                    &[
                        SoapValue::str("s0/t-404"),
                        SoapValue::Int(0),
                        SoapValue::Int(16),
                    ],
                )
                .unwrap_err();
            assert_eq!(kind(&err), Some(PortalErrorKind::NotFound));
            // Negative offset → BAD_ARGUMENTS before touching the table.
            let err = c
                .call(
                    "get_chunk",
                    &[
                        SoapValue::str("s0/t-404"),
                        SoapValue::Int(-1),
                        SoapValue::Int(16),
                    ],
                )
                .unwrap_err();
            assert_eq!(kind(&err), Some(PortalErrorKind::BadArguments));
        }
    }
}

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

use std::sync::Arc;

use portalws_gridsim::srb::{Srb, SrbError};
use portalws_soap::{
    CallContext, Fault, MethodDesc, PortalErrorKind, SoapResult, SoapService, SoapType, SoapValue,
};
use portalws_xml::Element;

use crate::caller_principal;
use crate::transfer::TransferTable;

/// SOAP facade over the Storage Resource Broker.
pub struct DataManagementService {
    srb: Arc<Srb>,
    transfers: TransferTable,
}

impl DataManagementService {
    /// Wrap a broker.
    pub fn new(srb: Arc<Srb>) -> DataManagementService {
        let transfers = TransferTable::new(Arc::clone(&srb));
        DataManagementService { srb, transfers }
    }

    /// The wrapped broker.
    pub fn srb(&self) -> &Arc<Srb> {
        &self.srb
    }

    /// The chunked-transfer handle table (benches and tests read its
    /// buffering high-water and tune its caps).
    pub fn transfers(&self) -> &TransferTable {
        &self.transfers
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

pub(crate) fn arg_str<'a>(
    args: &'a [(String, SoapValue)],
    i: usize,
    name: &str,
) -> SoapResult<&'a str> {
    args.get(i)
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}")))
}

pub(crate) fn arg_usize(args: &[(String, SoapValue)], i: usize, name: &str) -> SoapResult<usize> {
    let v = args
        .get(i)
        .and_then(|(_, v)| v.as_i64())
        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}")))?;
    usize::try_from(v).map_err(|_| {
        Fault::portal(
            PortalErrorKind::BadArguments,
            format!("{name} must be non-negative"),
        )
    })
}

impl DataManagementService {
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

    /// Execute one `xml_call` command element, returning its result
    /// element. Used by the SOAP method, the shard router (which routes
    /// each batched command to its owning backend), and tests.
    pub(crate) fn run_command(&self, principal: &str, cmd: &Element) -> Element {
        let op = cmd.local_name();
        let outcome = (|| -> Result<Element, SrbError> {
            match op {
                "ls" => {
                    // The broker rejects relative and blank paths, so a
                    // missing attribute faults up front instead of being
                    // papered over with a default.
                    let path = cmd
                        .attr("collection")
                        .ok_or_else(|| SrbError::Invalid("ls needs collection".into()))?;
                    let mut out = Element::new("result").with_attr("op", "ls");
                    self.srb
                        .ls_each(principal, path, |name, is_collection, size| {
                            out.push_child(ls_entry(name, is_collection, size))
                        })?;
                    Ok(out)
                }
                "cat" => {
                    let path = cmd
                        .attr("path")
                        .ok_or_else(|| SrbError::Invalid("cat needs path".into()))?;
                    let text = self.srb.cat(principal, path)?;
                    Ok(Element::new("result")
                        .with_attr("op", "cat")
                        .with_text(text))
                }
                "get" => {
                    let path = cmd
                        .attr("path")
                        .ok_or_else(|| SrbError::Invalid("get needs path".into()))?;
                    let text = self.srb.cat(principal, path)?;
                    Ok(Element::new("result")
                        .with_attr("op", "get")
                        .with_text(text))
                }
                "put" => {
                    let path = cmd
                        .attr("path")
                        .ok_or_else(|| SrbError::Invalid("put needs path".into()))?;
                    let text = cmd.text();
                    self.srb.put(principal, path, text.as_bytes())?;
                    Ok(Element::new("result")
                        .with_attr("op", "put")
                        .with_attr("bytes", decimal(text.len(), &mut [0; 20])))
                }
                "rm" => {
                    let path = cmd
                        .attr("path")
                        .ok_or_else(|| SrbError::Invalid("rm needs path".into()))?;
                    self.srb.rm(principal, path)?;
                    Ok(Element::new("result").with_attr("op", "rm"))
                }
                "mkdir" => {
                    let path = cmd
                        .attr("path")
                        .ok_or_else(|| SrbError::Invalid("mkdir needs path".into()))?;
                    self.srb.mkdir(path)?;
                    Ok(Element::new("result").with_attr("op", "mkdir"))
                }
                other => Err(SrbError::Invalid(format!("unknown command {other:?}"))),
            }
        })();
        match outcome {
            Ok(el) => el,
            Err(e) => Element::new("result")
                .with_attr("op", op)
                .with_attr("error", "true")
                .with_text(e.to_string()),
        }
    }
}

impl SoapService for DataManagementService {
    fn name(&self) -> &str {
        "DataManagement"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let principal = caller_principal(ctx);
        match method {
            "ls" => {
                let path = arg_str(args, 0, "collection")?;
                let entries = self.srb.ls(&principal, path).map_err(srb_fault)?;
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
            "cat" => {
                let path = arg_str(args, 0, "path")?;
                Ok(SoapValue::String(self.cat_utf8(&principal, path)?))
            }
            // String streaming, exactly as deployed in 2002.
            "get" => {
                let path = arg_str(args, 0, "path")?;
                Ok(SoapValue::String(self.cat_utf8(&principal, path)?))
            }
            "put" => {
                let path = arg_str(args, 0, "path")?;
                let content = arg_str(args, 1, "content")?;
                self.srb
                    .put(&principal, path, content.as_bytes())
                    .map_err(srb_fault)?;
                Ok(SoapValue::Int(content.len() as i64))
            }
            // Base64 ablation (E5): binary-safe, no escaping amplification.
            "getB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = self.srb.get(&principal, path).map_err(srb_fault)?;
                Ok(SoapValue::Base64(bytes))
            }
            "putB64" => {
                let path = arg_str(args, 0, "path")?;
                let bytes = args
                    .get(1)
                    .and_then(|(_, v)| v.as_bytes())
                    .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "missing data"))?;
                self.srb.put(&principal, path, bytes).map_err(srb_fault)?;
                Ok(SoapValue::Int(bytes.len() as i64))
            }
            "rm" => {
                let path = arg_str(args, 0, "path")?;
                self.srb.rm(&principal, path).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            "mkdir" => {
                let path = arg_str(args, 0, "path")?;
                self.srb.mkdir(path).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            // Namespace moves (PR 10): atomic within one broker, and the
            // building block the shard router composes its cross-shard
            // move protocol from.
            "rename" => {
                let from = arg_str(args, 0, "from")?;
                let to = arg_str(args, 1, "to")?;
                self.srb.rename(&principal, from, to).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            "cp" => {
                let from = arg_str(args, 0, "from")?;
                let to = arg_str(args, 1, "to")?;
                self.srb.cp(&principal, from, to).map_err(srb_fault)?;
                Ok(SoapValue::Null)
            }
            // Chunked streaming transfer protocol (E13): SOAP stays the
            // control channel, the payload moves as bounded chunks.
            "open_get" => {
                let path = arg_str(args, 0, "path")?;
                let (handle, size) = self
                    .transfers
                    .open_get(&principal, path)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Struct(vec![
                    ("handle".into(), SoapValue::str(handle)),
                    ("size".into(), SoapValue::Int(size as i64)),
                ]))
            }
            "get_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let len = arg_usize(args, 2, "length")?;
                let bytes = self
                    .transfers
                    .get_chunk(&principal, handle, off, len)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Base64(bytes))
            }
            "open_put" => {
                let path = arg_str(args, 0, "path")?;
                let handle = self
                    .transfers
                    .open_put(&principal, path)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::String(handle))
            }
            "put_chunk" => {
                let handle = arg_str(args, 0, "handle")?;
                let off = arg_usize(args, 1, "offset")?;
                let data = args
                    .get(2)
                    .and_then(|(_, v)| v.as_bytes())
                    .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, "missing data"))?;
                let acked = self
                    .transfers
                    .put_chunk(&principal, handle, off, data)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(acked as i64))
            }
            "commit" => {
                let handle = arg_str(args, 0, "handle")?;
                let total = self
                    .transfers
                    .commit(&principal, handle)
                    .map_err(|e| e.to_fault())?;
                Ok(SoapValue::Int(total as i64))
            }
            "abort" => {
                let handle = arg_str(args, 0, "handle")?;
                self.transfers
                    .abort(&principal, handle)
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
                    response.push_child(self.run_command(&principal, cmd));
                }
                Ok(SoapValue::Xml(response))
            }
            other => Err(Fault::client(format!(
                "DataManagement has no method {other:?}"
            ))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "ls",
                vec![("collection", SoapType::String)],
                SoapType::Array,
                "Directory listing of an SRB collection",
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
                "Atomically move an object, replacing any existing destination",
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
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::{SoapClient, SoapError, SoapServer};
    use portalws_wire::{Handler, InMemoryTransport};

    fn client() -> (Arc<Srb>, SoapClient) {
        let srb = Arc::new(Srb::new());
        srb.mkdir("/data").unwrap();
        srb.put("anonymous", "/data/in.txt", b"line one\nline two\n")
            .unwrap();
        let server = SoapServer::new();
        server.mount(Arc::new(DataManagementService::new(Arc::clone(&srb))));
        let handler: Arc<dyn Handler> = Arc::new(server);
        (
            srb,
            SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "DataManagement"),
        )
    }

    #[test]
    fn ls_returns_array_of_structs() {
        let (_, c) = client();
        let out = c.call("ls", &[SoapValue::str("/data")]).unwrap();
        let arr = out.as_array().unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].field("name").unwrap().as_str(), Some("in.txt"));
        assert_eq!(arr[0].field("size").unwrap().as_i64(), Some(18));
    }

    #[test]
    fn cat_and_get_stream_strings() {
        let (_, c) = client();
        let out = c.call("cat", &[SoapValue::str("/data/in.txt")]).unwrap();
        assert_eq!(out.as_str().unwrap(), "line one\nline two\n");
        let out = c.call("get", &[SoapValue::str("/data/in.txt")]).unwrap();
        assert!(out.as_str().unwrap().starts_with("line one"));
    }

    #[test]
    fn put_then_get_round_trip() {
        let (srb, c) = client();
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
        assert_eq!(srb.cat("anonymous", "/data/out.txt").unwrap(), content);
        let back = c.call("get", &[SoapValue::str("/data/out.txt")]).unwrap();
        assert_eq!(back.as_str().unwrap(), content);
    }

    #[test]
    fn rename_and_cp_over_soap() {
        let (srb, c) = client();
        c.call(
            "rename",
            &[
                SoapValue::str("/data/in.txt"),
                SoapValue::str("/data/moved.txt"),
            ],
        )
        .unwrap();
        assert!(srb.stat("anonymous", "/data/in.txt").is_err());
        c.call(
            "cp",
            &[
                SoapValue::str("/data/moved.txt"),
                SoapValue::str("/data/copy.txt"),
            ],
        )
        .unwrap();
        assert_eq!(
            srb.cat("anonymous", "/data/moved.txt").unwrap(),
            "line one\nline two\n"
        );
        assert_eq!(
            srb.cat("anonymous", "/data/copy.txt").unwrap(),
            "line one\nline two\n"
        );
    }

    #[test]
    fn base64_round_trip_is_binary_safe() {
        let (_, c) = client();
        let data: Vec<u8> = (0u8..=255).collect();
        c.call(
            "putB64",
            &[SoapValue::str("/data/bin"), SoapValue::Base64(data.clone())],
        )
        .unwrap();
        let back = c.call("getB64", &[SoapValue::str("/data/bin")]).unwrap();
        assert_eq!(back.as_bytes().unwrap(), &data[..]);
    }

    #[test]
    fn missing_file_maps_to_file_not_found() {
        let (_, c) = client();
        let err = c.call("get", &[SoapValue::str("/data/ghost")]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::FileNotFound)
        );
    }

    #[test]
    fn quota_maps_to_disk_full() {
        let (srb, c) = client();
        srb.set_quota("/data", 32);
        let err = c
            .call(
                "put",
                &[
                    SoapValue::str("/data/big.txt"),
                    SoapValue::str("much more than thirty-two bytes of text"),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::DiskFull)
        );
    }

    #[test]
    fn acl_maps_to_permission_denied() {
        let (srb, c) = client();
        srb.set_acl("/data", vec!["alice".into()]);
        let err = c.call("ls", &[SoapValue::str("/data")]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::PermissionDenied)
        );
    }

    #[test]
    fn xml_call_batches_commands_sequentially() {
        let (_, c) = client();
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

    #[test]
    fn xml_call_reports_per_command_errors_inline() {
        let (_, c) = client();
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

        let srb = Arc::new(Srb::new());
        seed(
            |dir| srb.mkdir(dir).unwrap(),
            |path, content| srb.put("anonymous", path, content.as_bytes()).unwrap(),
        );
        let router = Arc::new(crate::shard::ShardedDataService::new(3));
        seed(
            |dir| router.mkdir(dir).unwrap(),
            |path, content| {
                router
                    .put_bytes("anonymous", path, content.as_bytes())
                    .unwrap()
            },
        );
        let services: [Arc<dyn portalws_soap::SoapService>; 2] =
            [Arc::new(DataManagementService::new(srb)), router];
        for service in services {
            let server = SoapServer::new();
            server.mount(service);
            let handler: Arc<dyn Handler> = Arc::new(server);
            let transport = Arc::new(InMemoryTransport::new(handler));
            let c = SoapClient::new(transport, "DataManagement");
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
        let (_, c) = client();
        let err = c
            .call("xml_call", &[SoapValue::Xml(Element::new("wrong"))])
            .unwrap_err();
        assert!(matches!(err, SoapError::Fault(_)));
    }

    #[test]
    fn unknown_method_is_fault() {
        let (_, c) = client();
        assert!(c.call("chmod", &[]).is_err());
    }

    #[test]
    fn non_utf8_get_faults_toward_binary_paths() {
        // Regression: the string path used to surface a bare broker error
        // with no redirect; callers must be pointed at getB64/open_get.
        let (srb, c) = client();
        srb.put("anonymous", "/data/bin", &[0xC3, 0x28, 0xFF])
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

    #[test]
    fn chunked_transfer_round_trip_over_soap() {
        let (srb, c) = client();
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
        assert_eq!(srb.get("anonymous", "/data/big.bin").unwrap(), payload);

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

    #[test]
    fn chunked_put_of_zero_length_file_round_trips() {
        let (srb, c) = client();
        let handle = c
            .call("open_put", &[SoapValue::str("/data/empty.bin")])
            .unwrap();
        let handle = handle.as_str().unwrap().to_owned();
        let total = c.call("commit", &[SoapValue::str(handle)]).unwrap();
        assert_eq!(total.as_i64(), Some(0));
        assert_eq!(srb.get("anonymous", "/data/empty.bin").unwrap(), b"");
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

    #[test]
    fn transfer_faults_carry_typed_kinds_over_soap() {
        let (_, c) = client();
        // Unknown handle → NOT_FOUND.
        let err = c
            .call(
                "get_chunk",
                &[
                    SoapValue::str("t-404"),
                    SoapValue::Int(0),
                    SoapValue::Int(16),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::NotFound)
        );
        // Negative offset → BAD_ARGUMENTS before touching the table.
        let err = c
            .call(
                "get_chunk",
                &[
                    SoapValue::str("t-404"),
                    SoapValue::Int(-1),
                    SoapValue::Int(16),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::BadArguments)
        );
    }
}

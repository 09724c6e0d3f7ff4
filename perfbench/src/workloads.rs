//! The four workloads: their seeded inputs, their stand-up, and one op
//! each, with every reply checked.
//!
//! All inputs (scripts, object names and contents, payload bytes) come
//! from the seed before any clock starts; op `i` takes entry `i % len`
//! of its workload's table, so the program only ever sees generated data.

use std::sync::Arc;

use portalws_core::{PortalDeployment, SecurityMode, TransferClient, TransferConfig, UiServer};
use portalws_soap::{ReadCache, SoapClient, SoapValue};
use portalws_wsdl::DynamicClient;
use portalws_xml::Element;

use crate::trace::{span, TapCounters};

pub const GRID_HOST: &str = "grid.sdsc.edu";
pub const README: &str = "GCE testbed public collection\n";
/// Size of each workload's table of per-op inputs.
const TABLE: usize = 64;

/// `write_churn`'s data set: sub-collections of the user's home, and
/// seeded objects in each (3,072 in all).
pub const CHURN_COLLECTIONS: usize = 24;
pub const CHURN_OBJECTS_PER_COLLECTION: usize = 128;
/// Objects each churn op writes in its batch; all but the last are
/// removed in the batch, the last is renamed and then removed.
pub const CHURN_PUTS: usize = 4;
/// Commands in one churn batch: puts, one `ls`, gets, rms.
pub const CHURN_COMMANDS: usize = CHURN_PUTS + 1 + CHURN_PUTS + (CHURN_PUTS - 1);

/// `bulk_transfer`'s payload size and the transfer client's window. One
/// chunk in flight keeps one thread busy: with two, on a 2-vCPU VM the
/// hypervisor stole 15-30% of CPU time and the op's run-to-run spread
/// reached 45% (see README.md).
pub const BULK_BYTES: usize = 2 << 20;
pub const BULK_WINDOW: usize = 1;
pub const BULK_COLLECTION: &str = "/bulk";

/// Each workload is one closed-loop client: the portal's UI server waits
/// for every reply before the user's next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PortalSession,
    WriteChurn,
    BulkTransfer,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PortalSession,
        Workload::WriteChurn,
        Workload::BulkTransfer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PortalSession => "portal_session",
            Workload::WriteChurn => "write_churn",
            Workload::BulkTransfer => "bulk_transfer",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed ops after which `peak_rss_mib` is read. A fixed count, not
    /// the run's end: retained records grow with every op, so a peak
    /// read at the end would rise whenever ops got faster.
    pub fn rss_mark_ops(self) -> u64 {
        match self {
            Workload::PortalSession => 10_000,
            Workload::WriteChurn => 5_000,
            Workload::BulkTransfer => 40,
        }
    }

    /// Full stand-ups per run; `setup_s` is their median.
    pub fn standups(self) -> usize {
        match self {
            Workload::BulkTransfer => 9,
            _ => 21,
        }
    }
}

/// splitmix64: a small, well-mixed generator, so inputs depend only on
/// the seed and this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Printable text: letters, digits and spaces.
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }
}

pub struct SessionInput {
    pub host: &'static str,
    pub script: String,
}

pub struct ChurnInput {
    pub collection: usize,
    /// Leaf names of the batch's objects, and their contents.
    pub names: Vec<String>,
    pub contents: Vec<String>,
    /// Leaf name the last object is renamed to.
    pub renamed: String,
}

/// Every input of one run.
pub struct Inputs {
    pub session: Vec<SessionInput>,
    pub churn: Vec<ChurnInput>,
    /// `(collection index, leaf, content)` of the seeded home objects.
    pub churn_seed: Vec<(usize, String, String)>,
    pub bulk: Vec<(String, Vec<u8>)>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut inputs = Inputs {
            session: Vec::new(),
            churn: Vec::new(),
            churn_seed: Vec::new(),
            bulk: Vec::new(),
        };
        match workload {
            Workload::PortalSession => {
                inputs.session = (0..TABLE)
                    .map(|_| {
                        let (name, nodes, minutes) =
                            (rng.below(1 << 24), 1 + rng.below(4), 1 + rng.below(59));
                        let len = 12 + rng.below(24) as usize;
                        SessionInput {
                            host: "tg-login",
                            script: format!(
                                "#!/bin/sh\n#PBS -N pb{name:06x}\n#PBS -q batch\n#PBS -l nodes={nodes}\n#PBS -l walltime=00:{minutes:02}:00\n{}\n",
                                rng.text(len),
                            ),
                        }
                    })
                    .collect();
            }
            Workload::WriteChurn => {
                for c in 0..CHURN_COLLECTIONS {
                    for k in 0..CHURN_OBJECTS_PER_COLLECTION {
                        let leaf = format!("s{k}-{:08x}", rng.below(1 << 32));
                        let len = 32 + rng.below(64) as usize;
                        inputs.churn_seed.push((c, leaf, rng.text(len)));
                    }
                }
                inputs.churn = (0..TABLE)
                    .map(|_| {
                        let tag = rng.below(1 << 32);
                        ChurnInput {
                            collection: rng.below(CHURN_COLLECTIONS as u64) as usize,
                            names: (0..CHURN_PUTS).map(|j| format!("w{tag:08x}-{j}")).collect(),
                            contents: (0..CHURN_PUTS)
                                .map(|_| {
                                    let len = 32 + rng.below(64) as usize;
                                    rng.text(len)
                                })
                                .collect(),
                            renamed: format!("r{tag:08x}"),
                        }
                    })
                    .collect();
            }
            Workload::BulkTransfer => {
                inputs.bulk = (0..2)
                    .map(|_| {
                        let path = format!("{BULK_COLLECTION}/blob-{:08x}", rng.below(1 << 32));
                        let mut bytes = Vec::with_capacity(BULK_BYTES);
                        while bytes.len() < BULK_BYTES {
                            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
                        }
                        (path, bytes)
                    })
                    .collect();
            }
        }
        inputs
    }
}

/// Why an op did not complete.
#[derive(Debug)]
pub enum OpError {
    /// A call returned an error: counted as a failed op.
    Failed(String),
    /// A reply was wrong: fails the whole run.
    Wrong(String),
}

fn failed(e: impl std::fmt::Display) -> OpError {
    OpError::Failed(e.to_string())
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), OpError> {
    if ok {
        Ok(())
    } else {
        Err(OpError::Wrong(what()))
    }
}

/// What an op reports beyond its latency.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpReport {
    pub transfer_chunks: usize,
    pub transfer_high_water: usize,
    pub transfer_bytes: usize,
    pub xml_commands: usize,
}

/// The workload's client: a UI server and, for the data workloads, a
/// logged-in `DataManagement` proxy.
pub struct Client {
    pub ui: UiServer,
    pub user: (&'static str, &'static str),
    pub data: Option<SoapClient>,
}

/// A stood-up deployment with its client.
pub struct Rig {
    pub workload: Workload,
    pub deployment: Arc<PortalDeployment>,
    pub cache: Option<Arc<ReadCache>>,
    pub client: Client,
}

fn home(user: &str) -> String {
    format!("/home-{user}")
}

impl Rig {
    /// Stand up the deployment and load the workload's data set (the
    /// warm-up op is the caller's).
    pub fn stand_up(workload: Workload, inputs: &Inputs) -> Rig {
        let deployment = PortalDeployment::in_memory(SecurityMode::Central);
        let user = portalws_core::deployment::USERS[0];
        let ui = UiServer::new(Arc::clone(&deployment));
        let cache = (workload == Workload::PortalSession).then(|| {
            let cache = Arc::new(ReadCache::default());
            ui.enable_read_caching(Arc::clone(&cache))
        });
        let srb = &deployment.srb;
        let data = match workload {
            Workload::PortalSession => None,
            Workload::WriteChurn | Workload::BulkTransfer => {
                if workload == Workload::WriteChurn {
                    for c in 0..CHURN_COLLECTIONS {
                        srb.mkdir(&format!("{}/c{c}", home(user.0)))
                            .expect("fresh sub-collection");
                    }
                    for (c, leaf, content) in &inputs.churn_seed {
                        srb.put(
                            user.0,
                            &format!("{}/c{c}/{leaf}", home(user.0)),
                            content.as_bytes(),
                        )
                        .expect("seed object within quota");
                    }
                } else {
                    srb.mkdir(BULK_COLLECTION).expect("fresh bulk collection");
                }
                ui.login(user.0, user.1).expect("registered user logs in");
                Some(
                    ui.proxy(GRID_HOST, "DataManagement")
                        .expect("grid host exists"),
                )
            }
        };
        Rig {
            workload,
            deployment,
            cache,
            client: Client { ui, user, data },
        }
    }

    /// Point the data proxy at a tapped transport (traced phase).
    pub fn tap_data_proxy(&mut self, tap: &Arc<TapCounters>) {
        if self.client.data.is_some() {
            self.client.data = Some(tapped_proxy(&self.client, tap));
        }
    }

    /// Check the state the run must leave behind.
    pub fn check_final_state(&self, inputs: &Inputs) -> Result<(), String> {
        if self.workload == Workload::WriteChurn {
            let user = self.client.user.0;
            for c in 0..CHURN_COLLECTIONS {
                let path = format!("{}/c{c}", home(user));
                let n = self
                    .deployment
                    .srb
                    .ls(user, &path)
                    .map_err(|e| e.to_string())?
                    .len();
                let seeded = inputs.churn_seed.iter().filter(|s| s.0 == c).count();
                if n != seeded {
                    return Err(format!("{path} holds {n} objects, seeded {seeded}"));
                }
            }
        }
        Ok(())
    }

    /// Run op `i`.
    pub fn op(
        &self,
        i: u64,
        inputs: &Inputs,
        tap: Option<&Arc<TapCounters>>,
    ) -> Result<OpReport, OpError> {
        let client = &self.client;
        let entry = i as usize % TABLE;
        span("op", || match self.workload {
            Workload::PortalSession => {
                session_op(client, &inputs.session[entry], tap).map(|()| OpReport::default())
            }
            Workload::WriteChurn => churn_op(client, &inputs.churn[entry]),
            Workload::BulkTransfer => bulk_op(client, &inputs.bulk[entry % inputs.bulk.len()]),
        })
    }
}

/// A `DataManagement` proxy over a tapped grid transport, carrying the
/// client's session like `UiServer::proxy` does.
fn tapped_proxy(client: &Client, tap: &Arc<TapCounters>) -> SoapClient {
    let transport = client
        .ui
        .deployment()
        .transport(GRID_HOST)
        .expect("grid host exists");
    let proxy = SoapClient::new(tap.wrap(transport), "DataManagement");
    if let Some(session) = client.ui.session() {
        proxy.set_header_supplier(session.header_supplier());
    }
    proxy
}

/// login → find → bind → submit → status ×2 → get README → cancel →
/// logout.
fn session_op(
    client: &Client,
    input: &SessionInput,
    tap: Option<&Arc<TapCounters>>,
) -> Result<(), OpError> {
    let ui = &client.ui;
    span("core.login", || ui.login(client.user.0, client.user.1)).map_err(failed)?;
    let result = (|| {
        let hits = span("core.find", || ui.find_services("Job")).map_err(failed)?;
        let hit = hits
            .iter()
            .find(|h| h.name == "JobSubmission")
            .ok_or_else(|| OpError::Wrong(format!("find(Job) lacks JobSubmission: {hits:?}")))?;
        let job = span("core.bind", || -> Result<DynamicClient, OpError> {
            let bound = ui.bind(hit).map_err(failed)?;
            Ok(match tap {
                // Traced: rebind the same definition over a tap on the
                // transport the UI server chose, with the same session.
                Some(tap) => {
                    let rebound = DynamicClient::bind(
                        bound.wsdl().clone(),
                        tap.wrap(Arc::clone(bound.soap_client().transport())),
                    );
                    if let Some(session) = ui.session() {
                        rebound
                            .soap_client()
                            .set_header_supplier(session.header_supplier());
                    }
                    rebound
                }
                None => bound,
            })
        })?;
        let data = match tap {
            Some(tap) => tapped_proxy(client, tap),
            None => ui.proxy(GRID_HOST, "DataManagement").map_err(failed)?,
        };
        let args = [
            SoapValue::str(input.host),
            SoapValue::str("PBS"),
            SoapValue::str(input.script.as_str()),
        ];
        let id = span("wsdl.call", || job.call("submit", &args)).map_err(failed)?;
        let id_num = id
            .as_i64()
            .ok_or_else(|| OpError::Wrong(format!("submit returned {id:?}")))?;
        for _ in 0..2 {
            let st = span("wsdl.call", || {
                job.call("status", std::slice::from_ref(&id))
            })
            .map_err(failed)?;
            let field = |f: &str| st.field(f).cloned();
            check(
                field("jobId").and_then(|v| v.as_i64()) == Some(id_num)
                    && field("host").as_ref().and_then(|v| v.as_str()) == Some(input.host)
                    && field("scheduler").as_ref().and_then(|v| v.as_str()) == Some("PBS")
                    && field("state").as_ref().and_then(|v| v.as_str()) == Some("QUEUED"),
                || format!("status({id_num}) returned another job: {st:?}"),
            )?;
        }
        let readme = span("soap.call", || {
            data.call("get", &[SoapValue::str("/public/README")])
        })
        .map_err(failed)?;
        check(readme.as_str() == Some(README), || {
            format!("get README returned {readme:?}")
        })?;
        let out = span("wsdl.call", || {
            job.call("cancel", std::slice::from_ref(&id))
        })
        .map_err(failed)?;
        check(matches!(out, SoapValue::Null), || {
            format!("cancel returned {out:?}")
        })
    })();
    span("core.logout", || ui.logout());
    result
}

/// One §3.2 `xml_call` batch (puts, `ls`, gets, rms), then a single-call
/// rename and rm. The namespace ends where it started.
fn churn_op(client: &Client, input: &ChurnInput) -> Result<OpReport, OpError> {
    let data = client.data.as_ref().expect("data proxy set up");
    let dir = format!("{}/c{}", home(client.user.0), input.collection);
    let paths: Vec<String> = input.names.iter().map(|n| format!("{dir}/{n}")).collect();
    let mut request = Element::new("request");
    for (path, content) in paths.iter().zip(&input.contents) {
        request.push_child(
            Element::new("put")
                .with_attr("path", path.as_str())
                .with_text(content.as_str()),
        );
    }
    request.push_child(Element::new("ls").with_attr("collection", dir.as_str()));
    for path in &paths {
        request.push_child(Element::new("get").with_attr("path", path.as_str()));
    }
    for path in &paths[..CHURN_PUTS - 1] {
        request.push_child(Element::new("rm").with_attr("path", path.as_str()));
    }
    let reply = span("soap.call", || {
        data.call("xml_call", &[SoapValue::Xml(request)])
    })
    .map_err(failed)?;
    let results: Vec<&Element> = reply
        .as_xml()
        .ok_or_else(|| OpError::Wrong(format!("xml_call returned {reply:?}")))?
        .children()
        .collect();
    check(results.len() == CHURN_COMMANDS, || {
        format!(
            "xml_call returned {} results for {CHURN_COMMANDS} commands",
            results.len()
        )
    })?;
    if let Some(bad) = results.iter().find(|r| r.attr("error").is_some()) {
        return Err(OpError::Wrong(format!(
            "xml_call command failed: {}",
            bad.to_xml()
        )));
    }
    let listed: Vec<&str> = results[CHURN_PUTS]
        .children()
        .filter_map(|e| e.attr("name"))
        .collect();
    check(
        input.names.iter().all(|n| listed.contains(&n.as_str())),
        || format!("ls {dir} does not list the objects just written"),
    )?;
    for (k, content) in input.contents.iter().enumerate() {
        let got = results[CHURN_PUTS + 1 + k].text();
        check(got == *content, || {
            format!("get {} returned other bytes", paths[k])
        })?;
    }
    let last = &paths[CHURN_PUTS - 1];
    let renamed = format!("{dir}/{}", input.renamed);
    let out = span("soap.call", || {
        data.call(
            "rename",
            &[
                SoapValue::str(last.as_str()),
                SoapValue::str(renamed.as_str()),
            ],
        )
    })
    .map_err(failed)?;
    check(matches!(out, SoapValue::Null), || {
        format!("rename returned {out:?}")
    })?;
    let out = span("soap.call", || {
        data.call("rm", &[SoapValue::str(renamed.as_str())])
    })
    .map_err(failed)?;
    check(matches!(out, SoapValue::Null), || {
        format!("rm returned {out:?}")
    })?;
    Ok(OpReport {
        xml_commands: CHURN_COMMANDS,
        ..OpReport::default()
    })
}

/// Chunked put, then get, of a seeded incompressible payload.
fn bulk_op(client: &Client, (path, payload): &(String, Vec<u8>)) -> Result<OpReport, OpError> {
    let data = client.data.as_ref().expect("data proxy set up");
    let tc = TransferClient::with_config(
        data,
        TransferConfig {
            window: BULK_WINDOW,
            ..TransferConfig::default()
        },
    );
    let put = span("core.transfer", || tc.put(path, payload)).map_err(failed)?;
    check(put.bytes == payload.len(), || {
        format!("put moved {} of {} bytes", put.bytes, payload.len())
    })?;
    let (got, get) = span("core.transfer", || tc.get(path)).map_err(failed)?;
    check(got == *payload, || {
        format!(
            "get {path} returned {} bytes that differ from the put",
            got.len()
        )
    })?;
    Ok(OpReport {
        transfer_chunks: put.chunks + get.chunks,
        transfer_high_water: put.buffer_high_water.max(get.buffer_high_water),
        transfer_bytes: put.bytes + get.bytes,
        xml_commands: 0,
    })
}

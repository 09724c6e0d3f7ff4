//! Deployment: the multi-server GCE testbed topology.
//!
//! Figure 1's premise is that every piece "runs on a separate web
//! server". This module stands up that topology:
//!
//! | Logical host        | Services |
//! |---------------------|----------|
//! | `registry.gce.org`  | `Uddi`, `ContainerRegistry` |
//! | `auth.gce.org`      | `Authentication` |
//! | `grid.sdsc.edu`     | `JobSubmission`, `DataManagement`, `BatchJob` |
//! | `gateway.iu.edu`    | `BatchScriptGen` (IU impl), `ContextManager`, decomposed context services |
//! | `hotpage.sdsc.edu`  | `BatchScriptGen` (SDSC impl) |
//!
//! Every host also publishes `/wsdl/<Service>` documents, and the UDDI is
//! pre-populated with the testbed's businesses and services (with the
//! era-faithful free-text capability descriptions), while the container
//! registry carries the same services with *typed* metadata — the two
//! sides of experiment E7.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use portalws_auth::{guard, AuthService, AuthSoapFacade};
use portalws_gridsim::clock::SimClock;
use portalws_gridsim::grid::Grid;
use portalws_gridsim::srb::Srb;
use portalws_registry::{
    BindingTemplate, ContainerRegistry, ContainerRegistryService, ServiceEntry, UddiRegistry,
    UddiService,
};
use portalws_services::context::{ContextManagerMonolith, ContextStore, DecomposedContextServices};
use portalws_services::scriptgen::{ContextCoupling, IuScriptGen, SdscScriptGen};
use portalws_services::{
    AppFactoryService, BatchJobService, DataManagementService, JobSubmissionService,
};
use portalws_soap::{SoapClient, SoapServer, SoapService};
use portalws_wire::{
    derive_seed, ChaosConfig, ChaosTransport, Handler, HttpServer, InMemoryTransport, Pool,
    PoolConfig, PooledTransport, Request, Response, RetryPolicy, Router, SeededServerChaos,
    ServerArm, ServerChaosConfig, ServerConfig, ServerHandle, Transport, WireError, WireStats,
};
use portalws_wsdl::handler::WsdlHandler;
use portalws_wsdl::WsdlDefinition;
use portalws_xml::Element;

use crate::{PortalError, Result};

/// How SOAP Service Providers verify callers (the E2 arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// No authentication (baseline).
    Open,
    /// Figure 2 central verification: SSPs forward assertions to the
    /// Authentication Service per call.
    Central,
    /// Decentralized ablation: SSPs verify in-process.
    Local,
}

/// Client transport regime for the testbed — the deployment-wide flag
/// switching every consumer (registry lookups, job submission, the Fig. 2
/// auth hop, the portal shell) between the 2002 connect-per-call wire and
/// the pooled keep-alive one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// Full message framing, no sockets (tests and micro-benchmarks).
    #[default]
    InMemory,
    /// One TCP connection per call — the 2002 regime, kept as the
    /// benchmark ablation baseline: the pooled transport over a pool that
    /// parks nothing, with no retries.
    TcpPerCall,
    /// Keep-alive connections drawn from a deployment-wide pool, with
    /// per-request deadlines and bounded idempotent retry.
    TcpPooled,
}

/// A deployment-wide fault schedule: one master seed fans out to a
/// per-host client seed (`derive_seed(seed, host)`) and a per-host server
/// seed (`derive_seed(seed, "server:<host>")`), so every failure the
/// topology produces is replayable from the single printed `seed`.
///
/// Client-side faults apply in every [`TransportMode`]; the server-side
/// response hook only exists where there is a real TCP server, so it is a
/// no-op under [`TransportMode::InMemory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Master seed, printed by the soak harness for replay.
    pub seed: u64,
    /// Client-side fault probabilities (per request).
    pub client: ChaosConfig,
    /// Server-side fault probabilities (per response).
    pub server: ServerChaosConfig,
}

impl ChaosPolicy {
    /// Derive the whole schedule from one seed: fault mixes and rates are
    /// themselves seeded, so distinct seeds explore distinct regimes.
    pub fn from_seed(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            client: ChaosConfig::from_seed(derive_seed(seed, "client-config")),
            server: ServerChaosConfig::from_seed(derive_seed(seed, "server-config")),
        }
    }

    /// A fixed moderate mix (every fault class enabled) under `seed`.
    pub fn moderate(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            client: ChaosConfig::moderate(),
            server: ServerChaosConfig::moderate(),
        }
    }
}

/// Everything that varies between testbed stand-ups, for
/// [`PortalDeployment::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// How SSPs verify callers.
    pub security: SecurityMode,
    /// How clients reach the logical hosts.
    pub transport: TransportMode,
    /// Server loop and admission bounds on every logical host, orthogonal
    /// to [`Topology::transport`], which picks the *client* side. TCP
    /// modes only: in-memory deployments run no server loop.
    pub server: ServerConfig,
    /// The fault schedule, if any: every client transport is wrapped in a
    /// [`ChaosTransport`] and (in TCP modes) every server gets a seeded
    /// response hook. E12 soaks this.
    pub chaos: Option<ChaosPolicy>,
    /// Brokers behind `DataManagement`, each top-level collection on the
    /// one its consistent-hash map names (the e12 cross-shard move family
    /// runs 3 on both server arms).
    pub data_shards: usize,
}

impl Topology {
    /// In memory, one data shard, fault-free, default servers, under
    /// `security`.
    pub fn new(security: SecurityMode) -> Topology {
        Topology {
            security,
            transport: TransportMode::InMemory,
            server: ServerConfig::default(),
            chaos: None,
            data_shards: 1,
        }
    }
}

/// One logical server: a router holding `/soap`, `/wsdl`, and the
/// decentralized-discovery document at `/inspection.wsil`.
struct LogicalServer {
    router: Arc<Router>,
    soap: Arc<SoapServer>,
    wsdl: Arc<WsdlHandler>,
    wsil: Arc<portalws_registry::WsilHandler>,
}

impl LogicalServer {
    fn new() -> LogicalServer {
        let router = Arc::new(Router::new());
        let soap = Arc::new(SoapServer::new());
        let wsdl = Arc::new(WsdlHandler::new());
        let wsil = Arc::new(portalws_registry::WsilHandler::new());
        router.mount("/soap", Arc::clone(&soap) as Arc<dyn Handler>);
        router.mount("/wsdl", Arc::clone(&wsdl) as Arc<dyn Handler>);
        router.mount("/inspection.wsil", Arc::clone(&wsil) as Arc<dyn Handler>);
        LogicalServer {
            router,
            soap,
            wsdl,
            wsil,
        }
    }

    fn mount(&self, host: &str, service: Arc<dyn SoapService>) {
        let endpoint = format!("http://{host}/soap/{}", service.name());
        self.wsdl
            .publish(WsdlDefinition::from_service(&*service).with_endpoint(endpoint.clone()));
        self.wsil.announce(portalws_registry::WsilService {
            name: service.name().to_owned(),
            abstract_text: service
                .methods()
                .first()
                .map(|m| m.doc.clone())
                .unwrap_or_default(),
            wsdl_location: format!("http://{host}/wsdl/{}", service.name()),
            endpoint,
        });
        self.soap.mount(service);
    }
}

/// A host's own transport, reached through a `Weak` reference upgraded
/// per call: the client side of a service that calls a sibling on its own
/// host. BatchJob's JobSubmission client rides on the grid host's
/// transport, which in memory holds the grid router, which holds BatchJob.
/// A strong reference would close that loop and keep the whole deployment
/// alive after its last owner drops it. Calls still take the host
/// transport's full framed hop and land on its counters.
struct LoopbackTransport {
    host: Weak<dyn Transport>,
    stats: Arc<WireStats>,
}

impl LoopbackTransport {
    fn new(host: &Arc<dyn Transport>) -> LoopbackTransport {
        LoopbackTransport {
            host: Arc::downgrade(host),
            stats: host.stats(),
        }
    }
}

impl Transport for LoopbackTransport {
    fn round_trip(&self, req: Request) -> portalws_wire::Result<Response> {
        match self.host.upgrade() {
            Some(host) => host.round_trip(req),
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "host transport dropped with its deployment",
            ))),
        }
    }

    fn stats(&self) -> Arc<WireStats> {
        Arc::clone(&self.stats)
    }
}

/// The running testbed.
pub struct PortalDeployment {
    /// Shared simulation clock.
    pub clock: Arc<SimClock>,
    /// The simulated grid.
    pub grid: Arc<Grid>,
    /// Shard 0's storage broker: the whole namespace when the deployment
    /// has one data shard.
    pub srb: Arc<Srb>,
    /// The `DataManagement` facade over [`Topology::data_shards`] brokers
    /// (the e12 cross-shard fault family reaches its fault hook and
    /// recovery through this).
    pub data: Arc<DataManagementService>,
    /// The Authentication Service (keytab holder).
    pub auth: Arc<AuthService>,
    /// The Gateway context store.
    pub contexts: Arc<ContextStore>,
    /// The UDDI registry (shared with its SOAP facade).
    pub uddi: Arc<UddiRegistry>,
    /// The container registry (shared with its SOAP facade).
    pub container_registry: Arc<ContainerRegistry>,
    transports: HashMap<String, Arc<dyn Transport>>,
    /// True once [`PortalDeployment::enable_mutual_auth`] has run.
    mutual: std::sync::atomic::AtomicBool,
    /// SOAP servers by host, kept so guards (security mode, access
    /// policies) can be reconfigured after deployment.
    soap_servers: HashMap<String, Arc<SoapServer>>,
    /// Keeps TCP servers alive in `over_tcp` mode.
    _tcp_servers: Vec<ServerHandle>,
    /// Per-host server-side wire counters (TCP modes only) — this is
    /// where server-injected chaos (drops, truncations, delays) lands.
    server_stats: HashMap<String, Arc<portalws_wire::WireStats>>,
    /// Access policy composed into the guards, if installed.
    policy: parking_lot::RwLock<Option<Arc<portalws_auth::PolicyEngine>>>,
    /// Per-tenant admission quotas composed into the guards, if enabled.
    quotas: parking_lot::RwLock<Option<Arc<portalws_auth::TenantQuotas>>>,
    topology: Topology,
}

/// Registered demo users: (principal, secret).
pub const USERS: [(&str, &str); 2] = [("alice@GCE.ORG", "alice-pass"), ("bob@GCE.ORG", "bob-pass")];

impl PortalDeployment {
    /// Stand the testbed up over in-memory transports (full message
    /// framing, no sockets) — the default for tests and benchmarks.
    pub fn in_memory(security: SecurityMode) -> Arc<PortalDeployment> {
        Self::new(Topology::new(security))
    }

    /// Stand the testbed up over real TCP servers on localhost, each
    /// logical host on its own port with `2` worker threads. One TCP
    /// connection per call, as deployed in 2002.
    pub fn over_tcp(security: SecurityMode) -> Arc<PortalDeployment> {
        Self::new(Topology {
            transport: TransportMode::TcpPerCall,
            ..Topology::new(security)
        })
    }

    /// Like [`PortalDeployment::over_tcp`], but clients draw keep-alive
    /// connections from a deployment-wide pool instead of dialing per
    /// call.
    pub fn over_tcp_pooled(security: SecurityMode) -> Arc<PortalDeployment> {
        Self::new(Topology {
            transport: TransportMode::TcpPooled,
            ..Topology::new(security)
        })
    }

    /// Stand the testbed up as `topology` describes.
    pub fn new(topology: Topology) -> Arc<PortalDeployment> {
        let clock = SimClock::new();
        let grid = Grid::with_clock(Arc::clone(&clock));
        // Mirror the paper testbed hosts/schedulers.
        for spec in testbed_hosts() {
            grid.add_host(spec.0, spec.1);
        }
        let data = Arc::new(DataManagementService::testbed(
            &["alice@GCE.ORG", "bob@GCE.ORG"],
            topology.data_shards,
        ));
        let srb = Arc::clone(data.shards()[0].srb());
        let auth = AuthService::new(Arc::clone(&clock));
        for (user, pass) in USERS {
            auth.register_user(user, pass);
        }
        let contexts = ContextStore::new();
        let uddi = Arc::new(UddiRegistry::new());
        let container_registry = Arc::new(ContainerRegistry::new());

        // ---- logical servers -------------------------------------------
        let registry_srv = LogicalServer::new();
        registry_srv.mount(
            "registry.gce.org",
            Arc::new(UddiService::new(Arc::clone(&uddi))),
        );
        registry_srv.mount(
            "registry.gce.org",
            Arc::new(ContainerRegistryService::new(Arc::clone(
                &container_registry,
            ))),
        );

        let auth_srv = LogicalServer::new();
        auth_srv.mount("auth.gce.org", Arc::new(AuthSoapFacade(Arc::clone(&auth))));

        let grid_srv = LogicalServer::new();
        let jobsub = Arc::new(JobSubmissionService::new(Arc::clone(&grid)));
        grid_srv.mount("grid.sdsc.edu", jobsub);
        grid_srv.mount("grid.sdsc.edu", Arc::clone(&data) as Arc<dyn SoapService>);
        grid_srv.mount(
            "grid.sdsc.edu",
            Arc::new(AppFactoryService::new(
                Arc::clone(&grid),
                Some(Arc::clone(&contexts)),
            )),
        );

        let iu_srv = LogicalServer::new();
        iu_srv.mount(
            "gateway.iu.edu",
            Arc::new(IuScriptGen::new(ContextCoupling::Integrated(Arc::clone(
                &contexts,
            )))),
        );
        iu_srv.mount(
            "gateway.iu.edu",
            Arc::new(ContextManagerMonolith::new(Arc::clone(&contexts))),
        );
        let decomposed = DecomposedContextServices::new(Arc::clone(&contexts));
        iu_srv.mount(
            "gateway.iu.edu",
            Arc::clone(&decomposed.tree) as Arc<dyn SoapService>,
        );
        iu_srv.mount(
            "gateway.iu.edu",
            Arc::clone(&decomposed.properties) as Arc<dyn SoapService>,
        );
        iu_srv.mount(
            "gateway.iu.edu",
            Arc::clone(&decomposed.archive) as Arc<dyn SoapService>,
        );

        let sdsc_srv = LogicalServer::new();
        sdsc_srv.mount("hotpage.sdsc.edu", Arc::new(SdscScriptGen));

        let servers: Vec<(&str, LogicalServer)> = vec![
            ("registry.gce.org", registry_srv),
            ("auth.gce.org", auth_srv),
            ("grid.sdsc.edu", grid_srv),
            ("gateway.iu.edu", iu_srv),
            ("hotpage.sdsc.edu", sdsc_srv),
        ];

        // WSIL documents link their peers, making the host set walkable
        // without the central registry.
        for (host, server) in &servers {
            for (other, _) in &servers {
                if other != host {
                    server.wsil.link(format!("http://{other}/inspection.wsil"));
                }
            }
        }

        // ---- transports --------------------------------------------------
        let mut transports: HashMap<String, Arc<dyn Transport>> = HashMap::new();
        let mut tcp_servers = Vec::new();
        let mut server_stats: HashMap<String, Arc<portalws_wire::WireStats>> = HashMap::new();
        // Per-host client-side fault wrapper; the seed fans out so each
        // host draws an independent but replayable fault stream.
        let chaos = topology.chaos;
        let chaos_wrap = |host: &str, inner: Arc<dyn Transport>| -> Arc<dyn Transport> {
            match &chaos {
                Some(policy) => Arc::new(ChaosTransport::new(
                    inner,
                    derive_seed(policy.seed, host),
                    policy.client,
                )),
                None => inner,
            }
        };
        match topology.transport {
            TransportMode::InMemory => {
                for (host, server) in &servers {
                    let inner = Arc::new(InMemoryTransport::new(
                        Arc::clone(&server.router) as Arc<dyn Handler>
                    )) as Arc<dyn Transport>;
                    transports.insert((*host).to_owned(), chaos_wrap(host, inner));
                }
            }
            TransportMode::TcpPerCall | TransportMode::TcpPooled => {
                // One idle-connection pool for the whole deployment, keyed
                // internally by endpoint. Per call, it parks nothing and
                // nothing is retried: each call dials once, as in 2002.
                let (max_idle, retry) = match topology.transport {
                    TransportMode::TcpPerCall => (0, RetryPolicy::none()),
                    _ => (PoolConfig::default().max_idle, RetryPolicy::default()),
                };
                let pool = Arc::new(Pool::new(PoolConfig {
                    max_idle,
                    ..PoolConfig::default()
                }));
                for (host, server) in &servers {
                    let handler = Arc::clone(&server.router) as Arc<dyn Handler>;
                    let server_chaos = chaos.as_ref().map(|policy| {
                        Arc::new(SeededServerChaos::new(
                            derive_seed(policy.seed, &format!("server:{host}")),
                            policy.server,
                        )) as Arc<dyn portalws_wire::ServerChaos>
                    });
                    let handle =
                        HttpServer::start("127.0.0.1:0", handler, topology.server, server_chaos)
                            .expect("bind localhost");
                    let inner: Arc<dyn Transport> = Arc::new(
                        PooledTransport::with_pool(handle.addr(), Arc::clone(&pool))
                            .with_retry(retry),
                    );
                    transports.insert((*host).to_owned(), chaos_wrap(host, inner));
                    server_stats.insert((*host).to_owned(), Arc::clone(handle.stats()));
                    tcp_servers.push(handle);
                }
            }
        }

        // ---- composed service: BatchJob forwards to JobSubmission -------
        {
            let jobsub_client = Arc::new(SoapClient::new(
                Arc::new(LoopbackTransport::new(&transports["grid.sdsc.edu"])),
                "JobSubmission",
            ));
            let (_, grid_ls) = servers
                .iter()
                .find(|(h, _)| *h == "grid.sdsc.edu")
                .expect("grid server exists");
            grid_ls.mount(
                "grid.sdsc.edu",
                Arc::new(BatchJobService::new(jobsub_client)),
            );
        }

        let soap_servers: HashMap<String, Arc<SoapServer>> = servers
            .iter()
            .map(|(host, server)| ((*host).to_owned(), Arc::clone(&server.soap)))
            .collect();

        let deployment = PortalDeployment {
            clock,
            grid,
            srb,
            data,
            auth,
            contexts,
            uddi,
            container_registry,
            transports,
            mutual: std::sync::atomic::AtomicBool::new(false),
            soap_servers,
            _tcp_servers: tcp_servers,
            server_stats,
            policy: parking_lot::RwLock::new(None),
            quotas: parking_lot::RwLock::new(None),
            topology,
        };
        deployment.apply_guards();
        deployment.populate_registries();
        Arc::new(deployment)
    }

    /// Security mode in effect.
    pub fn security(&self) -> SecurityMode {
        self.topology.security
    }

    /// Transport regime in effect.
    pub fn transport_mode(&self) -> TransportMode {
        self.topology.transport
    }

    /// Server concurrency regime in effect (TCP modes; in-memory
    /// deployments have no server loop either way).
    pub fn server_arm(&self) -> ServerArm {
        self.topology.server.arm
    }

    /// The fault schedule in effect, if any.
    pub fn chaos_policy(&self) -> Option<ChaosPolicy> {
        self.topology.chaos
    }

    /// Server-side wire counters for a logical host (TCP modes only;
    /// in-memory deployments have no server loop). Server-injected chaos
    /// — drops, delays, truncations — is counted here, while client-side
    /// chaos lands on [`PortalDeployment::transport`]'s stats.
    pub fn server_wire_stats(&self, host: &str) -> Option<Arc<portalws_wire::WireStats>> {
        self.server_stats.get(host).map(Arc::clone)
    }

    /// Hosts whose SSPs are guarded. The paper guards protected services,
    /// not the Authentication Service itself or public discovery.
    fn is_protected_host(host: &str) -> bool {
        host != "auth.gce.org" && host != "registry.gce.org"
    }

    /// Build the authentication guard for the deployment's security mode.
    fn authn_guard(&self) -> portalws_soap::Guard {
        match self.topology.security {
            SecurityMode::Open => guard::no_auth_guard(),
            SecurityMode::Central => {
                let auth_client = Arc::new(SoapClient::new(
                    Arc::clone(&self.transports["auth.gce.org"]),
                    "Authentication",
                ));
                guard::remote_guard(auth_client)
            }
            SecurityMode::Local => guard::local_guard(Arc::clone(&self.auth)),
        }
    }

    /// (Re)apply guards to every protected SSP, composing whatever is
    /// installed on top of authentication: an Akenti-style access policy,
    /// then per-tenant admission quotas (outermost, so a quota shed only
    /// ever charges verified, authorized callers).
    fn apply_guards(&self) {
        let policy = self.policy.read().clone();
        let quotas = self.quotas.read().clone();
        if self.topology.security == SecurityMode::Open && policy.is_none() && quotas.is_none() {
            return;
        }
        for (host, server) in &self.soap_servers {
            if !Self::is_protected_host(host) {
                continue;
            }
            // Policies and quotas require a verified subject, so Open
            // mode keeps its authn-less base only when neither is
            // installed.
            let mut g = if self.topology.security == SecurityMode::Open {
                guard::local_guard(Arc::clone(&self.auth))
            } else {
                self.authn_guard()
            };
            if let Some(policy) = &policy {
                g = guard::authorized(g, Arc::clone(policy));
            }
            if let Some(quotas) = &quotas {
                // Quota sheds land on the host's wire counters (TCP
                // modes), next to the queue-full and deadline sheds.
                let on_shed = self.server_stats.get(host).map(|stats| {
                    let stats = Arc::clone(stats);
                    Arc::new(move || stats.record_shed_quota()) as portalws_auth::quota::ShedHook
                });
                g = portalws_auth::quota_guard(g, Arc::clone(quotas), on_shed);
            }
            server.set_guard(g);
        }
    }

    /// Install an access-control policy on every protected SSP (§4's
    /// further-work item). Callers must already be authenticated; the
    /// policy decides per `(principal, service, method)`.
    pub fn install_access_policy(&self, policy: Arc<portalws_auth::PolicyEngine>) {
        *self.policy.write() = Some(policy);
        self.apply_guards();
    }

    /// Enable per-tenant admission quotas on every protected SSP: after
    /// authentication (and any access policy), the verified assertion
    /// subject must hold a token or the call sheds as a `Busy` fault with
    /// `Retry-After` hints. Sheds are counted on the host's wire stats as
    /// `shed_quota` in TCP modes.
    pub fn enable_tenant_quotas(&self, quotas: Arc<portalws_auth::TenantQuotas>) {
        *self.quotas.write() = Some(quotas);
        self.apply_guards();
    }

    /// The host principal a server authenticates itself as under mutual
    /// authentication.
    pub fn server_principal(host: &str) -> String {
        format!("{host}@GCE.ORG")
    }

    /// Is mutual authentication enabled?
    pub fn mutual_enabled(&self) -> bool {
        self.mutual.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Enable mutual authentication (§4's "each server in the system would
    /// authenticate itself"): every server gets a host principal in the
    /// keytab, logs in, and stamps a signed assertion into each reply.
    /// `UiServer` proxies created afterwards verify those assertions.
    pub fn enable_mutual_auth(&self) {
        for (host, server) in &self.soap_servers {
            let principal = Self::server_principal(host);
            let secret = format!("{host}-host-secret");
            self.auth.register_user(&principal, &secret);
            let gss = self
                .auth
                .login(
                    &principal,
                    &secret,
                    portalws_gridsim::cred::Mechanism::Kerberos,
                )
                .expect("host principal just registered");
            let session = portalws_auth::UserSession::new(gss, Arc::clone(&self.clock));
            server.set_response_header_supplier(portalws_auth::mutual::server_identity(session));
        }
        self.mutual
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Transport to a logical host.
    pub fn transport(&self, host: &str) -> Result<Arc<dyn Transport>> {
        self.transports
            .get(host)
            .map(Arc::clone)
            .ok_or_else(|| PortalError::Bind(format!("no transport for host {host:?}")))
    }

    /// Resolve a full endpoint URL (`http://host/soap/Service`) to its
    /// transport plus the service name.
    pub fn resolve_endpoint(&self, url: &str) -> Result<(Arc<dyn Transport>, String)> {
        let rest = url
            .strip_prefix("http://")
            .ok_or_else(|| PortalError::Bind(format!("unsupported URL scheme: {url}")))?;
        let (host, path) = rest
            .split_once('/')
            .ok_or_else(|| PortalError::Bind(format!("URL has no path: {url}")))?;
        let service = path
            .rsplit('/')
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| PortalError::Bind(format!("URL has no service name: {url}")))?;
        Ok((self.transport(host)?, service.to_owned()))
    }

    /// Logical host names.
    pub fn hosts(&self) -> Vec<String> {
        let mut hosts: Vec<String> = self.transports.keys().cloned().collect();
        hosts.sort();
        hosts
    }

    fn populate_registries(&self) {
        // UDDI: businesses + services with free-text descriptions
        // (capability info only by convention, as in §3.4).
        let iu = self
            .uddi
            .publish_business("Community Grids Lab", "Indiana University portal group")
            .expect("fresh registry");
        let sdsc = self
            .uddi
            .publish_business("SDSC", "San Diego Supercomputer Center")
            .expect("fresh registry");
        let publish = |biz: &str, name: &str, desc: &str, url: &str| {
            self.uddi
                .publish_service(
                    biz,
                    name,
                    desc,
                    vec![BindingTemplate {
                        access_point: url.to_owned(),
                        tmodel_keys: vec![],
                    }],
                )
                .expect("fresh registry");
        };
        publish(
            &iu,
            "BatchScriptGenerator",
            "Batch script generation service. Supports PBS and GRD schedulers.",
            "http://gateway.iu.edu/soap/BatchScriptGen",
        );
        publish(
            &sdsc,
            "BatchScriptGenerator",
            "Script generator. Supports LSF and NQS; previously ran PBS.",
            "http://hotpage.sdsc.edu/soap/BatchScriptGen",
        );
        publish(
            &sdsc,
            "JobSubmission",
            "Globusrun-style secure job submission over the grid.",
            "http://grid.sdsc.edu/soap/JobSubmission",
        );
        publish(
            &sdsc,
            "DataManagement",
            "SRB data management: ls, cat, get, put, xml_call.",
            "http://grid.sdsc.edu/soap/DataManagement",
        );
        publish(
            &iu,
            "ContextManager",
            "Gateway user context management and session archiving.",
            "http://gateway.iu.edu/soap/ContextManager",
        );

        // Container registry: same services, typed metadata.
        let entry = |name: &str, host: &str, service: &str, schedulers: &[&str]| {
            let mut metadata =
                Element::new("serviceMetadata").with_text_child("kind", kind_of(service));
            if !schedulers.is_empty() {
                let mut s = Element::new("schedulers");
                for sch in schedulers {
                    s.push_child(Element::new("scheduler").with_text(*sch));
                }
                metadata.push_child(s);
            }
            ServiceEntry {
                name: name.to_owned(),
                access_point: format!("http://{host}/soap/{service}"),
                wsdl_url: format!("http://{host}/wsdl/{service}"),
                metadata,
            }
        };
        let reg = &self.container_registry;
        reg.register(
            "/gce/scriptgen",
            entry("iu", "gateway.iu.edu", "BatchScriptGen", &["PBS", "GRD"]),
        )
        .expect("fresh registry");
        reg.register(
            "/gce/scriptgen",
            entry(
                "sdsc",
                "hotpage.sdsc.edu",
                "BatchScriptGen",
                &["LSF", "NQS"],
            ),
        )
        .expect("fresh registry");
        reg.register(
            "/gce/jobsub",
            entry("sdsc", "grid.sdsc.edu", "JobSubmission", &[]),
        )
        .expect("fresh registry");
        reg.register(
            "/gce/data",
            entry("sdsc", "grid.sdsc.edu", "DataManagement", &[]),
        )
        .expect("fresh registry");
        reg.register(
            "/gce/context",
            entry("iu", "gateway.iu.edu", "ContextManager", &[]),
        )
        .expect("fresh registry");
    }
}

fn kind_of(service: &str) -> &'static str {
    match service {
        "BatchScriptGen" => "scriptgen",
        "JobSubmission" => "jobsub",
        "DataManagement" => "datamgmt",
        "ContextManager" => "context",
        _ => "other",
    }
}

/// One grid host plus its schedulers and queues.
type HostTopology = (
    portalws_gridsim::grid::HostSpec,
    Vec<(
        portalws_gridsim::sched::SchedulerKind,
        Vec<portalws_gridsim::queue::QueueSpec>,
    )>,
);

fn testbed_hosts() -> Vec<HostTopology> {
    use portalws_gridsim::grid::HostSpec;
    use portalws_gridsim::queue::QueueSpec;
    use portalws_gridsim::sched::SchedulerKind;
    vec![
        (
            HostSpec::new("tg-login", "tg-login.sdsc.edu", 32),
            vec![
                (
                    SchedulerKind::Pbs,
                    vec![
                        QueueSpec::new("batch", 32, 720),
                        QueueSpec::new("debug", 4, 30),
                    ],
                ),
                (SchedulerKind::Lsf, vec![QueueSpec::new("normal", 16, 360)]),
            ],
        ),
        (
            HostSpec::new("modi4", "modi4.ucs.indiana.edu", 32),
            vec![
                (SchedulerKind::Nqs, vec![QueueSpec::new("batch", 32, 720)]),
                (
                    SchedulerKind::Grd,
                    vec![
                        QueueSpec::new("normal", 16, 360),
                        QueueSpec::new("long", 32, 2880),
                    ],
                ),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::SoapValue;

    #[test]
    fn dropping_an_in_memory_deployment_frees_its_state_plane() {
        let deployments = [
            (
                "in_memory",
                PortalDeployment::in_memory(SecurityMode::Central),
            ),
            (
                "sharded in-memory",
                PortalDeployment::new(Topology {
                    data_shards: 3,
                    ..Topology::new(SecurityMode::Central)
                }),
            ),
            (
                "chaos in-memory",
                PortalDeployment::new(Topology {
                    chaos: Some(ChaosPolicy::from_seed(7)),
                    ..Topology::new(SecurityMode::Central)
                }),
            ),
        ];
        for (name, d) in deployments {
            let ui = crate::UiServer::new(Arc::clone(&d));
            // Take the composed BatchJob → JobSubmission hop, so its
            // client is live. Under chaos either call may fail.
            let _ = ui.login(USERS[0].0, USERS[0].1);
            if let Ok(batch) = ui.proxy("grid.sdsc.edu", "BatchJob") {
                let _ = batch.call(
                    "runBatch",
                    &[SoapValue::str("tg-login PBS batch 2 10 -- hostname")],
                );
            }
            let (srb, grid) = (Arc::downgrade(&d.srb), Arc::downgrade(&d.grid));
            drop(ui);
            drop(d);
            assert!(
                srb.upgrade().is_none(),
                "{name}: the Srb outlived its deployment"
            );
            assert!(
                grid.upgrade().is_none(),
                "{name}: the Grid outlived its deployment"
            );
        }
    }

    #[test]
    fn topology_stands_up_in_memory() {
        let d = PortalDeployment::in_memory(SecurityMode::Open);
        assert_eq!(d.hosts().len(), 5);
        assert_eq!(d.uddi.service_count(), 5);
        assert_eq!(d.container_registry.entry_count(), 5);
    }

    #[test]
    fn endpoint_resolution() {
        let d = PortalDeployment::in_memory(SecurityMode::Open);
        let (t, svc) = d
            .resolve_endpoint("http://grid.sdsc.edu/soap/JobSubmission")
            .unwrap();
        assert_eq!(svc, "JobSubmission");
        let client = SoapClient::new(t, svc);
        let hosts = client.call("listHosts", &[]).unwrap();
        assert_eq!(hosts.as_array().unwrap().len(), 2);
        assert!(d.resolve_endpoint("ftp://x/y").is_err());
        assert!(d.resolve_endpoint("http://unknown.host/soap/X").is_err());
    }

    #[test]
    fn open_mode_serves_unauthenticated_calls() {
        let d = PortalDeployment::in_memory(SecurityMode::Open);
        let client = SoapClient::new(d.transport("hotpage.sdsc.edu").unwrap(), "BatchScriptGen");
        let out = client.call("supportedSchedulers", &[]).unwrap();
        assert_eq!(out.as_array().unwrap().len(), 2);
    }

    #[test]
    fn central_mode_rejects_unauthenticated_calls() {
        let d = PortalDeployment::in_memory(SecurityMode::Central);
        let client = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
        assert!(client.call("listHosts", &[]).is_err());
        // But the registry stays public.
        let reg = SoapClient::new(d.transport("registry.gce.org").unwrap(), "Uddi");
        assert!(reg.call("findService", &[SoapValue::str("script")]).is_ok());
    }

    #[test]
    fn wsdl_published_for_every_service() {
        let d = PortalDeployment::in_memory(SecurityMode::Open);
        for (host, service) in [
            ("registry.gce.org", "Uddi"),
            ("registry.gce.org", "ContainerRegistry"),
            ("auth.gce.org", "Authentication"),
            ("grid.sdsc.edu", "JobSubmission"),
            ("grid.sdsc.edu", "DataManagement"),
            ("grid.sdsc.edu", "BatchJob"),
            ("grid.sdsc.edu", "AppFactory"),
            ("gateway.iu.edu", "ContextTree"),
            ("gateway.iu.edu", "ContextProperty"),
            ("gateway.iu.edu", "ContextArchive"),
            ("gateway.iu.edu", "BatchScriptGen"),
            ("gateway.iu.edu", "ContextManager"),
            ("hotpage.sdsc.edu", "BatchScriptGen"),
        ] {
            let t = d.transport(host).unwrap();
            let wsdl = portalws_wsdl::handler::fetch_wsdl(&*t, service)
                .unwrap_or_else(|e| panic!("no WSDL for {service} on {host}: {e}"));
            assert_eq!(wsdl.service, service);
            assert!(wsdl.endpoint.as_deref().unwrap_or("").contains(host));
        }
    }

    #[test]
    fn over_tcp_round_trip() {
        let d = PortalDeployment::over_tcp(SecurityMode::Open);
        let client = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "JobSubmission");
        let hosts = client.call("listHosts", &[]).unwrap();
        assert_eq!(hosts.as_array().unwrap().len(), 2);
    }

    #[test]
    fn pooled_deployment_round_trip_and_reuse() {
        let d = PortalDeployment::over_tcp_pooled(SecurityMode::Open);
        assert_eq!(d.transport_mode(), TransportMode::TcpPooled);
        let t = d.transport("grid.sdsc.edu").unwrap();
        let client = SoapClient::new(Arc::clone(&t), "JobSubmission");
        for _ in 0..4 {
            let hosts = client.call("listHosts", &[]).unwrap();
            assert_eq!(hosts.as_array().unwrap().len(), 2);
        }
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 1, "one dial for four calls");
        assert_eq!(snap.pool_reuse_hits, 3);
    }

    #[test]
    fn tuned_deployment_serves_on_both_arms() {
        // The production posture: explicit admission bounds on every
        // host. Under nominal load nothing sheds, both arms serve the full
        // topology, and pooled keep-alive connections stay reusable, i.e.
        // both arms honor `Connection: keep-alive` across exchanges.
        for arm in [ServerArm::Blocking, ServerArm::Reactor] {
            let d = PortalDeployment::new(Topology {
                transport: TransportMode::TcpPooled,
                server: ServerConfig {
                    arm,
                    workers: 2,
                    queue_cap: Some(64),
                    max_connections: 128,
                    shed_retry_after_ms: 25,
                },
                ..Topology::new(SecurityMode::Open)
            });
            assert_eq!(d.server_arm(), arm);
            assert_eq!(d.transport_mode(), TransportMode::TcpPooled);
            let t = d.transport("grid.sdsc.edu").unwrap();
            let client = SoapClient::new(Arc::clone(&t), "JobSubmission");
            for _ in 0..4 {
                let hosts = client.call("listHosts", &[]).unwrap();
                assert_eq!(hosts.as_array().unwrap().len(), 2);
            }
            let snap = t.stats().snapshot();
            assert_eq!(snap.connections, 1, "{arm:?}: one dial for four calls");
            assert_eq!(snap.pool_reuse_hits, 3, "{arm:?}");
            let server = d.server_wire_stats("grid.sdsc.edu").unwrap().snapshot();
            assert_eq!(server.requests, 4, "{arm:?}");
            assert_eq!(server.shed_queue_full, 0, "nominal load never sheds");
            // Both arms keep the open-connection gauge: the pooled
            // connection is open while it is served.
            assert!(server.connections_high_water >= 1, "{arm:?}: {server:?}");
            assert_eq!(server.open_connections, 1, "{arm:?}: {server:?}");
        }
    }

    #[test]
    fn tenant_quotas_shed_busy_and_count_on_server_stats() {
        let d = PortalDeployment::over_tcp_pooled(SecurityMode::Local);
        d.enable_tenant_quotas(portalws_auth::TenantQuotas::new(
            portalws_auth::QuotaConfig {
                burst: 2.0,
                refill_per_sec: 0.001,
            },
        ));
        let ui = crate::ui::UiServer::new(Arc::clone(&d));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        for _ in 0..2 {
            client.call("listHosts", &[]).unwrap();
        }
        let err = client.call("listHosts", &[]).unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(portalws_soap::PortalErrorKind::Busy),
            "third call in the burst sheds as Busy"
        );
        let stats = d.server_wire_stats("grid.sdsc.edu").unwrap().snapshot();
        assert_eq!(
            stats.shed_quota, 1,
            "quota shed lands on the host's counters"
        );
        // A fresh tenant is untouched by alice's exhaustion.
        let ui2 = crate::ui::UiServer::new(Arc::clone(&d));
        ui2.login("bob@GCE.ORG", "bob-pass").unwrap();
        let bob = ui2.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        assert!(bob.call("listHosts", &[]).is_ok());
    }

    #[test]
    fn per_call_mode_stays_the_2002_regime() {
        let d = PortalDeployment::over_tcp(SecurityMode::Open);
        assert_eq!(d.transport_mode(), TransportMode::TcpPerCall);
        let t = d.transport("grid.sdsc.edu").unwrap();
        let client = SoapClient::new(Arc::clone(&t), "JobSubmission");
        for _ in 0..3 {
            client.call("listHosts", &[]).unwrap();
        }
        let snap = t.stats().snapshot();
        assert_eq!(snap.connections, 3, "a dial per call, as in 2002");
        assert_eq!(snap.pool_reuse_hits, 0);
    }

    #[test]
    fn central_auth_verification_hop_rides_the_pool() {
        // In Central mode every guarded SSP call triggers a verification
        // call to auth.gce.org (Fig. 2); under the pooled deployment that
        // hop reuses a pooled connection instead of dialing per call.
        let d = PortalDeployment::over_tcp_pooled(SecurityMode::Central);
        let ui = crate::ui::UiServer::new(Arc::clone(&d));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        for _ in 0..3 {
            client.call("listHosts", &[]).unwrap();
        }
        let auth_t = d.transport("auth.gce.org").unwrap();
        let snap = auth_t.stats().snapshot();
        assert!(
            snap.pool_reuse_hits >= 1,
            "verification hop reused pooled connections: {snap:?}"
        );
        assert!(snap.connections < snap.requests, "fewer dials than calls");
    }

    #[test]
    fn chaotic_deployment_replays_identically_from_the_same_seed() {
        // Two deployments under the same master seed must produce the
        // same per-class fault counts for the same call sequence — that
        // is the whole point of printing a seed on soak failure.
        let counts = |seed: u64| {
            let d = PortalDeployment::new(Topology {
                chaos: Some(ChaosPolicy::moderate(seed)),
                ..Topology::new(SecurityMode::Open)
            });
            let t = d.transport("grid.sdsc.edu").unwrap();
            let client = SoapClient::new(Arc::clone(&t), "JobSubmission");
            for _ in 0..40 {
                let _ = client.call("listHosts", &[]);
            }
            let snap = t.stats().snapshot();
            portalws_wire::ChaosClass::ALL
                .iter()
                .map(|c| snap.chaos_class(*c))
                .collect::<Vec<u64>>()
        };
        let a = counts(0xE12_0001);
        let b = counts(0xE12_0001);
        let c = counts(0xE12_0002);
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.iter().sum::<u64>() > 0, "moderate chaos injected faults");
        assert_ne!(a, c, "different seeds explore different sequences");
    }

    #[test]
    fn chaos_policy_fans_out_per_host() {
        let d = PortalDeployment::new(Topology {
            chaos: Some(ChaosPolicy::from_seed(7)),
            ..Topology::new(SecurityMode::Open)
        });
        assert_eq!(d.chaos_policy().map(|p| p.seed), Some(7));
        // Transports on different hosts still answer (chaos is a wrapper,
        // not a replacement), and calls can succeed under a from_seed mix.
        let client = SoapClient::new(d.transport("hotpage.sdsc.edu").unwrap(), "BatchScriptGen");
        let mut ok = 0;
        for _ in 0..30 {
            if client.call("supportedSchedulers", &[]).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0, "some calls survive the fault schedule");
    }

    #[test]
    fn sharded_deployment_serves_data_management_end_to_end() {
        let d = PortalDeployment::new(Topology {
            data_shards: 4,
            ..Topology::new(SecurityMode::Open)
        });
        let router = &d.data;
        assert_eq!(router.shards().len(), 4);
        let c = SoapClient::new(d.transport("grid.sdsc.edu").unwrap(), "DataManagement");
        // The testbed namespace is reachable through the router.
        let readme = c.call("cat", &[SoapValue::str("/public/README")]).unwrap();
        assert_eq!(readme.as_str(), Some("GCE testbed public collection\n"));
        // Root listing merges every shard: both homes plus /public.
        let root = c.call("ls", &[SoapValue::str("/")]).unwrap();
        assert_eq!(root.as_array().unwrap().len(), 3);
        // A cross-shard move through the SOAP surface leaves exactly one
        // visible copy.
        let mut tops = vec!["/public".to_owned()];
        for i in 0..100 {
            let cand = format!("/exp-{i}");
            if router.owner_of(&cand) != router.owner_of("/public") {
                c.call("mkdir", &[SoapValue::str(cand.clone())]).unwrap();
                tops.push(cand);
                break;
            }
        }
        let dst = format!("{}/README", tops[1]);
        c.call(
            "rename",
            &[
                SoapValue::str("/public/README"),
                SoapValue::str(dst.clone()),
            ],
        )
        .unwrap();
        assert!(c.call("cat", &[SoapValue::str("/public/README")]).is_err());
        assert_eq!(
            c.call("cat", &[SoapValue::str(dst)]).unwrap().as_str(),
            Some("GCE testbed public collection\n")
        );
        assert_eq!(router.pending_moves(), 0);
    }

    #[test]
    fn uddi_string_search_has_the_known_false_positive() {
        let d = PortalDeployment::in_memory(SecurityMode::Open);
        // "PBS" matches both script generators: IU genuinely supports it,
        // SDSC's description merely mentions it historically.
        let pbs_hits = d.uddi.find_service("PBS");
        assert_eq!(pbs_hits.len(), 2);
        // The typed registry gets it right.
        let typed = d.container_registry.query("schedulers/scheduler", "PBS");
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].1.name, "iu");
    }
}

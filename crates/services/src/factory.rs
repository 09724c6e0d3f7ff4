//! The application factory (§6, after Gannon et al.'s "Grid Web Services
//! and Application Factories").
//!
//! "These services may be bound to specific resources through a factory
//! creation process, such as discussed in Ref. \[37\]." The factory closes
//! the Application-Web-Services loop as a service: application developers
//! register descriptors; users create *instances* bound to a concrete
//! host/queue; the factory drives each instance through the §5.1
//! lifecycle (prepared → running → archived) against the grid, recording
//! completed runs into the context manager — the session-archive backbone
//! — under `user/appName/instance-N`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use portalws_appws::descriptor::{descriptor_schema, ApplicationDescriptor};
use portalws_appws::instance::{ApplicationInstance, LifecycleState};
use portalws_gridsim::grid::Grid;
use portalws_gridsim::job::JobState;
use portalws_gridsim::sched::{render_script, JobRequirements, SchedulerKind};
use portalws_soap::{
    CallContext, Fault, MethodDesc, PortalErrorKind, SoapResult, SoapService, SoapType, SoapValue,
};

use crate::caller_principal;
use crate::context::ContextStore;

/// The factory service.
pub struct AppFactoryService {
    grid: Arc<Grid>,
    /// Completed runs are archived here when present.
    contexts: Option<Arc<ContextStore>>,
    descriptors: RwLock<HashMap<String, ApplicationDescriptor>>,
    instances: RwLock<HashMap<u64, ApplicationInstance>>,
    next_instance: AtomicU64,
}

impl AppFactoryService {
    /// A factory over `grid`, optionally archiving into `contexts`.
    pub fn new(grid: Arc<Grid>, contexts: Option<Arc<ContextStore>>) -> AppFactoryService {
        AppFactoryService {
            grid,
            contexts,
            descriptors: RwLock::new(HashMap::new()),
            instances: RwLock::new(HashMap::new()),
            next_instance: AtomicU64::new(0),
        }
    }

    /// Registered application count.
    pub fn application_count(&self) -> usize {
        self.descriptors.read().len()
    }

    /// Map a descriptor's host DNS name to the grid's short host name.
    fn grid_host_for(&self, dns: &str) -> Option<String> {
        self.grid
            .hosts()
            .into_iter()
            .find(|h| h.dns == dns || h.name == dns)
            .map(|h| h.name)
    }

    /// Bring an instance's state up to date with its grid job; archive on
    /// completion (both into the instance record and the context store).
    fn sync_instance(&self, id: u64) -> SoapResult<ApplicationInstance> {
        let mut instances = self.instances.write();
        let instance = instances
            .get_mut(&id)
            .ok_or_else(|| Fault::portal(PortalErrorKind::NotFound, format!("instance {id}")))?;
        if instance.state == LifecycleState::Running {
            if let Some(job_id) = instance.job_id {
                let job = self
                    .grid
                    .poll(job_id)
                    .map_err(|e| Fault::portal(PortalErrorKind::Internal, e.to_string()))?;
                if job.state.is_terminal() {
                    let rc = match job.state {
                        JobState::Cancelled => -1,
                        _ => job.exit_code.unwrap_or(-1),
                    };
                    instance
                        .archive(rc)
                        .map_err(|e| Fault::portal(PortalErrorKind::Internal, e.to_string()))?;
                    if let Some(store) = &self.contexts {
                        let user = instance.user.clone();
                        let app = instance.app_name.clone();
                        let session = format!("instance-{id}");
                        // Best-effort archival: existing contexts are fine.
                        let _ = store.add(&[&user]);
                        let _ = store.add(&[&user, &app]);
                        let _ = store.add(&[&user, &app, &session]);
                        let _ = store.set_property(
                            &[&user, &app, &session],
                            "instance",
                            &instance.to_element().to_xml(),
                        );
                    }
                }
            }
        }
        Ok(instance.clone())
    }
}

fn arg_str<'a>(args: &'a [(String, SoapValue)], i: usize, name: &str) -> SoapResult<&'a str> {
    args.get(i)
        .and_then(|(_, v)| v.as_str())
        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}")))
}

fn arg_int(args: &[(String, SoapValue)], i: usize, name: &str) -> SoapResult<i64> {
    args.get(i)
        .and_then(|(_, v)| v.as_i64())
        .ok_or_else(|| Fault::portal(PortalErrorKind::BadArguments, format!("missing {name}")))
}

impl SoapService for AppFactoryService {
    fn name(&self) -> &str {
        "AppFactory"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        let principal = caller_principal(ctx);
        match method {
            "registerApplication" => {
                let doc = args.first().and_then(|(_, v)| v.as_xml()).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::BadArguments, "missing descriptor")
                })?;
                // Schema validation first — the portal-independent contract.
                descriptor_schema()
                    .validate(doc)
                    .map_err(|e| Fault::portal(PortalErrorKind::BadArguments, e.to_string()))?;
                let descriptor = ApplicationDescriptor::from_element(doc)
                    .map_err(|e| Fault::portal(PortalErrorKind::BadArguments, e.to_string()))?;
                let name = descriptor.name.clone();
                self.descriptors.write().insert(name.clone(), descriptor);
                Ok(SoapValue::String(name))
            }
            "listApplications" => {
                let mut names: Vec<String> = self.descriptors.read().keys().cloned().collect();
                names.sort();
                Ok(SoapValue::Array(
                    names.into_iter().map(SoapValue::String).collect(),
                ))
            }
            "describeApplication" => {
                let name = arg_str(args, 0, "name")?;
                let descriptors = self.descriptors.read();
                let d = descriptors.get(name).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::NotFound, format!("application {name:?}"))
                })?;
                Ok(SoapValue::Xml(d.to_element()))
            }
            "createInstance" => {
                let name = arg_str(args, 0, "application")?;
                let host = arg_str(args, 1, "hostDns")?;
                let queue = arg_str(args, 2, "queue")?;
                let cpus = arg_int(args, 3, "cpus")? as u32;
                let wall = arg_int(args, 4, "wallMinutes")? as u32;
                let descriptors = self.descriptors.read();
                let d = descriptors.get(name).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::NotFound, format!("application {name:?}"))
                })?;
                let instance = ApplicationInstance::prepare(d, principal, host, queue, cpus, wall)
                    .map_err(|e| Fault::portal(PortalErrorKind::BadArguments, e.to_string()))?;
                drop(descriptors);
                let id = self.next_instance.fetch_add(1, Ordering::Relaxed) + 1;
                self.instances.write().insert(id, instance);
                Ok(SoapValue::Int(id as i64))
            }
            "submitInstance" => {
                let id = arg_int(args, 0, "instanceId")? as u64;
                let command = arg_str(args, 1, "command")?;
                let mut instances = self.instances.write();
                let instance = instances.get_mut(&id).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::NotFound, format!("instance {id}"))
                })?;
                if instance.state != LifecycleState::Prepared {
                    return Err(Fault::portal(
                        PortalErrorKind::BadArguments,
                        format!("instance {id} is {}, not prepared", instance.state),
                    ));
                }
                let scheduler = SchedulerKind::from_name(&instance.scheduler).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::Internal, "unknown scheduler binding")
                })?;
                let grid_host = self.grid_host_for(&instance.host).ok_or_else(|| {
                    Fault::portal(
                        PortalErrorKind::HostUnavailable,
                        format!("host {:?} not on the grid", instance.host),
                    )
                })?;
                let script = render_script(
                    scheduler,
                    &JobRequirements {
                        name: format!("{}-{id}", instance.app_name),
                        queue: instance.queue.clone(),
                        cpus: instance.cpus,
                        wall_minutes: instance.wall_minutes,
                        command: command.to_owned(),
                    },
                );
                let job_id = self
                    .grid
                    .submit(&instance.user, &grid_host, scheduler, &script)
                    .map_err(|e| Fault::portal(PortalErrorKind::JobRejected, e.to_string()))?;
                instance
                    .mark_running(job_id)
                    .map_err(|e| Fault::portal(PortalErrorKind::Internal, e.to_string()))?;
                Ok(SoapValue::Int(job_id as i64))
            }
            "instanceStatus" => {
                let id = arg_int(args, 0, "instanceId")? as u64;
                let instance = self.sync_instance(id)?;
                Ok(SoapValue::Xml(instance.to_element()))
            }
            "listInstances" => {
                let mut rows: Vec<(u64, ApplicationInstance)> = self
                    .instances
                    .read()
                    .iter()
                    .filter(|(_, inst)| inst.user == principal)
                    .map(|(id, inst)| (*id, inst.clone()))
                    .collect();
                rows.sort_by_key(|(id, _)| *id);
                Ok(SoapValue::Array(
                    rows.into_iter()
                        .map(|(id, inst)| {
                            SoapValue::Struct(vec![
                                ("instanceId".into(), SoapValue::Int(id as i64)),
                                ("application".into(), SoapValue::str(inst.app_name)),
                                ("state".into(), SoapValue::str(inst.state.as_str())),
                                ("host".into(), SoapValue::str(inst.host)),
                            ])
                        })
                        .collect(),
                ))
            }
            other => Err(Fault::client(format!("AppFactory has no method {other:?}"))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![
            MethodDesc::new(
                "registerApplication",
                vec![("descriptor", SoapType::Xml)],
                SoapType::String,
                "Register a validated application descriptor; returns its name",
            ),
            MethodDesc::new(
                "listApplications",
                vec![],
                SoapType::Array,
                "Names of registered applications",
            ),
            MethodDesc::new(
                "describeApplication",
                vec![("name", SoapType::String)],
                SoapType::Xml,
                "The abstract descriptor for an application",
            ),
            MethodDesc::new(
                "createInstance",
                vec![
                    ("application", SoapType::String),
                    ("hostDns", SoapType::String),
                    ("queue", SoapType::String),
                    ("cpus", SoapType::Int),
                    ("wallMinutes", SoapType::Int),
                ],
                SoapType::Int,
                "Bind an application to a resource; returns the instance id",
            ),
            MethodDesc::new(
                "submitInstance",
                vec![("instanceId", SoapType::Int), ("command", SoapType::String)],
                SoapType::Int,
                "Run a prepared instance on the grid; returns the job id",
            ),
            MethodDesc::new(
                "instanceStatus",
                vec![("instanceId", SoapType::Int)],
                SoapType::Xml,
                "Current instance record (archives completed runs)",
            ),
            MethodDesc::new(
                "listInstances",
                vec![],
                SoapType::Array,
                "The caller's instances",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_appws::descriptor::gaussian_example;
    use portalws_soap::{SoapClient, SoapServer};
    use portalws_wire::{Handler, InMemoryTransport};

    fn setup() -> (Arc<Grid>, Arc<ContextStore>, SoapClient) {
        let grid = Grid::testbed();
        let contexts = ContextStore::new();
        let server = SoapServer::new();
        server.mount(Arc::new(AppFactoryService::new(
            Arc::clone(&grid),
            Some(Arc::clone(&contexts)),
        )));
        let handler: Arc<dyn Handler> = Arc::new(server);
        (
            grid,
            contexts,
            SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "AppFactory"),
        )
    }

    #[test]
    fn register_list_describe() {
        let (_, _, c) = setup();
        let name = c
            .call(
                "registerApplication",
                &[SoapValue::Xml(gaussian_example().to_element())],
            )
            .unwrap();
        assert_eq!(name.as_str(), Some("Gaussian"));
        let apps = c.call("listApplications", &[]).unwrap();
        assert_eq!(apps.as_array().unwrap().len(), 1);
        let doc = c
            .call("describeApplication", &[SoapValue::str("Gaussian")])
            .unwrap();
        let d = ApplicationDescriptor::from_element(doc.as_xml().unwrap()).unwrap();
        assert_eq!(d.hosts.len(), 2);
    }

    #[test]
    fn invalid_descriptor_rejected_by_schema() {
        let (_, _, c) = setup();
        let mut broken = gaussian_example();
        broken.hosts.clear(); // host is minOccurs=1
        let err = c
            .call(
                "registerApplication",
                &[SoapValue::Xml(broken.to_element())],
            )
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::BadArguments)
        );
    }

    #[test]
    fn full_lifecycle_through_the_factory() {
        let (grid, contexts, c) = setup();
        c.call(
            "registerApplication",
            &[SoapValue::Xml(gaussian_example().to_element())],
        )
        .unwrap();
        let id = c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Gaussian"),
                    SoapValue::str("tg-login.sdsc.edu"),
                    SoapValue::str("batch"),
                    SoapValue::Int(4),
                    SoapValue::Int(30),
                ],
            )
            .unwrap();
        let job = c
            .call("submitInstance", &[id.clone(), SoapValue::str("hostname")])
            .unwrap();
        assert!(job.as_i64().unwrap() > 0);

        // Prepared → running.
        let status = c.call("instanceStatus", std::slice::from_ref(&id)).unwrap();
        let inst = ApplicationInstance::from_element(status.as_xml().unwrap()).unwrap();
        assert_eq!(inst.state, LifecycleState::Running);

        // Drive the grid; the next status sync archives.
        grid.tick(0);
        grid.tick(3000);
        let status = c.call("instanceStatus", std::slice::from_ref(&id)).unwrap();
        let inst = ApplicationInstance::from_element(status.as_xml().unwrap()).unwrap();
        assert_eq!(inst.state, LifecycleState::Archived);
        assert_eq!(inst.exit_code, Some(0));

        // The archive landed in the context store under user/app/instance.
        let stored = contexts
            .get_property(&["anonymous", "Gaussian", "instance-1"], "instance")
            .unwrap();
        assert!(stored.contains("archived"));

        // listInstances reflects the terminal state.
        let rows = c.call("listInstances", &[]).unwrap();
        let rows = rows.as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field("state").unwrap().as_str(), Some("archived"));
    }

    #[test]
    fn binding_validation_enforced() {
        let (_, _, c) = setup();
        c.call(
            "registerApplication",
            &[SoapValue::Xml(gaussian_example().to_element())],
        )
        .unwrap();
        // Unknown host binding.
        assert!(c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Gaussian"),
                    SoapValue::str("nowhere.example.org"),
                    SoapValue::str("batch"),
                    SoapValue::Int(1),
                    SoapValue::Int(10),
                ],
            )
            .is_err());
        // CPU request exceeding the queue binding (max 16 on tg-login).
        assert!(c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Gaussian"),
                    SoapValue::str("tg-login.sdsc.edu"),
                    SoapValue::str("batch"),
                    SoapValue::Int(17),
                    SoapValue::Int(10),
                ],
            )
            .is_err());
        // Unknown application.
        assert!(c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Ghost"),
                    SoapValue::str("tg-login.sdsc.edu"),
                    SoapValue::str("batch"),
                    SoapValue::Int(1),
                    SoapValue::Int(10),
                ],
            )
            .is_err());
    }

    #[test]
    fn double_submit_rejected() {
        let (_, _, c) = setup();
        c.call(
            "registerApplication",
            &[SoapValue::Xml(gaussian_example().to_element())],
        )
        .unwrap();
        let id = c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Gaussian"),
                    SoapValue::str("tg-login.sdsc.edu"),
                    SoapValue::str("batch"),
                    SoapValue::Int(1),
                    SoapValue::Int(10),
                ],
            )
            .unwrap();
        c.call("submitInstance", &[id.clone(), SoapValue::str("date")])
            .unwrap();
        assert!(c
            .call("submitInstance", &[id, SoapValue::str("date")])
            .is_err());
    }

    #[test]
    fn cancelled_job_archives_with_failure() {
        let (grid, _, c) = setup();
        c.call(
            "registerApplication",
            &[SoapValue::Xml(gaussian_example().to_element())],
        )
        .unwrap();
        let id = c
            .call(
                "createInstance",
                &[
                    SoapValue::str("Gaussian"),
                    SoapValue::str("tg-login.sdsc.edu"),
                    SoapValue::str("batch"),
                    SoapValue::Int(1),
                    SoapValue::Int(10),
                ],
            )
            .unwrap();
        let job = c
            .call(
                "submitInstance",
                &[id.clone(), SoapValue::str("sleep 1000")],
            )
            .unwrap();
        grid.cancel(job.as_i64().unwrap() as u64).unwrap();
        let status = c.call("instanceStatus", &[id]).unwrap();
        let inst = ApplicationInstance::from_element(status.as_xml().unwrap()).unwrap();
        assert_eq!(inst.state, LifecycleState::Archived);
        assert_eq!(inst.exit_code, Some(-1));
    }

    #[test]
    fn instances_scoped_per_user() {
        use portalws_auth::Assertion;
        let (_, _, c) = setup();
        c.call(
            "registerApplication",
            &[SoapValue::Xml(gaussian_example().to_element())],
        )
        .unwrap();
        // Create one instance as alice (via a signed-looking header; no
        // guard here, the service just reads the subject).
        let mut a = Assertion::new("a1", "ctx", "alice@GCE.ORG", "kerberos", "t", u64::MAX);
        a.sign("k");
        c.set_header_supplier(Arc::new(move || vec![a.to_header()]));
        c.call(
            "createInstance",
            &[
                SoapValue::str("Gaussian"),
                SoapValue::str("tg-login.sdsc.edu"),
                SoapValue::str("batch"),
                SoapValue::Int(1),
                SoapValue::Int(10),
            ],
        )
        .unwrap();
        let mine = c.call("listInstances", &[]).unwrap();
        assert_eq!(mine.as_array().unwrap().len(), 1);
        // Bob sees nothing.
        let mut b = Assertion::new("b1", "ctx", "bob@GCE.ORG", "kerberos", "t", u64::MAX);
        b.sign("k");
        c.set_header_supplier(Arc::new(move || vec![b.to_header()]));
        let theirs = c.call("listInstances", &[]).unwrap();
        assert_eq!(theirs.as_array().unwrap().len(), 0);
    }
}

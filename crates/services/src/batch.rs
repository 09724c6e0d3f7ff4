//! The batch-job service: a Web service composed from another Web service.
//!
//! §3.1: "SDSC developed a secure, authenticated Python Web Service to
//! submit batch jobs… This simple Web Service has a method that takes
//! string arguments that define the host and batch scheduler commands to
//! be run… Then these string arguments are parsed, and the batch job
//! submission Web Service uses the Globusrun job submission service
//! previously described to submit the job. The interaction … demonstrates
//! a Web Service using another Web Service to perform a task."
//!
//! [`BatchJobService`] holds a [`SoapClient`] to a `JobSubmission`
//! endpoint and forwards through it — every `runBatch` call therefore
//! costs *two* SOAP hops, which experiment E1 reports as the composition
//! overhead.

use std::sync::Arc;

use portalws_gridsim::sched::{render_script, JobRequirements, SchedulerKind};
use portalws_soap::{
    CallContext, Fault, MethodDesc, PortalErrorKind, SoapClient, SoapError, SoapResult,
    SoapService, SoapType, SoapValue,
};

/// The composed batch-submission service.
pub struct BatchJobService {
    jobsub: Arc<SoapClient>,
}

/// The parsed form of the service's string command:
/// `"<host> <scheduler> <queue> <cpus> <wallMinutes> -- <command...>"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchCommand {
    /// Target host.
    pub host: String,
    /// Target scheduler.
    pub scheduler: SchedulerKind,
    /// Queue name.
    pub queue: String,
    /// CPU count.
    pub cpus: u32,
    /// Walltime minutes.
    pub wall_minutes: u32,
    /// Command line after `--`.
    pub command: String,
}

impl BatchCommand {
    /// Parse the string form.
    pub fn parse(s: &str) -> Result<BatchCommand, String> {
        let (head, command) = s
            .split_once("--")
            .ok_or_else(|| "expected '--' before the command".to_string())?;
        let command = command.trim();
        if command.is_empty() {
            return Err("empty command after '--'".into());
        }
        let parts: Vec<&str> = head.split_whitespace().collect();
        let [host, scheduler, queue, cpus, wall] = parts.as_slice() else {
            return Err(format!(
                "expected '<host> <scheduler> <queue> <cpus> <wallMinutes> -- <command>', got {} fields",
                parts.len()
            ));
        };
        Ok(BatchCommand {
            host: (*host).to_owned(),
            scheduler: SchedulerKind::from_name(scheduler)
                .ok_or_else(|| format!("unknown scheduler {scheduler:?}"))?,
            queue: (*queue).to_owned(),
            cpus: cpus.parse().map_err(|_| format!("bad cpus {cpus:?}"))?,
            wall_minutes: wall
                .parse()
                .map_err(|_| format!("bad wallMinutes {wall:?}"))?,
            command: command.to_owned(),
        })
    }

    /// Render the batch script for the parsed command.
    pub fn to_script(&self) -> String {
        render_script(
            self.scheduler,
            &JobRequirements {
                name: "batchws".into(),
                queue: self.queue.clone(),
                cpus: self.cpus,
                wall_minutes: self.wall_minutes,
                command: self.command.clone(),
            },
        )
    }
}

impl BatchJobService {
    /// Compose over a client bound to a `JobSubmission` endpoint.
    pub fn new(jobsub: Arc<SoapClient>) -> BatchJobService {
        BatchJobService { jobsub }
    }
}

fn forward_error(e: SoapError) -> Fault {
    match e {
        // Relay the downstream fault unchanged: the common error codes
        // survive service composition.
        SoapError::Fault(f) => f,
        // Transport failures go through the canonical wire→fault table.
        SoapError::Transport(w) => Fault::from_wire(&w),
        other => Fault::portal(
            PortalErrorKind::Internal,
            format!("job submission service unreachable: {other}"),
        ),
    }
}

impl SoapService for BatchJobService {
    fn name(&self) -> &str {
        "BatchJob"
    }

    fn invoke(
        &self,
        method: &str,
        args: &[(String, SoapValue)],
        ctx: &CallContext,
    ) -> SoapResult<SoapValue> {
        match method {
            "runBatch" => {
                let spec = args.first().and_then(|(_, v)| v.as_str()).ok_or_else(|| {
                    Fault::portal(PortalErrorKind::BadArguments, "missing command string")
                })?;
                let cmd = BatchCommand::parse(spec)
                    .map_err(|e| Fault::portal(PortalErrorKind::BadArguments, e))?;
                // The composition step: one Web service calling another.
                // The caller's SOAP headers (its SAML assertion) are
                // forwarded so the downstream SSP can re-verify — the
                // delegation story of §4.
                let mut env = portalws_soap::Envelope::request(
                    self.jobsub.service(),
                    "run",
                    [
                        SoapValue::str(cmd.host.clone()),
                        SoapValue::str(cmd.scheduler.name()),
                        SoapValue::str(cmd.to_script()),
                    ],
                );
                env.headers.extend(ctx.headers.iter().cloned());
                let out = self.jobsub.call_envelope(env).map_err(forward_error)?;
                Ok(out)
            }
            other => Err(Fault::client(format!("BatchJob has no method {other:?}"))),
        }
    }

    fn methods(&self) -> Vec<MethodDesc> {
        vec![MethodDesc::new(
            "runBatch",
            vec![("commandLine", SoapType::String)],
            SoapType::String,
            "Parse '<host> <sched> <queue> <cpus> <wall> -- <cmd>' and run it via the JobSubmission service",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSubmissionService;
    use portalws_gridsim::grid::Grid;
    use portalws_soap::SoapServer;
    use portalws_wire::{Handler, InMemoryTransport};

    /// Two-server composition: BatchJob on one SSP forwarding to
    /// JobSubmission on another.
    fn composed() -> SoapClient {
        let grid = Grid::testbed();
        let jobsub_server = SoapServer::new();
        jobsub_server.mount(Arc::new(JobSubmissionService::new(grid)));
        let jobsub_handler: Arc<dyn Handler> = Arc::new(jobsub_server);
        let jobsub_client = Arc::new(SoapClient::new(
            Arc::new(InMemoryTransport::new(jobsub_handler)),
            "JobSubmission",
        ));

        let batch_server = SoapServer::new();
        batch_server.mount(Arc::new(BatchJobService::new(jobsub_client)));
        let batch_handler: Arc<dyn Handler> = Arc::new(batch_server);
        SoapClient::new(Arc::new(InMemoryTransport::new(batch_handler)), "BatchJob")
    }

    #[test]
    fn parse_command_string() {
        let cmd = BatchCommand::parse("tg-login PBS batch 4 30 -- /bin/hostname -f").unwrap();
        assert_eq!(cmd.host, "tg-login");
        assert_eq!(cmd.scheduler, SchedulerKind::Pbs);
        assert_eq!(cmd.cpus, 4);
        assert_eq!(cmd.command, "/bin/hostname -f");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(BatchCommand::parse("tg-login PBS batch 4 30 /bin/date").is_err());
        assert!(BatchCommand::parse("tg-login SLURM batch 4 30 -- date").is_err());
        assert!(BatchCommand::parse("tg-login PBS batch four 30 -- date").is_err());
        assert!(BatchCommand::parse("tg-login PBS batch 4 30 -- ").is_err());
        assert!(BatchCommand::parse("too few -- date").is_err());
    }

    #[test]
    fn composed_service_runs_jobs() {
        let c = composed();
        let out = c
            .call(
                "runBatch",
                &[SoapValue::str("tg-login PBS batch 2 10 -- hostname")],
            )
            .unwrap();
        assert_eq!(out.as_str().unwrap(), "tg-login\n");
    }

    #[test]
    fn downstream_faults_relay_their_codes() {
        let c = composed();
        let err = c
            .call(
                "runBatch",
                &[SoapValue::str("ghost PBS batch 2 10 -- hostname")],
            )
            .unwrap_err();
        // HOST_UNAVAILABLE came from JobSubmission, through BatchJob,
        // back to the client — the error taxonomy survives composition.
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::HostUnavailable)
        );
    }

    #[test]
    fn bad_command_string_is_caller_fault() {
        let c = composed();
        let err = c
            .call("runBatch", &[SoapValue::str("nonsense")])
            .unwrap_err();
        assert_eq!(
            err.as_fault().and_then(|f| f.kind()),
            Some(PortalErrorKind::BadArguments)
        );
    }

    #[test]
    fn script_round_trips_through_target_dialect() {
        let cmd = BatchCommand::parse("modi4 GRD normal 8 45 -- ./solver in.dat").unwrap();
        let script = cmd.to_script();
        let parsed = portalws_gridsim::sched::parse_script(SchedulerKind::Grd, &script).unwrap();
        assert_eq!(parsed.cpus, 8);
        assert_eq!(parsed.wall_minutes, 45);
        assert_eq!(parsed.command, "./solver in.dat");
    }
}

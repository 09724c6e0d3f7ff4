//! The core portal Web services of §3.
//!
//! "The first step in our investigation is to identify a common set of
//! services that are used by our existing portal projects. We chose to
//! investigate the following: job submission, data management services
//! with the Storage Resource Broker, user context management, and batch
//! script generation."
//!
//! * [`job`] — the Globusrun-style job-submission service: plain-string
//!   submission and the XML multi-job form ("the DTD … was designed to
//!   allow multiple jobs to be included in a single XML string"), executed
//!   sequentially as the paper describes, plus a parallel ablation.
//! * [`batch`] — the batch-job service that *calls the job-submission
//!   service over SOAP*: "a Web Service using another Web Service to
//!   perform a task".
//! * [`data`] — the SRB data-management service: `ls`, `cat`, `get`,
//!   `put` (string-streamed, the mechanism that "does not scale well"),
//!   the batched `xml_call`, and a base64 ablation, over one or more
//!   brokers that [`shard`] places collections on.
//! * [`context`] — the Gateway context manager, in both shapes the paper
//!   discusses: the 60-plus-method monolith and the decomposed refactoring.
//! * [`factory`] — the §6 application factory: binds registered
//!   application descriptors to grid resources and drives their lifecycle.
//! * [`scriptgen`] — batch script generation behind one agreed WSDL
//!   interface with two independent implementations (IU supporting
//!   PBS/GRD, SDSC supporting LSF/NQS) and two independently written
//!   clients, reproducing the §3.4 interoperability exercise.

pub mod batch;
pub mod context;
pub mod data;
pub mod factory;
pub mod job;
pub mod scriptgen;
pub mod shard;
pub mod transfer;

pub use batch::BatchJobService;
pub use context::{ContextManagerMonolith, ContextStore, DecomposedContextServices};
pub use data::{DataManagementService, Shard};
pub use factory::AppFactoryService;
pub use job::JobSubmissionService;
pub use scriptgen::{IuScriptGen, SdscScriptGen};
pub use shard::ShardMap;
pub use transfer::{TransferError, TransferTable};

use portalws_auth::{Assertion, UserSession};
use portalws_soap::CallContext;

/// The principal a call is executing as: the subject of the (already
/// guard-verified) SAML assertion in the SOAP header, or `"anonymous"`.
///
/// Services trust the header because the SOAP server's guard performed
/// the Figure 2 atomic step before dispatch reached them, on the same
/// entry: the first one named `Assertion`.
pub fn caller_principal(ctx: &CallContext) -> String {
    UserSession::find_assertion(&ctx.headers)
        .and_then(|entry| Assertion::read(entry.as_str()).ok())
        .map(|a| a.subject)
        .unwrap_or_else(|| "anonymous".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use portalws_soap::HeaderEntry;

    #[test]
    fn principal_from_assertion_header() {
        let mut a = Assertion::new("a1", "ctx-1", "alice@GCE.ORG", "kerberos", "t", 1000);
        a.sign("k");
        let ctx = CallContext {
            headers: vec![a.to_header()],
            service: "X".into(),
            method: "m".into(),
        };
        assert_eq!(caller_principal(&ctx), "alice@GCE.ORG");
    }

    #[test]
    fn anonymous_without_header() {
        let ctx = CallContext {
            headers: vec![],
            service: "X".into(),
            method: "m".into(),
        };
        assert_eq!(caller_principal(&ctx), "anonymous");
        let ctx = CallContext {
            headers: vec![HeaderEntry::parse("<Other/>").unwrap()],
            service: "X".into(),
            method: "m".into(),
        };
        assert_eq!(caller_principal(&ctx), "anonymous");
    }
}

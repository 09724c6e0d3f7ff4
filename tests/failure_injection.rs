//! Failure injection across the deployed stack: servers down, quotas
//! exhausted, schedulers refusing work, malformed submissions. The
//! architecture claim under test is the paper's consistent-error-messaging
//! requirement — every failure must surface as a *typed* portal error (or
//! a clean guard rejection), never a hang, panic, or silent success.

use std::sync::Arc;

use portalws::auth::guard;
use portalws::portal::{PortalDeployment, PortalShell, SecurityMode, UiServer};
use portalws::soap::{PortalErrorKind, SoapClient, SoapServer, SoapValue};
use portalws::wire::{Handler, InMemoryTransport, PooledTransport, Request, Status};

#[test]
fn central_guard_fails_closed_when_auth_server_is_down() {
    // An SSP whose guard points at a dead Authentication Service must
    // refuse every call — availability is sacrificed, access is not.
    let ssp = SoapServer::new();
    ssp.mount(Arc::new(portalws::services::scriptgen::SdscScriptGen));
    let dead_auth = Arc::new(SoapClient::new(
        Arc::new(PooledTransport::new("127.0.0.1:1")),
        "Authentication",
    ));
    ssp.set_guard(guard::remote_guard(dead_auth));
    let handler: Arc<dyn Handler> = Arc::new(ssp);
    let client = SoapClient::new(Arc::new(InMemoryTransport::new(handler)), "BatchScriptGen");

    // Even a syntactically fine assertion cannot be verified.
    let mut a = portalws::auth::Assertion::new("a", "ctx-1", "alice", "kerberos", "t", u64::MAX);
    a.sign("k");
    client.set_header_supplier(Arc::new(move || vec![a.to_header()]));
    let err = client.call("supportedSchedulers", &[]).unwrap_err();
    assert_eq!(
        err.as_fault().and_then(|f| f.kind()),
        Some(PortalErrorKind::AuthFailed)
    );
    assert!(err.to_string().contains("unreachable"), "{err}");
}

#[test]
fn quota_exhaustion_mid_session_recovers_after_cleanup() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    deployment.srb.mkdir("/small").unwrap();
    deployment.srb.set_quota("/small", 64);
    let data = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "DataManagement",
    );

    data.call(
        "put",
        &[SoapValue::str("/small/a"), SoapValue::str("x".repeat(40))],
    )
    .unwrap();
    // Second write blows the quota: typed DISK_FULL, not a corrupted store.
    let err = data
        .call(
            "put",
            &[SoapValue::str("/small/b"), SoapValue::str("y".repeat(40))],
        )
        .unwrap_err();
    assert_eq!(
        err.as_fault().and_then(|f| f.kind()),
        Some(PortalErrorKind::DiskFull)
    );
    // The first object is intact, and deleting it frees the budget.
    let back = data.call("get", &[SoapValue::str("/small/a")]).unwrap();
    assert_eq!(back.as_str().unwrap().len(), 40);
    data.call("rm", &[SoapValue::str("/small/a")]).unwrap();
    data.call(
        "put",
        &[SoapValue::str("/small/b"), SoapValue::str("y".repeat(40))],
    )
    .unwrap();
}

#[test]
fn scheduler_rejections_surface_through_the_whole_stack() {
    // Queue limits violated at the deepest layer (the scheduler) come back
    // through jobsub SOAP, the shell, with the common code intact.
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let ui = Arc::new(UiServer::new(Arc::clone(&deployment)));
    let shell = PortalShell::new(Arc::clone(&ui));
    // debug queue admits at most 4 cpus.
    let err = shell
        .exec("scriptgen iu PBS debug big 8 10 -- date | jobrun tg-login PBS")
        .unwrap_err();
    assert!(err.to_string().contains("JOB_REJECTED"), "{err}");
}

#[test]
fn malformed_soap_bodies_never_wedge_a_server() {
    let deployment = PortalDeployment::over_tcp(SecurityMode::Open);
    let transport = deployment.transport("grid.sdsc.edu").unwrap();
    for garbage in [
        "",
        "not xml at all",
        "<unclosed><envelope>",
        "<Envelope/>",
        "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"urn:x\"><SOAP-ENV:Body/></SOAP-ENV:Envelope>",
    ] {
        let resp = transport
            .round_trip(Request::post("/soap/JobSubmission", garbage))
            .unwrap();
        assert_eq!(resp.status, Status::InternalError, "{garbage:?}");
        // …and the server still works for well-formed traffic afterwards.
        let client = SoapClient::new(Arc::clone(&transport), "JobSubmission");
        client.call("listHosts", &[]).unwrap();
    }
}

#[test]
fn unknown_routes_and_methods_are_clean_errors() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let transport = deployment.transport("grid.sdsc.edu").unwrap();
    assert_eq!(
        transport
            .round_trip(Request::get("/no/such/route"))
            .unwrap()
            .status,
        Status::NotFound
    );
    let client = SoapClient::new(Arc::clone(&transport), "NoSuchService");
    assert!(client.call("anything", &[]).is_err());
    let client = SoapClient::new(transport, "JobSubmission");
    assert!(client.call("noSuchMethod", &[]).is_err());
}

#[test]
fn portlet_page_survives_a_dead_remote_app() {
    use portalws::portlets::{HtmlPortlet, PortalPage, PortletRegistry, WebFormPortlet};
    let registry = Arc::new(PortletRegistry::new());
    registry.register(Arc::new(HtmlPortlet::new("ok", "Works", "<p>fine</p>")));
    registry.register(Arc::new(WebFormPortlet::new(
        "dead",
        "Dead App",
        "/app",
        Arc::new(PooledTransport::new("127.0.0.1:1")),
    )));
    registry.add_to_layout("u", "ok", 0).unwrap();
    registry.add_to_layout("u", "dead", 1).unwrap();
    let portal = PortalPage::new(registry, "/portal");
    let resp = portal.handle(&Request::get("/portal?user=u"));
    assert_eq!(resp.status, Status::Ok);
    let html = resp.body_str();
    // The healthy portlet renders; the dead one degrades to a notice.
    assert!(html.contains("<p>fine</p>"));
    assert!(html.contains("remote content unavailable"), "{html}");
}

#[test]
fn expired_session_fails_all_proxies_until_relogin() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Local);
    let ui = UiServer::new(Arc::clone(&deployment));
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    jobs.call("listHosts", &[]).unwrap();
    // The GSS context itself expires (8 hours).
    deployment.clock.advance(9 * 3600 * 1000);
    let err = jobs.call("listHosts", &[]).unwrap_err();
    assert_eq!(
        err.as_fault().and_then(|f| f.kind()),
        Some(PortalErrorKind::AuthFailed)
    );
    // Re-login restores service.
    ui.login("alice@GCE.ORG", "alice-pass").unwrap();
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
    jobs.call("listHosts", &[]).unwrap();
}

#[test]
fn xml_call_batch_partial_failure_does_not_poison_the_batch() {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let data = SoapClient::new(
        deployment.transport("grid.sdsc.edu").unwrap(),
        "DataManagement",
    );
    let request = portalws::xml::Element::new("request")
        .with_child(
            portalws::xml::Element::new("put")
                .with_attr("path", "/public/ok1")
                .with_text("a"),
        )
        .with_child(portalws::xml::Element::new("cat").with_attr("path", "/ghost"))
        .with_child(
            portalws::xml::Element::new("put")
                .with_attr("path", "/public/ok2")
                .with_text("b"),
        );
    let out = data.call("xml_call", &[SoapValue::Xml(request)]).unwrap();
    let results: Vec<_> = out.as_xml().unwrap().children().collect();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].attr("error"), None);
    assert_eq!(results[1].attr("error"), Some("true"));
    assert_eq!(results[2].attr("error"), None);
    // Both successful writes really landed.
    assert!(deployment.srb.cat("anonymous", "/public/ok1").is_ok());
    assert!(deployment.srb.cat("anonymous", "/public/ok2").is_ok());
}

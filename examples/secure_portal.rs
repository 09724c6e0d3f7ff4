//! The Figure 2 single-sign-on protocol over real TCP servers, with the
//! portlet portal on top — the closest thing to the 2002 deployment this
//! repository can stand up on one machine.
//!
//! ```sh
//! cargo run --example secure_portal
//! ```

use std::sync::Arc;

use portalws::appws::descriptor::descriptor_schema;
use portalws::portal::{PortalDeployment, SecurityMode, UiServer};
use portalws::portlets::{HtmlPortlet, PortalPage, PortletRegistry, WebFormPortlet};
use portalws::soap::{SoapClient, SoapValue};
use portalws::wire::{Handler, HttpServer, HttpTransport, Request, ServerConfig};
use portalws::wizard::WizardApp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five logical servers, each a real TCP listener on localhost, with
    // Figure 2 central verification guarding the SSPs, plus both §4
    // further-work items: mutual authentication and Akenti-style access
    // control.
    let deployment = PortalDeployment::over_tcp(SecurityMode::Central);
    deployment.enable_mutual_auth();
    let policy = Arc::new(portalws::auth::PolicyEngine::default_permit());
    policy.deny("bob@GCE.ORG", "JobSubmission", "cancel");
    deployment.install_access_policy(policy);
    println!("logical servers: {:?}\n", deployment.hosts());

    // --- the atomic step, visibly -----------------------------------------
    println!("== unauthenticated request is refused by the SSP ==");
    let bare = SoapClient::new(deployment.transport("grid.sdsc.edu")?, "JobSubmission");
    match bare.call("listHosts", &[]) {
        Err(e) => println!("  refused: {e}\n"),
        Ok(_) => unreachable!("guard must reject"),
    }

    println!("== login establishes a GSS context on the auth server ==");
    let ui = Arc::new(UiServer::new(Arc::clone(&deployment)));
    ui.login("alice@GCE.ORG", "alice-pass")?;
    println!("  principal: {}", ui.principal().unwrap());
    println!("  live GSS contexts: {}\n", deployment.auth.context_count());

    println!("== signed assertions ride in SOAP headers ==");
    let jobs = ui.proxy("grid.sdsc.edu", "JobSubmission")?;
    let hosts = jobs.call("listHosts", &[])?;
    for h in hosts.as_array().unwrap() {
        println!(
            "  {} ({} cpus)",
            h.field("dns").unwrap().as_str().unwrap(),
            h.field("cpus").unwrap().as_i64().unwrap()
        );
    }
    println!(
        "  central verifications so far: {}\n",
        deployment.auth.verification_count()
    );

    // --- a secured job round trip -----------------------------------------
    let gen = ui.proxy("gateway.iu.edu", "BatchScriptGen")?;
    let script = gen.call_named(
        "generateScript",
        &[
            ("scheduler", SoapValue::str("PBS")),
            ("queue", SoapValue::str("batch")),
            ("jobName", SoapValue::str("secure-demo")),
            ("command", SoapValue::str("hostname")),
            ("cpus", SoapValue::Int(2)),
            ("wallMinutes", SoapValue::Int(10)),
        ],
    )?;
    let out = jobs.call(
        "run",
        &[SoapValue::str("tg-login"), SoapValue::str("PBS"), script],
    )?;
    println!("== secured job ran: {} ==", out.as_str().unwrap().trim());
    println!("   (both directions verified: alice's assertion checked by the SSP,");
    println!("    the SSP's host assertion checked by the client proxy)\n");

    // Access control in action: bob may look but not cancel.
    let bob = UiServer::new(Arc::clone(&deployment));
    bob.login("bob@GCE.ORG", "bob-pass")?;
    let bob_jobs = bob.proxy("grid.sdsc.edu", "JobSubmission")?;
    bob_jobs.call("listHosts", &[])?;
    match bob_jobs.call("cancel", &[SoapValue::Int(1)]) {
        Err(e) => println!("== access control: {e} ==\n"),
        Ok(_) => unreachable!("policy must deny"),
    }

    // --- the portlet portal on its own TCP server --------------------------
    // The schema wizard runs as a separate web application; the portal
    // aggregates it through WebFormPortlet (session state + URL remap).
    let wizard_app: Arc<dyn Handler> = Arc::new(WizardApp::new(descriptor_schema(), "/wizard"));
    let wizard_server = HttpServer::start(
        "127.0.0.1:0",
        wizard_app,
        ServerConfig::with_workers(2),
        None,
    )?;

    let registry = Arc::new(PortletRegistry::new());
    registry.register(Arc::new(HtmlPortlet::new(
        "motd",
        "Welcome",
        "<p>GCE testbed — authenticated as alice@GCE.ORG</p>",
    )));
    registry.register(Arc::new(WebFormPortlet::new(
        "appwizard",
        "Application Wizard",
        "/wizard/application",
        Arc::new(HttpTransport::new(wizard_server.addr())),
    )));
    registry.add_to_layout("alice@GCE.ORG", "motd", 0)?;
    registry.add_to_layout("alice@GCE.ORG", "appwizard", 1)?;

    let portal = PortalPage::new(registry, "/portal");
    let portal_server = HttpServer::start(
        "127.0.0.1:0",
        Arc::new(portal),
        ServerConfig::with_workers(2),
        None,
    )?;
    let browser = HttpTransport::new(portal_server.addr());
    let resp = portalws::wire::Transport::round_trip(
        &browser,
        Request::get("/portal?user=alice@GCE.ORG"),
    )?;
    let page = resp.body_str();
    println!("== composite portal page ({} bytes) ==", page.len());
    println!(
        "  portlet tables: {}",
        page.matches("<table class=\"portlet\"").count()
    );
    println!(
        "  wizard form remapped into portlet window: {}",
        page.contains("portlet=appwizard")
    );

    ui.logout();
    println!(
        "\nlogged out; live GSS contexts: {}",
        deployment.auth.context_count()
    );
    wizard_server.shutdown();
    portal_server.shutdown();
    Ok(())
}

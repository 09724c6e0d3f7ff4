//! E2 / Figure 2: the assertion-based authentication service.
//!
//! Measures the login (GSS context establishment), assertion mint/sign,
//! central verification, and the per-call cost of each security mode
//! (open baseline, central verification, local-verification ablation).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use portalws_auth::UserSession;
use portalws_core::{PortalDeployment, SecurityMode, UiServer};
use portalws_gridsim::cred::Mechanism;

fn auth_primitives(c: &mut Criterion) {
    let deployment = PortalDeployment::in_memory(SecurityMode::Open);
    let auth = Arc::clone(&deployment.auth);
    let mut g = c.benchmark_group("fig2_primitives");

    g.bench_function("login_gss_establish", |b| {
        b.iter(|| {
            auth.login("alice@GCE.ORG", "alice-pass", Mechanism::Kerberos)
                .unwrap()
        })
    });

    let gss = auth
        .login("alice@GCE.ORG", "alice-pass", Mechanism::Kerberos)
        .unwrap();
    let session = UserSession::new(gss, Arc::clone(&deployment.clock));
    g.bench_function("mint_and_sign_assertion", |b| {
        b.iter(|| session.make_assertion())
    });

    let assertion = session.make_assertion();
    g.bench_function("verify_assertion_in_process", |b| {
        b.iter(|| auth.verify_assertion(&assertion).unwrap())
    });

    // Serialization cost of the header entry itself.
    g.bench_function("assertion_to_header", |b| b.iter(|| assertion.to_header()));
    g.finish();
}

fn per_call_by_mode(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_guarded_call");
    for (label, mode) in [
        ("open", SecurityMode::Open),
        ("central", SecurityMode::Central),
        ("local", SecurityMode::Local),
    ] {
        let deployment = PortalDeployment::in_memory(mode);
        let ui = UiServer::new(Arc::clone(&deployment));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        g.bench_function(label, |b| b.iter(|| client.call("listHosts", &[]).unwrap()));
    }
    g.finish();
}

fn per_call_by_mode_tcp(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_guarded_call_tcp");
    g.sample_size(20);
    for (label, mode) in [
        ("open", SecurityMode::Open),
        ("central", SecurityMode::Central),
        ("local", SecurityMode::Local),
    ] {
        let deployment = PortalDeployment::over_tcp(mode);
        let ui = UiServer::new(Arc::clone(&deployment));
        ui.login("alice@GCE.ORG", "alice-pass").unwrap();
        let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
        g.bench_function(label, |b| b.iter(|| client.call("listHosts", &[]).unwrap()));
    }
    g.finish();
}

fn concurrent_users(c: &mut Criterion) {
    // Scaling of the central verifier with concurrent sessions.
    let deployment = PortalDeployment::in_memory(SecurityMode::Central);
    let mut g = c.benchmark_group("fig2_concurrent_users");
    g.sample_size(10);
    for users in [1usize, 4, 8] {
        g.bench_function(format!("{users}_users"), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for _ in 0..users {
                        let deployment = Arc::clone(&deployment);
                        scope.spawn(move || {
                            let ui = UiServer::new(deployment);
                            ui.login("alice@GCE.ORG", "alice-pass").unwrap();
                            let client = ui.proxy("grid.sdsc.edu", "JobSubmission").unwrap();
                            for _ in 0..10 {
                                client.call("listHosts", &[]).unwrap();
                            }
                        });
                    }
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    auth_primitives,
    per_call_by_mode,
    per_call_by_mode_tcp,
    concurrent_users
);
criterion_main!(benches);

//! Server-side layers run inside the handler, out of reach of spans the
//! benchmark can take, so the traced run times them by replay: the
//! exchanges the traced ops sent go back through the `soap`, `xml` and
//! `wire` entry points, and the `auth`, `registry` and `gridsim` calls an
//! op causes are repeated on a twin deployment seeded like the workload,
//! so nothing here touches the measured deployment.

use std::hint::black_box;
use std::time::Instant;

use portalws_auth::UserSession;
use portalws_core::{PortalDeployment, SecurityMode};
use portalws_gridsim::cred::Mechanism;
use portalws_gridsim::sched::SchedulerKind;
use portalws_soap::Envelope;
use portalws_wire::{Request, Response};
use portalws_xml::Element;

use crate::workloads::{Inputs, Workload, BULK_COLLECTION, CHURN_COLLECTIONS};

/// Per-call times in microseconds (or per KiB where named).
#[derive(Debug, Default)]
pub struct Replays {
    pub soap_decode_us: f64,
    pub soap_encode_us: f64,
    pub xml_parse_us_per_kib: f64,
    pub wire_framing_us: f64,
    pub auth_mint_us: f64,
    pub auth_verify_us: f64,
    pub registry_find_us: f64,
    pub registry_services: f64,
    pub srb_put_us: f64,
    pub srb_rename_us: f64,
    pub srb_ls_us: f64,
    pub grid_submit_us: f64,
    pub grid_poll_us: f64,
}

/// Repeat `pass` (which handles `items` items) until at least `MIN_MS`
/// have elapsed; microseconds per item.
fn per_item(items: usize, mut pass: impl FnMut()) -> f64 {
    const MIN_MS: f64 = 60.0;
    if items == 0 {
        return 0.0;
    }
    pass();
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t0.elapsed().as_secs_f64() * 1e3 < MIN_MS {
        pass();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / (passes as f64 * items as f64)
}

pub fn run(workload: Workload, inputs: &Inputs, captured: &[(Request, Response)]) -> Replays {
    let mut r = Replays::default();
    let bodies: Vec<String> = captured
        .iter()
        .flat_map(|(req, resp)| [req.body_str(), resp.body_str()])
        .collect();
    let envelopes: Vec<Envelope> = bodies
        .iter()
        .map(|b| Envelope::parse(b).expect("captured bodies are SOAP envelopes"))
        .collect();
    r.soap_decode_us = per_item(bodies.len(), || {
        for b in &bodies {
            black_box(Envelope::parse(black_box(b)).ok());
        }
    });
    r.soap_encode_us = per_item(envelopes.len(), || {
        for e in &envelopes {
            black_box(e.to_xml());
        }
    });
    let kib = bodies.iter().map(String::len).sum::<usize>() as f64 / 1024.0;
    let per_body = per_item(bodies.len(), || {
        for b in &bodies {
            black_box(Element::parse(black_box(b)).ok());
        }
    });
    r.xml_parse_us_per_kib = if kib > 0.0 {
        per_body * bodies.len() as f64 / kib
    } else {
        0.0
    };
    r.wire_framing_us = per_item(captured.len(), || {
        for (req, resp) in captured {
            let bytes = req.to_bytes();
            black_box(Request::read_from(&bytes[..]).ok());
            let bytes = resp.to_bytes();
            black_box(Response::read_from(&bytes[..]).ok());
        }
    });

    let twin = PortalDeployment::in_memory(SecurityMode::Central);
    let (user, secret) = portalws_core::deployment::USERS[0];

    let gss = twin
        .auth
        .login(user, secret, Mechanism::Kerberos)
        .expect("twin login");
    let session = UserSession::new(gss, std::sync::Arc::clone(&twin.clock));
    const ASSERTIONS: usize = 512;
    r.auth_mint_us = per_item(ASSERTIONS, || {
        for _ in 0..ASSERTIONS {
            black_box(session.make_assertion());
        }
    });
    let fresh: Vec<_> = (0..ASSERTIONS).map(|_| session.make_assertion()).collect();
    r.auth_verify_us = per_item(fresh.len(), || {
        for a in &fresh {
            black_box(
                twin.auth
                    .verify_assertion(a)
                    .expect("fresh assertion verifies"),
            );
        }
    });

    r.registry_find_us = per_item(1, || {
        black_box(twin.uddi.find_service("Job"));
    });
    r.registry_services = twin.uddi.service_count() as f64;

    let script = inputs
        .session
        .first()
        .map(|s| s.script.clone())
        .unwrap_or_else(|| {
            "#!/bin/sh\n#PBS -N replay\n#PBS -q batch\n#PBS -l nodes=1\n#PBS -l walltime=00:01:00\nhostname\n".into()
        });
    let (mut submit_s, mut poll_s, mut n) = (0.0, 0.0, 0u32);
    let t_all = Instant::now();
    while n < 200 || t_all.elapsed().as_secs_f64() < 0.06 {
        let t0 = Instant::now();
        let id = twin
            .grid
            .submit(user, "tg-login", SchedulerKind::Pbs, &script)
            .expect("twin submit");
        let t1 = Instant::now();
        black_box(twin.grid.poll(id).expect("twin poll"));
        let t2 = Instant::now();
        twin.grid.cancel(id).expect("twin cancel");
        submit_s += (t1 - t0).as_secs_f64();
        poll_s += (t2 - t1).as_secs_f64();
        n += 1;
    }
    r.grid_submit_us = submit_s * 1e6 / n as f64;
    r.grid_poll_us = poll_s * 1e6 / n as f64;

    // The state-plane calls on the collection the workload writes, with
    // objects of the workload's size.
    let home = format!("/home-{user}");
    let (dir, object) = match workload {
        Workload::WriteChurn => {
            for c in 0..CHURN_COLLECTIONS {
                twin.srb.mkdir(&format!("{home}/c{c}")).expect("twin mkdir");
            }
            for (c, leaf, content) in &inputs.churn_seed {
                twin.srb
                    .put(user, &format!("{home}/c{c}/{leaf}"), content.as_bytes())
                    .expect("twin seed");
            }
            let first = &inputs.churn[0];
            (
                format!("{home}/c{}", first.collection),
                first.contents[0].clone().into_bytes(),
            )
        }
        Workload::BulkTransfer => {
            twin.srb.mkdir(BULK_COLLECTION).expect("twin mkdir");
            (
                BULK_COLLECTION.to_owned(),
                inputs.bulk[0].1[..portalws_core::transfer::DEFAULT_CHUNK_BYTES].to_vec(),
            )
        }
        Workload::PortalSession => (home.clone(), vec![b'x'; 64]),
    };
    let (a, b) = (format!("{dir}/replay-a"), format!("{dir}/replay-b"));
    let (mut put_s, mut rename_s, mut ls_s, mut n) = (0.0, 0.0, 0.0, 0u32);
    let t_all = Instant::now();
    while n < 100 || t_all.elapsed().as_secs_f64() < 0.06 {
        let t0 = Instant::now();
        twin.srb.put(user, &a, &object).expect("twin put");
        let t1 = Instant::now();
        twin.srb.rename(user, &a, &b).expect("twin rename");
        let t2 = Instant::now();
        black_box(twin.srb.ls(user, &dir).expect("twin ls"));
        let t3 = Instant::now();
        twin.srb.rm(user, &b).expect("twin rm");
        put_s += (t1 - t0).as_secs_f64();
        rename_s += (t2 - t1).as_secs_f64();
        ls_s += (t3 - t2).as_secs_f64();
        n += 1;
    }
    r.srb_put_us = put_s * 1e6 / n as f64;
    r.srb_rename_us = rename_s * 1e6 / n as f64;
    r.srb_ls_us = ls_s * 1e6 / n as f64;
    r
}

//! The portal benchmark: stands up the Fig. 4 deployment in this
//! process, drives one closed-loop workload through the public API,
//! checks every reply, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer ledger) as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! Exit status 1 means a wrong reply, a failed stand-up or a wrong final
//! state (the result line then reads `"correct": false`), 2 bad
//! arguments; see `README.md` beside this crate.

mod replay;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use portalws_wire::StatsSnapshot;
use trace::TapCounters;
use workloads::{Inputs, OpError, OpReport, Rig, Workload};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.insert(key.to_owned(), value);
    }
    let get = |k: &str| raw.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {workload:?}; one of {names:?}")
        })?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        spans_out: raw.get("spans-out").map(Into::into),
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", args.seconds));
    }
    Ok(args)
}

/// When a closed-loop phase ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After this much wall time.
    After(Duration),
    /// Before op index `end`.
    AtOp(u64),
}

/// Every op run in this process, warm-ups included, and those whose call
/// returned an error: the result line's `attempted` and `failed`.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// How long ops run between two calibration samples. On a 2-vCPU shared
/// VM the host's speed held for 0.1-1 s at a time, so most blocks see
/// one speed.
const BLOCK: Duration = Duration::from_millis(25);

/// The calibration kernel's time at the speed the reference figures are
/// given in: about its median during these workloads on the 2-vCPU
/// shared VM the bounds were set on, so reference and wall times read
/// alike there.
const CALIB_REF_MS: f64 = 0.4;

/// Factor that turns a time measured between calibration samples
/// `before` and `after` into reference time.
fn to_ref(before: f64, after: f64) -> f64 {
    CALIB_REF_MS * 2.0 / (before + after)
}

/// What one closed-loop phase measured. Times come twice: as measured,
/// and in reference time (see `to_ref`), which the end-to-end metrics
/// report.
#[derive(Default)]
struct Phase {
    failed: u64,
    wrong: Option<String>,
    /// Wall and CPU time of the ops, without the stand-ups and
    /// calibration samples run between them.
    wall_s: f64,
    cpu_s: f64,
    ref_wall_s: f64,
    ref_cpu_s: f64,
    steal_pct: f64,
    /// Latency of each completed op, in milliseconds.
    latencies_ms: Vec<f64>,
    ref_latencies_ms: Vec<f64>,
    /// Every calibration sample, in milliseconds.
    calib_ms: Vec<f64>,
    /// Allocation calls and bytes of each op (counting phase only).
    op_allocs: Vec<(u64, u64)>,
    report: OpReport,
    /// Peak resident set (MiB) read when the op that completed the
    /// workload's fixed op count finished, if the phase got that far.
    rss_at_mark_mib: Option<f64>,
    /// Wall time of each stand-up run during the phase.
    setups_s: Vec<f64>,
    ref_setups_s: Vec<f64>,
}

impl Phase {
    fn completed(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    fn ref_p50_ms(&self) -> f64 {
        percentile(&mut self.ref_latencies_ms.clone(), 50.0)
    }
}

/// Run ops from index `*next` until `stop`, in blocks of about `BLOCK`
/// with a calibration sample before and after each; every block's times
/// are also scaled to reference time by the mean of its two samples.
/// With `Stop::After(d)` and `standups > 0`, a full stand-up of a fresh
/// deployment runs at the middle of each of `standups` equal slices of
/// the time between the peak-RSS mark and `d`, so `setup_s` samples the
/// host over the same interval as the ops without the fresh deployments
/// reaching the measured peak; each stand-up also sits between two
/// calibration samples, and neither stand-ups nor samples count in the
/// ops' times. A wrong reply ends the phase.
fn drive(
    rig: &Rig,
    inputs: &Inputs,
    next: &mut u64,
    stop: Stop,
    tap: Option<&Arc<TapCounters>>,
    count_allocs: bool,
    standups: usize,
) -> Phase {
    let mut phase = Phase::default();
    let rss_mark = matches!(stop, Stop::After(_)).then(|| rig.workload.rss_mark_ops());
    // When (seconds into the phase) the stand-up slices begin.
    let mut slices_from = None;
    let steal0 = sys::cpu_jiffies();
    let mut calib = sys::calib_ms();
    phase.calib_ms.push(calib);
    let t0 = Instant::now();
    let done = |next: u64| match stop {
        Stop::After(d) => t0.elapsed() >= d,
        Stop::AtOp(end) => next >= end,
    };
    while !done(*next) {
        if let Stop::After(d) = stop {
            if phase.setups_s.len() < standups {
                let (k, now) = (phase.setups_s.len() as f64, t0.elapsed().as_secs_f64());
                let from = slices_from.unwrap_or(d.as_secs_f64());
                let due = from + (d.as_secs_f64() - from) * (k + 0.5) / standups as f64;
                if now >= due {
                    // The fresh rig is dropped before the next sample.
                    let result = stand_up(rig.workload, inputs).map(|(_, secs, _)| secs);
                    let after = sys::calib_ms();
                    match result {
                        Ok(secs) => {
                            phase.setups_s.push(secs);
                            phase.ref_setups_s.push(secs * to_ref(calib, after));
                        }
                        Err(msg) => {
                            phase.wrong = Some(format!("stand-up during the run: {msg}"));
                            break;
                        }
                    }
                    phase.calib_ms.push(after);
                    calib = after;
                    continue;
                }
            }
        }

        let first = phase.latencies_ms.len();
        let cpu0 = sys::process_cpu_s();
        let b0 = Instant::now();
        loop {
            let i = *next;
            *next += 1;
            trace::set_op(i);
            ATTEMPTED.fetch_add(1, Relaxed);
            let a0 = sys::alloc_counts();
            let start = Instant::now();
            let result = rig.op(i, inputs, tap);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(r) => {
                    if count_allocs {
                        let a1 = sys::alloc_counts();
                        phase.op_allocs.push((a1.0 - a0.0, a1.1 - a0.1));
                    }
                    phase.latencies_ms.push(ms);
                    if rss_mark == Some(phase.completed()) {
                        phase.rss_at_mark_mib = Some(sys::peak_rss_mib());
                        slices_from = Some(t0.elapsed().as_secs_f64());
                    }
                    phase.report.transfer_chunks += r.transfer_chunks;
                    phase.report.transfer_bytes += r.transfer_bytes;
                    phase.report.xml_commands += r.xml_commands;
                    phase.report.transfer_high_water =
                        phase.report.transfer_high_water.max(r.transfer_high_water);
                }
                Err(OpError::Failed(msg)) => {
                    phase.failed += 1;
                    FAILED.fetch_add(1, Relaxed);
                    eprintln!("op {i} failed: {msg}");
                }
                Err(OpError::Wrong(msg)) => {
                    phase.wrong = Some(format!("op {i}: {msg}"));
                    break;
                }
            }
            if b0.elapsed() >= BLOCK || done(*next) {
                break;
            }
        }
        let wall = b0.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_s() - cpu0;
        let after = sys::calib_ms();
        let scale = to_ref(calib, after);
        phase.wall_s += wall;
        phase.cpu_s += cpu;
        phase.ref_wall_s += wall * scale;
        phase.ref_cpu_s += cpu * scale;
        let block = &phase.latencies_ms[first..];
        phase
            .ref_latencies_ms
            .extend(block.iter().map(|ms| ms * scale));
        phase.calib_ms.push(after);
        calib = after;
        if phase.wrong.is_some() {
            break;
        }
    }
    phase.steal_pct = sys::steal_pct(steal0, sys::cpu_jiffies());
    phase
}

/// Stand the workload up once: deployment, data set, and one warm-up
/// op. Returns the rig, the seconds it took, and the next op index.
fn stand_up(workload: Workload, inputs: &Inputs) -> Result<(Rig, f64, u64), String> {
    let t0 = Instant::now();
    let rig = Rig::stand_up(workload, inputs);
    trace::set_op(0);
    ATTEMPTED.fetch_add(1, Relaxed);
    let warm = rig.op(0, inputs, None);
    let secs = t0.elapsed().as_secs_f64();
    match warm {
        Ok(_) => Ok((rig, secs, 1)),
        Err(OpError::Failed(msg)) => {
            FAILED.fetch_add(1, Relaxed);
            Err(format!("warm-up op failed: {msg}"))
        }
        Err(OpError::Wrong(msg)) => Err(format!("warm-up: op 0: {msg}")),
    }
}

/// Percentile `p` of `v`, interpolated between the closest ranks.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = (v.len() - 1) as f64 * p / 100.0;
    let (i, frac) = (pos.floor() as usize, pos.fract());
    match v.get(i + 1) {
        Some(next) => v[i] + (next - v[i]) * frac,
        None => v[i],
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for x in metrics {
        println!("{:<40} {:>16.4} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    sys::single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let (attempted, failed) = (ATTEMPTED.load(Relaxed), FAILED.load(Relaxed));
    match result {
        Ok(metrics) => {
            print_result(true, attempted, failed, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            print_result(false, attempted, failed, &[]);
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Run the workload; its metrics, or why the run failed.
fn run(args: &Args) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    println!(
        "# workload {} seed {} seconds {} trace {} cpus {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        return run_traced(args, &inputs);
    }

    // The first stand-up gives the rig that is measured; the others run
    // spread through the timed phase, and `setup_s` is the median of all.
    let calib = sys::calib_ms();
    let (rig, first_setup_s, mut next) = stand_up(w, &inputs)?;
    let first_ref_setup_s = first_setup_s * to_ref(calib, sys::calib_ms());
    let phase = drive(
        &rig,
        &inputs,
        &mut next,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        None,
        false,
        w.standups() - 1,
    );
    if let Some(msg) = &phase.wrong {
        return Err(format!("wrong reply: {msg}"));
    }
    rig.check_final_state(&inputs)
        .map_err(|e| format!("wrong final state: {e}"))?;
    if phase.completed() == 0 {
        return Err("no op completed".into());
    }

    let mut setups = phase.setups_s.clone();
    setups.push(first_setup_s);
    let mut ref_setups = phase.ref_setups_s.clone();
    ref_setups.push(first_ref_setup_s);
    let ops = phase.completed() as f64;
    let rss_mark = w.rss_mark_ops();
    let peak_rss = phase.rss_at_mark_mib.unwrap_or_else(|| {
        println!("# note: run ended before op {rss_mark}; peak_rss_mib read at its end");
        sys::peak_rss_mib()
    });
    println!(
        "# diag op_p99_ms {:.4} op_samples {} setup_samples {} rss_mark_ops {rss_mark} end_peak_rss_mib {:.2}",
        percentile(&mut phase.ref_latencies_ms.clone(), 99.0),
        phase.completed(),
        setups.len(),
        sys::peak_rss_mib(),
    );
    println!(
        "# wall setup_s {:.6} op_p50_ms {:.4} ops_per_s {:.2} cpu_us_per_op {:.2}",
        percentile(&mut setups, 50.0),
        percentile(&mut phase.latencies_ms.clone(), 50.0),
        ratio(ops, phase.wall_s),
        ratio(phase.cpu_s * 1e6, ops),
    );
    let mut calib = phase.calib_ms.clone();
    println!(
        "# env steal_pct {:.3} calib_ms p10 {:.4} p50 {:.4} p90 {:.4} samples {}",
        phase.steal_pct,
        percentile(&mut calib, 10.0),
        percentile(&mut calib, 50.0),
        percentile(&mut calib, 90.0),
        calib.len(),
    );
    Ok(vec![
        m("setup_s", percentile(&mut ref_setups, 50.0), "s"),
        m("op_p50_ms", phase.ref_p50_ms(), "ms"),
        m("ops_per_s", ratio(ops, phase.ref_wall_s), "op/s"),
        m("cpu_us_per_op", ratio(phase.ref_cpu_s * 1e6, ops), "us"),
        m("peak_rss_mib", peak_rss, "MiB"),
    ])
}

/// Most spans a traced run writes out.
const MAX_WRITTEN_SPANS: usize = 200_000;

/// Every counter the ledger differences across the traced phase.
struct Counters {
    hosts: BTreeMap<String, StatsSnapshot>,
    verifications: u64,
    verify_cached: u64,
    cache: StatsSnapshot,
    xml: portalws_xml::stats::SubstrateCounters,
    stripes: Vec<u64>,
    jobs: usize,
    minor_faults: u64,
    context_switches: u64,
}

impl Counters {
    fn take(rig: &Rig) -> Counters {
        let d = &rig.deployment;
        let usage = sys::rusage();
        Counters {
            hosts: d
                .hosts()
                .into_iter()
                .map(|h| {
                    let transport = d.transport(&h).expect("listed host has a transport");
                    (h, transport.stats().snapshot())
                })
                .collect(),
            verifications: d.auth.verification_count(),
            verify_cached: d.auth.stats().snapshot().auth_verify_cached,
            cache: rig
                .cache
                .as_ref()
                .map(|c| c.stats().snapshot())
                .unwrap_or_default(),
            xml: portalws_xml::stats::snapshot(),
            stripes: d.srb.stripe_op_counts(),
            jobs: d.grid.job_count(),
            minor_faults: usage.minor_faults,
            context_switches: usage.context_switches,
        }
    }
}

fn run_traced(args: &Args, inputs: &Inputs) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let (mut rig, _, mut next) = stand_up(w, inputs)?;

    // 1. A fixed number of ops with allocation counting on, first, so
    //    they see the same op indices and state on every run. Odd, so
    //    the median is one op's count rather than a mean of two.
    let counted_ops: u64 = if w == Workload::BulkTransfer { 9 } else { 33 };
    sys::count_allocs(true);
    let end = next + counted_ops;
    let counted = drive(&rig, inputs, &mut next, Stop::AtOp(end), None, true, 0);
    sys::count_allocs(false);
    if let Some(msg) = &counted.wrong {
        return Err(format!("wrong reply: {msg}"));
    }

    // 2. Untraced, as in the end-to-end run: the baseline for
    //    `diag.tracing_overhead` and the op count the traced phase repeats.
    let plain = drive(
        &rig,
        inputs,
        &mut next,
        Stop::After(Duration::from_secs_f64(args.seconds)),
        None,
        false,
        0,
    );
    if let Some(msg) = &plain.wrong {
        return Err(format!("wrong reply: {msg}"));
    }
    let n = plain.completed();
    if n == 0 {
        return Err("no op completed".into());
    }

    // 3. Traced: the same op count with spans on and the benchmark's own
    //    SOAP clients on tapped transports.
    let tap = Arc::new(TapCounters::default());
    rig.tap_data_proxy(&tap);
    let before = Counters::take(&rig);
    trace::start(n as usize * 48);
    let end = next + n;
    let traced = drive(
        &rig,
        inputs,
        &mut next,
        Stop::AtOp(end),
        Some(&tap),
        false,
        0,
    );
    let spans = trace::stop();
    let after = Counters::take(&rig);
    if let Some(msg) = &traced.wrong {
        return Err(format!("wrong reply: {msg}"));
    }
    rig.check_final_state(inputs)
        .map_err(|e| format!("wrong final state: {e}"))?;

    let replays = replay::run(w, inputs, &tap.take_captured());

    if let Some(path) = &args.spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        // The earliest spans only: every op's spans look alike, and a
        // whole 30 s portal_session run would write about 60 MB.
        let kept = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
        trace::write_tsv(path, kept).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# spans {} of {} written to {}",
            kept.len(),
            spans.len(),
            path.display()
        );
    }

    let mut metrics = ledger(
        &plain, &counted, &traced, &spans, &before, &after, &tap, &replays,
    );
    metrics.extend([
        m(
            "diag.op_p99_ms",
            percentile(&mut plain.ref_latencies_ms.clone(), 99.0),
            "ms",
        ),
        m("diag.op_samples", plain.completed() as f64, "count"),
        m("env.steal_pct", plain.steal_pct, "%"),
        m(
            "env.calib_ms",
            percentile(&mut plain.calib_ms.clone(), 50.0),
            "ms",
        ),
    ]);
    Ok(metrics)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
#[allow(clippy::too_many_arguments)]
fn ledger(
    plain: &Phase,
    counted: &Phase,
    traced: &Phase,
    spans: &[trace::Span],
    before: &Counters,
    after: &Counters,
    tap: &TapCounters,
    r: &replay::Replays,
) -> Vec<Metric> {
    let n = traced.completed() as f64;
    let per_op = |x: f64| ratio(x, n);
    let us = |ns: u64| ns as f64 / 1e3;

    // Span durations by name, and self time by layer.
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    for (name, (count, total)) in &by_name {
        println!(
            "# span {name:<18} count {count:>8} mean_us {:>10.2}",
            ratio(us(*total), *count as f64)
        );
    }
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(c, t)| ratio(us(*t), *c as f64))
    };
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |e| us(e.1));
    let selfs = trace::self_times(spans);
    let self_us = |layer: &str| per_op(us(selfs.get(layer).copied().unwrap_or(0)));
    let op_us = per_op(total_us("op"));
    let unattributed = self_us("op");

    // Counter deltas over the traced phase.
    let host = |h: &str| after.hosts[h].since(&before.hosts[h]);
    let wire: Vec<StatsSnapshot> = after.hosts.keys().map(|h| host(h)).collect();
    let sum = |f: fn(&StatsSnapshot) -> u64| wire.iter().map(f).sum::<u64>() as f64;
    let tapped = tap.requests.load(Relaxed) as f64;
    let cache = after.cache.since(&before.cache);
    let xml = after.xml.since(&before.xml);
    let stripes: Vec<f64> = after
        .stripes
        .iter()
        .zip(&before.stripes)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let stripe_total: f64 = stripes.iter().sum();
    let stripe_max = stripes.iter().copied().fold(0.0, f64::max);
    let verifications = (after.verifications - before.verifications) as f64;
    let transfer_mib = traced.report.transfer_bytes as f64 / (1u64 << 20) as f64;
    let mut allocs: Vec<f64> = counted.op_allocs.iter().map(|a| a.0 as f64).collect();
    let mut alloc_bytes: Vec<f64> = counted.op_allocs.iter().map(|a| a.1 as f64).collect();

    vec![
        m("core.login_us", mean_us("core.login"), "us"),
        m("core.find_us", mean_us("core.find"), "us"),
        m("core.bind_us", mean_us("core.bind"), "us"),
        m(
            "core.transfer_us_per_mib",
            ratio(total_us("core.transfer"), transfer_mib),
            "us/MiB",
        ),
        m("core.self_us_per_op", self_us("core"), "us"),
        // The only grid-host requests the tap does not see are the UI
        // server's WSDL downloads.
        m(
            "wsdl.fetches_per_op",
            per_op(host(workloads::GRID_HOST).requests as f64 - tapped),
            "count",
        ),
        m("wsdl.call_us", mean_us("wsdl.call"), "us"),
        m("wsdl.self_us_per_op", self_us("wsdl"), "us"),
        m("soap.call_us", mean_us("soap.call"), "us"),
        m("soap.self_us_per_op", self_us("soap"), "us"),
        m("soap.decode_us", r.soap_decode_us, "us"),
        m("soap.encode_us", r.soap_encode_us, "us"),
        m(
            "soap.cache_hit_ratio",
            ratio(
                cache.cache_hits as f64,
                (cache.cache_hits + cache.cache_misses) as f64,
            ),
            "ratio",
        ),
        m(
            "soap.cache_invalidations",
            cache.cache_invalidations as f64,
            "count",
        ),
        m("xml.parse_us_per_kib", r.xml_parse_us_per_kib, "us/KiB"),
        m(
            "xml.bytes_per_op",
            per_op(tap.body_bytes.load(Relaxed) as f64),
            "B",
        ),
        m(
            "xml.escape_fast_path_ratio",
            xml.escape_fast_path_rate(),
            "ratio",
        ),
        m(
            "xml.unescape_fast_path_ratio",
            xml.unescape_fast_path_rate(),
            "ratio",
        ),
        m("wire.requests_per_op", per_op(sum(|s| s.requests)), "count"),
        m(
            "wire.bytes_per_op",
            per_op(sum(|s| s.bytes_sent + s.bytes_received)),
            "B",
        ),
        m("wire.framing_us", r.wire_framing_us, "us"),
        m("wire.round_trip_us", mean_us("wire.round_trip"), "us"),
        m("wire.self_us_per_op", self_us("wire"), "us"),
        m(
            "wire.ctx_switches_per_request",
            ratio(
                (after.context_switches - before.context_switches) as f64,
                sum(|s| s.requests),
            ),
            "count",
        ),
        m("wire.retries", sum(|s| s.retries), "count"),
        m("wire.errors", sum(|s| s.errors), "count"),
        m("wire.timeouts", sum(|s| s.timeouts), "count"),
        m("auth.verifications_per_op", per_op(verifications), "count"),
        m(
            "auth.hops_per_op",
            per_op(host("auth.gce.org").requests as f64),
            "count",
        ),
        m("auth.mint_us", r.auth_mint_us, "us"),
        m("auth.verify_us", r.auth_verify_us, "us"),
        m(
            "auth.verify_cached_ratio",
            ratio(
                (after.verify_cached - before.verify_cached) as f64,
                verifications,
            ),
            "ratio",
        ),
        m("registry.find_us", r.registry_find_us, "us"),
        m("registry.services", r.registry_services, "count"),
        m(
            "services.transfer_chunks_per_op",
            per_op(traced.report.transfer_chunks as f64),
            "count",
        ),
        m(
            "services.transfer_buffer_high_water_kib",
            traced.report.transfer_high_water as f64 / 1024.0,
            "KiB",
        ),
        m(
            "services.xml_call_commands_per_op",
            per_op(traced.report.xml_commands as f64),
            "count",
        ),
        m("gridsim.srb_put_us", r.srb_put_us, "us"),
        m("gridsim.srb_rename_us", r.srb_rename_us, "us"),
        m("gridsim.srb_ls_us", r.srb_ls_us, "us"),
        m("gridsim.stripe_ops_per_op", per_op(stripe_total), "count"),
        m(
            "gridsim.stripe_max_mean",
            ratio(stripe_max, stripe_total / stripes.len().max(1) as f64),
            "ratio",
        ),
        m("gridsim.grid_submit_us", r.grid_submit_us, "us"),
        m("gridsim.grid_poll_us", r.grid_poll_us, "us"),
        m(
            "gridsim.jobs_retained_per_op",
            per_op((after.jobs - before.jobs) as f64),
            "count",
        ),
        m(
            "process.alloc_count_per_op",
            percentile(&mut allocs, 50.0),
            "count",
        ),
        m(
            "process.alloc_bytes_per_op",
            percentile(&mut alloc_bytes, 50.0),
            "B",
        ),
        m(
            "process.minor_faults_per_op",
            per_op((after.minor_faults - before.minor_faults) as f64),
            "count",
        ),
        m(
            "diag.attributed_share",
            ratio(op_us - unattributed, op_us),
            "ratio",
        ),
        m("diag.unattributed_us_per_op", unattributed, "us"),
        m(
            "diag.tracing_overhead",
            ratio(traced.ref_p50_ms(), plain.ref_p50_ms()) - 1.0,
            "ratio",
        ),
    ]
}

//! The `serve_mix` workload: `earlyreg_serve::start` on 127.0.0.1 with one
//! worker and one simulation thread, a fresh cache directory and no peers,
//! driven by a closed-loop client on this thread over one connection at a
//! time.  Requests come from the seeded [`Mix`].
//!
//! The traced run also hands every other request to an in-process mirror
//! [`Service`] (same configuration, its own cache, warmed the same way) and
//! times `Service::handle`; client latency minus handle time is the
//! transport's share.
//!
//! The mix's proportions are an assumption (see [`Mix`]), so both runs also
//! report latency per request kind: a regression in one kind shows there
//! whatever its share of the mix.

use crate::mix::{self, Mix, Request};
use crate::reports::SimCounts;
use crate::trace::Tracer;
use crate::{
    host, keep_going, stats, Args, EndToEndRun, Fidelity, PerLayerRun, Samples, Tally, WorkDir,
};
use earlyreg_core::ReleasePolicy;
use earlyreg_experiments::engine::{self, PlanContext, WorkloadSet};
use earlyreg_experiments::fig03::Fig03Result;
use earlyreg_experiments::fig10::Fig10Result;
use earlyreg_experiments::{ExperimentOptions, Scenario};
use earlyreg_serve::client::{post_json, ClientReply};
use earlyreg_serve::{http, start, RunningServer, ServeConfig, Service, ServiceConfig};
use earlyreg_sim::SimStats;
use earlyreg_workloads::Scale;
use serde::value::Value;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request client deadline.
const DEADLINE: Duration = Duration::from_secs(60);

/// Set-ups per run; the run reports their median time.  One set-up takes
/// about 45 ms, so many repeats cost little and steady the median.
const SETUP_REPEATS: usize = 15;

/// Request kinds, as [`Request::kind`] names them.
const KINDS: [&str; 3] = ["points", "run", "cold"];

fn service_config(cache_dir: PathBuf) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(cache_dir),
        sim_threads: 1,
        ..ServiceConfig::default()
    }
}

/// A running server plus what the checks need.
struct Setup {
    server: RunningServer,
    addr: String,
    dir: PathBuf,
    /// Smoke-scale suite the cold-point check simulates against.
    set: Arc<WorkloadSet>,
    /// Fidelity of the warm `/run`, which every later `/run` must repeat.
    fidelity: Fidelity,
}

fn start_server(dir: &Path) -> RunningServer {
    start(ServeConfig {
        addr: "127.0.0.1".to_string(),
        port: 0,
        workers: 1,
        service: service_config(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port on 127.0.0.1")
}

/// Warm a service in-process with the warm set and the `/run` the mix
/// repeats; returns that `/run`'s fidelity.
fn warm_service(service: &Service) -> Fidelity {
    let points = service.handle(&in_process("/points", mix::warm_body(&mix::warm_set())));
    assert_eq!(points.status, 200, "warm /points: {}", points.body);
    let run = service.handle(&in_process("/run", mix::run_body().to_string()));
    assert_eq!(run.status, 200, "warm /run: {}", run.body);
    run_fidelity(&run.body).expect("warm /run carries fig03 and fig10")
}

/// A request as the server would parse it, for `Service::handle`.
fn in_process(path: &str, body: String) -> http::Request {
    http::Request {
        method: "POST".to_string(),
        path: path.to_string(),
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

fn set_up_once(work: &mut WorkDir) -> Setup {
    let dir = work.fresh("serve");
    let server = start_server(&dir);
    let addr = server.addr.to_string();
    let fidelity = warm_service(server.service());
    let set = Arc::new(WorkloadSet::new(Scale::Smoke));
    Setup {
        server,
        addr,
        dir,
        set,
        fidelity,
    }
}

/// One set-up, its time appended to `times`.
fn timed_set_up(work: &mut WorkDir, times: &mut Vec<f64>) -> Setup {
    let start = Instant::now();
    let setup = set_up_once(work);
    times.push(start.elapsed().as_secs_f64());
    setup
}

fn tear_down(setup: Setup, work: &WorkDir) {
    setup.server.stop();
    work.discard(&setup.dir);
}

/// Figure 3 and 10 fidelity from a `/run` body's report data.
fn run_fidelity(body: &str) -> Option<Fidelity> {
    let value = serde::json::parse(body).ok()?;
    let reports = value.get("reports")?.as_seq()?;
    let data = |id: &str| -> Option<&Value> {
        reports
            .iter()
            .find(|r| r.get("experiment").and_then(Value::as_str) == Some(id))?
            .get("data")
    };
    let fig10 = Fig10Result::from_value(data("fig10")?).ok()?;
    let fig03 = Fig03Result::from_value(data("fig03")?).ok()?;
    Some(Fidelity::new(&fig10, &fig03))
}

/// The statistics of a single-point `/points` body.
fn single_point_stats(body: &str) -> Option<SimStats> {
    let value = serde::json::parse(body).ok()?;
    let results = value.get("results")?.as_seq()?;
    match results {
        [only] => SimStats::from_value(only.get("stats")?).ok(),
        _ => None,
    }
}

/// What `engine::simulate_planned` gives for a cold point.
fn reference_stats(set: &Arc<WorkloadSet>, point: &mix::ColdPoint) -> Option<SimStats> {
    let options = ExperimentOptions {
        scale: Scale::Smoke,
        threads: 1,
        max_instructions: point.budget,
    };
    let ctx = PlanContext::with_workloads(options, Scenario::table2(), Arc::clone(set));
    let workload = ctx.workload(point.workload)?.clone();
    let policy = ReleasePolicy::parse(point.policy).ok()?;
    let planned = ctx.point(&workload, policy, point.size, point.size);
    Some(engine::simulate_planned(&ctx, &planned).stats)
}

fn header_count(reply: &ClientReply, name: &str) -> u64 {
    reply.header(name).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Per-request counters the per-layer metrics need.
#[derive(Debug, Default)]
struct Counters {
    resolved: u64,
    lru_hits: u64,
    simulated: u64,
    /// Statistics of the cold points the server simulated and stored.
    cold: SimCounts,
    cold_latency_ms: f64,
}

/// Check one reply and fold its counters in.
fn check(
    setup: &Setup,
    request: &Request,
    reply: &ClientReply,
    latency_ms: f64,
    c: &mut Counters,
) -> bool {
    if reply.status != 200 {
        return false;
    }
    match request {
        Request::Points(indices) => {
            c.resolved += indices.len() as u64;
            c.lru_hits += header_count(reply, "X-Lru-Hits");
            c.simulated += header_count(reply, "X-Simulated");
            true
        }
        Request::Run => {
            let summary = serde::json::parse(&reply.body).ok();
            let field = |name: &str| {
                summary
                    .as_ref()
                    .and_then(|v| v.get("summary")?.get(name)?.as_u64())
                    .unwrap_or(0)
            };
            c.resolved += field("unique");
            c.lru_hits += field("lru_hits");
            c.simulated += field("simulated");
            run_fidelity(&reply.body) == Some(setup.fidelity)
        }
        Request::Cold(point) => {
            let simulated = header_count(reply, "X-Simulated");
            c.resolved += 1;
            c.simulated += simulated;
            let got = single_point_stats(&reply.body);
            if simulated == 1 {
                if let Some(stats) = &got {
                    c.cold.add(stats);
                    c.cold_latency_ms += latency_ms;
                }
            }
            simulated == 1 && got.is_some() && got == reference_stats(&setup.set, point)
        }
    }
}

/// Send one request; `None` on a transport or status error.
fn send(
    addr: &str,
    request: &Request,
    warm: &[(&'static str, &'static str)],
) -> Option<ClientReply> {
    post_json(addr, request.path(), &request.body(warm), DEADLINE).ok()
}

/// An untraced run: end-to-end metrics.
pub fn end_to_end(args: &Args, work: &mut WorkDir) -> EndToEndRun {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let setup = timed_set_up(work, &mut setup_s);
    let warm = mix::warm_set();
    let mut mix = Mix::new(args.seed);
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let mut latency_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while keep_going(start, budget, samples.wall_ms.len()) {
        let request = mix.next_request();
        let reply = samples.time(|| send(&setup.addr, &request, &warm));
        let latency = *samples.wall_ms.last().expect("just timed");
        latency_ms.entry(request.kind()).or_default().push(latency);
        let ok = reply
            .as_ref()
            .is_some_and(|r| check(&setup, &request, r, latency, &mut counters));
        tally.record(ok);
    }
    for kind in KINDS {
        let latencies = latency_ms.get(kind).map_or(&[][..], Vec::as_slice);
        eprintln!(
            "perfbench: serve_mix {kind}: requests={} p50_ms={:.4} mean_ms={:.4}",
            latencies.len(),
            stats::median(latencies),
            stats::mean(latencies)
        );
    }
    // Read the peak before the remaining set-ups: it then covers one
    // server's lifetime, as a user's process would, not a pile of stopped
    // servers whose freed memory the allocator keeps or returns at random.
    let peak_rss_mb = host::peak_rss_mb();
    let fidelity = setup.fidelity;
    tear_down(setup, work);
    for _ in 1..SETUP_REPEATS {
        let again = timed_set_up(work, &mut setup_s);
        assert!(again.fidelity == fidelity, "warm /run answers differ");
        tear_down(again, work);
    }
    EndToEndRun {
        setup_s,
        samples,
        tally,
        fidelity,
        peak_rss_mb,
    }
}

/// A traced run: every other request is also handled by the in-process
/// mirror, so client latency splits into handle and transport time.
pub fn per_layer(args: &Args, work: &mut WorkDir, spans: &Path) -> PerLayerRun {
    let setup = set_up_once(work);
    let warm = mix::warm_set();
    let mirror_dir = work.fresh("mirror");
    let mirror = Service::new(
        service_config(mirror_dir.clone()),
        Arc::new(AtomicBool::new(false)),
    );
    assert!(
        warm_service(&mirror) == setup.fidelity,
        "mirror and server answer /run alike"
    );

    let mut mix = Mix::new(args.seed);
    let mut tracer = Tracer::default();
    let mut untraced = Samples::default();
    let mut traced_latency = Vec::new();
    let mut latency_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut handle_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut op = 0u32;
    while keep_going(start, budget, traced_latency.len()) {
        let request = mix.next_request();
        let ok = if op.is_multiple_of(2) {
            let reply = untraced.time(|| send(&setup.addr, &request, &warm));
            let latency = *untraced.wall_ms.last().expect("just timed");
            reply.is_some_and(|r| check(&setup, &request, &r, latency, &mut counters))
        } else {
            tracer.set_op(op);
            let begin = Instant::now();
            let reply = tracer.span("serve.request", || send(&setup.addr, &request, &warm));
            let latency = begin.elapsed().as_secs_f64() * 1e3;
            traced_latency.push(latency);
            latency_ms.entry(request.kind()).or_default().push(latency);
            let local = in_process(request.path(), request.body(&warm));
            let begin = Instant::now();
            let response = tracer.span("serve.handle", || mirror.handle(&local));
            handle_ms
                .entry(request.kind())
                .or_default()
                .push(begin.elapsed().as_secs_f64() * 1e3);
            // `/run` bodies carry per-service resolver counters; the other
            // bodies hold only results and must match byte for byte.
            let same = |r: &ClientReply| request == Request::Run || r.body == response.body;
            response.status == 200
                && reply.is_some_and(|r| {
                    same(&r) && check(&setup, &request, &r, latency, &mut counters)
                })
        };
        tally.record(ok);
        op += 1;
    }
    if let Err(error) = tracer.write_jsonl(spans) {
        eprintln!(
            "warning: cannot write spans to {}: {error}",
            spans.display()
        );
    }
    drop(mirror);
    work.discard(&mirror_dir);
    tear_down(setup, work);

    let all_handles: Vec<f64> = handle_ms.values().flatten().copied().collect();
    let handle = stats::mean(&all_handles);
    let op_ms = stats::mean(&traced_latency);
    let untraced_op_ms = stats::mean(&untraced.wall_ms);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let requests = tally.attempted as f64;
    let kind_mean = |samples: &BTreeMap<&'static str, Vec<f64>>, kind: &str| {
        samples.get(kind).map_or(0.0, |v| stats::mean(v))
    };
    let mut values = BTreeMap::new();
    values.insert("serve.handle_ms", handle);
    for (kind, handle_name, latency_name) in [
        (
            "points",
            "serve.handle_points_ms",
            "serve.latency_points_ms",
        ),
        ("run", "serve.handle_run_ms", "serve.latency_run_ms"),
        ("cold", "serve.handle_cold_ms", "serve.latency_cold_ms"),
    ] {
        values.insert(handle_name, kind_mean(&handle_ms, kind));
        values.insert(latency_name, kind_mean(&latency_ms, kind));
    }
    values.insert("serve.transport_ms", op_ms - handle);
    values.insert(
        "serve.lru_hit_ratio",
        ratio(counters.lru_hits as f64, counters.resolved as f64),
    );
    values.insert(
        "serve.simulated_per_req",
        ratio(counters.simulated as f64, requests),
    );
    // Run totals over the cold points: the server simulated each and wrote
    // it to its disk cache.  Their store time is not visible from outside
    // the server, so `experiments.cache_store_ms` stays 0 here.
    let cold = counters.cold;
    values.insert("experiments.cache_stores", cold.points as f64);
    values.insert("sim.committed", cold.committed as f64);
    values.insert("sim.cycles", cold.cycles as f64);
    values.insert("core.early_releases", cold.early_releases as f64);
    values.insert("core.rename_stall_cycles", cold.rename_stall_cycles as f64);
    values.insert(
        "sim.minstr_per_s",
        ratio(cold.committed as f64 / 1e6, counters.cold_latency_ms / 1e3),
    );
    values.insert("trace.op_ms", op_ms);
    values.insert("trace.untraced_op_ms", untraced_op_ms);
    values.insert("trace.overhead_ms", op_ms - untraced_op_ms);
    // `trace.other_ms` stays 0: the unattributed part of a request is
    // `serve.transport_ms`.
    values.insert("host.oncpu_ms", stats::mean(&untraced.oncpu_ms));
    values.insert("host.runq_wait_share", untraced.runq_wait_share());
    PerLayerRun { values, tally }
}

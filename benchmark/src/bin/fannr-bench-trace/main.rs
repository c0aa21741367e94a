//! `fannr-bench-trace`: the traced run, one workload at a time.
//!
//! ```text
//! fannr-bench-trace --workload W --seed S [--seconds N] [--fannr PATH] [--out-dir DIR]
//! ```
//!
//! Two halves. The black-box half drives the real tier like the
//! end-to-end run does, with client-side spans off, on, off, on (the
//! difference is the tracing overhead), adds the open phase at the
//! workload's frozen rate, and reads the counters the wire exposes. The
//! in-process half replays a fixed slice
//! of the workload against the layers' public functions with a span
//! around every call. Spans stay in memory until the end, then go to
//! `<out-dir>/trace_<workload>.jsonl`. A layer the workload's deployment
//! does not contain reports 0.

mod layers;
mod spans;

use fannr_bench::inputs;
use fannr_bench::json;
use fannr_bench::loadgen::Phase;
use fannr_bench::run::{self, Cut, Measured, Metric, Plan};
use fannr_bench::stats;
use fannr_bench::tier::{Deployment, Tier, SHARDS};
use fannr_bench::wire::{self, Conn};
use fannr_bench::workloads::{self, Workload};
use fannr_bench::{opt, parse_args, proc};
use layers::Values;
use spans::Recorder;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
const PER_LAYER: [(&str, &str); 63] = [
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.service_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.shed", "count"),
    ("serve.cancelled", "count"),
    ("serve.errors", "count"),
    ("serve.staleness_p50_ms", "ms"),
    ("serve.update_ack_us", "us"),
    ("serve.queued_wraps", "count"),
    ("locality.hit_rate", "ratio"),
    ("locality.hit_service_us", "us"),
    ("locality.evicted", "count"),
    ("locality.retained_ratio", "ratio"),
    ("core.query_p50_us", "us"),
    ("core.query_p95_us", "us"),
    ("core.gphi_evals", "count"),
    ("core.candidates_pruned", "count"),
    ("core.pruned_ratio", "ratio"),
    ("core.ier_knn_us", "us"),
    ("core.exact_max_us", "us"),
    ("core.rlist_us", "us"),
    ("core.apx_sum_us", "us"),
    ("core.stale_query_us", "us"),
    ("core.fresh_query_us", "us"),
    ("rtree.build_us", "us"),
    ("rtree.nodes", "count"),
    ("hublabel.distance_ns", "ns"),
    ("hublabel.oracle_calls", "count"),
    ("hublabel.lookups", "count"),
    ("hublabel.build_s", "s"),
    ("hublabel.bytes", "B"),
    ("hublabel.bytes_per_node", "B"),
    ("hublabel.repair_ms", "ms"),
    ("hublabel.repaired_ratio", "ratio"),
    ("roadnet.settled", "count"),
    ("roadnet.edges_relaxed", "count"),
    ("roadnet.heap_pushes", "count"),
    ("roadnet.ns_per_settled", "ns"),
    ("roadnet.apply_update_us", "us"),
    ("roadnet.flat_load_ms", "ms"),
    ("roadnet.shardmap_build_ms", "ms"),
    ("gtree.cut_ms", "ms"),
    ("router.contacted", "count"),
    ("router.prune_rate", "ratio"),
    ("router.added_us", "us"),
    ("router.single_node_ratio", "ratio"),
    ("router.upstream_errors", "count"),
    ("setup.build_index_s", "s"),
    ("setup.serve_ready_s", "s"),
    ("serve.p99_us", "us"),
    ("serve.open_p50_us", "us"),
    ("serve.open_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.gen_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fail_rate", "ratio"),
    ("bench.traced_qps", "1/s"),
    ("bench.traced_p50_us", "us"),
    ("bench.spans", "count"),
    ("bench.wall_s", "s"),
];

fn main() -> ExitCode {
    let (_, opts) = parse_args(std::env::args().skip(1));
    match parse_and_run(&opts) {
        Ok(correct) => ExitCode::from(u8::from(!correct)),
        Err(e) => {
            eprintln!("fannr-bench-trace: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_and_run(opts: &HashMap<String, String>) -> Result<bool, String> {
    let name: String = opt(opts, "workload", String::new())?;
    let w = workloads::by_name(&name).ok_or(format!("unknown or missing --workload '{name}'"))?;
    let seed = opt(opts, "seed", 1u64)?;
    let seconds = opt(opts, "seconds", 16.0f64)?;
    let fannr = PathBuf::from(opt(opts, "fannr", "target/release/fannr".to_string())?);
    let out_dir = PathBuf::from(opt(opts, "out-dir", "benchmark/out".to_string())?);
    proc::arm_watchdog(Duration::from_secs(150));
    traced_run(w, seed, seconds, &fannr, &out_dir).map_err(|e| format!("{}: {e}", w.name))
}

fn qps(phase: &Phase) -> f64 {
    phase.correct() as f64 / phase.elapsed.as_secs_f64().max(1e-9)
}

fn p50_us(phase: &Phase) -> f64 {
    stats::quantile_sorted(&run::ns_to_us(&phase.latency_ns), 0.5)
}

/// One `metrics` reply from `addr`, raw.
fn wire_metrics(addr: SocketAddr) -> std::io::Result<String> {
    Conn::connect(addr)?.call(wire::METRICS).map(str::to_string)
}

fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    fannr: &std::path::Path,
    out_dir: &std::path::Path,
) -> std::io::Result<bool> {
    let began = Instant::now();
    let mut values: Values = Vec::new();
    let mut rec = Recorder::new();

    let inputs = inputs::generate(&w.input, seed);
    values.push(("loadgen.gen_s", began.elapsed().as_secs_f64()));

    let dir = out_dir.join(format!("trace-{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = Tier::launch(fannr, w.deployment, w.input.nodes, &dir)?;
    values.push(("setup.build_index_s", tier.build_index.as_secs_f64()));
    values.push((
        "setup.serve_ready_s",
        (tier.setup - tier.build_index).as_secs_f64(),
    ));

    // Black box: the same traffic with client-side spans off, on, off,
    // on, so that a drift of the machine during the run falls on both
    // sides alike. Only the last leg has an open phase.
    let leg = |warmup: f64, open: f64, spans: bool| {
        let plan = Plan {
            warmup: Duration::from_secs_f64(warmup),
            closed: Duration::from_secs_f64(seconds * 0.15),
            open: Duration::from_secs_f64(open),
        };
        run::measure(tier.front, w, &inputs, &plan, spans)
    };
    let off = leg(0.5, 0.0, false)?;
    let on_first = leg(0.1, 0.0, true)?;
    let off_again = leg(0.1, 0.0, false)?;
    let on = leg(0.1, seconds * 0.3, true)?;
    let qps_off = qps(&off.closed) + qps(&off_again.closed);
    let qps_on = qps(&on_first.closed) + qps(&on.closed);
    values.push(("bench.traced_qps", qps_on / 2.0));
    values.push(("bench.traced_p50_us", p50_us(&on.closed)));
    // The closed-phase tail: too unsteady on a shared box to carry a
    // bound, so it is reported here.
    values.push((
        "serve.p99_us",
        run::summarize(&on.closed, Cut::closed_phase_of(w))
            .p99
            .value,
    ));
    values.push((
        "bench.trace_overhead_pct",
        (qps_off - qps_on) / qps_off.max(1e-9) * 100.0,
    ));
    // The open phase: the frozen rate R on the same two connections,
    // latency from each request's due time.
    let open = run::summarize(&on.open, Cut::even(w.input.distinct));
    values.push(("serve.open_p50_us", open.p50_us));
    values.push(("serve.open_p99_us", open.p99.value));
    let late = stats::tail(&run::ns_to_us(&on.open.late_ns), 0.99);
    values.push(("loadgen.late_p99_us", late.value));

    // Client spans: the request as the caller saw it, with the service
    // time the server reported as its child. What is left over — the
    // span's self time — is everything `serve` does around the search
    // plus the two socket hops.
    for s in on_first.spans.iter().chain(&on.spans) {
        let root = rec.add("client.request", 0, s.id, s.start, s.end);
        let service = Duration::from_micros(s.service_us).min(s.end - s.start);
        rec.add("serve.service", root, s.id, s.end - service, s.end);
    }
    let service_us = stats::median(&rec.durations_us("serve.service"));
    values.push(("serve.service_us", service_us));
    values.push((
        "serve.overhead_us",
        stats::median(&rec.self_times_us("client.request")),
    ));

    // Counters the wire exposes.
    let m = wire_metrics(tier.front)?;
    let count = |key: &str| json::u64_field(&m, key).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if a + b == 0.0 { 0.0 } else { a / (a + b) };
    values.push(("serve.shed", count("shed")));
    values.push(("serve.cancelled", count("cancelled")));
    values.push(("serve.errors", count("errors")));
    let hit_rate = ratio(count("cache_hits"), count("cache_misses"));
    values.push(("locality.hit_rate", hit_rate));
    if hit_rate >= 0.99 {
        values.push(("locality.hit_service_us", service_us));
    }
    values.push(("locality.evicted", count("cache_evicted")));
    values.push((
        "locality.retained_ratio",
        ratio(count("cache_retained"), count("cache_invalidated")),
    ));
    values.push((
        "router.contacted",
        count("shards_contacted") / count("requests").max(1.0),
    ));
    values.push((
        "router.prune_rate",
        ratio(count("shards_pruned"), count("shards_contacted")),
    ));
    values.push(("router.upstream_errors", count("upstream_errors")));

    let mut routed_legs = Vec::new();
    if w.deployment == Deployment::Routed {
        // The same requests sent to each shard directly, and to one
        // unsharded server on the same index.
        let short = Plan {
            warmup: Duration::from_secs_f64(0.2),
            closed: Duration::from_secs_f64(seconds * 0.1),
            open: Duration::ZERO,
        };
        let mut slowest_shard_p50 = 0.0f64;
        for &shard in &tier.shards {
            let direct = run::measure(shard, w, &inputs, &short, false)?;
            slowest_shard_p50 = slowest_shard_p50.max(p50_us(&direct.closed));
            routed_legs.push(direct);
        }
        values.push(("router.added_us", p50_us(&off.closed) - slowest_shard_p50));
        let single = Tier::launch(fannr, Deployment::IndexedUncached, w.input.nodes, &dir)?;
        let alone = run::measure(
            single.front,
            w,
            &inputs,
            &Plan {
                closed: Duration::from_secs_f64(seconds * 0.15),
                ..short
            },
            false,
        )?;
        values.push((
            "router.single_node_ratio",
            qps(&off.closed) / qps(&alone.closed).max(1e-9),
        ));
        single.shutdown();
        routed_legs.push(alone);
    }
    let legs: Vec<&Measured> = [&off, &on_first, &off_again, &on]
        .into_iter()
        .chain(&routed_legs)
        .collect();

    let mut staleness = Vec::new();
    let mut acks = Vec::new();
    let (mut attempted, mut failed, mut wraps) = (0u64, 0u64, 0u64);
    for leg in &legs {
        for phase in [&leg.closed, &leg.open] {
            attempted += phase.attempted;
            failed += phase.failed + phase.inconsistent;
        }
        if let Some(u) = &leg.updater {
            staleness.extend_from_slice(&u.staleness_ms);
            acks.extend_from_slice(&u.ack_us);
            attempted += u.attempted;
            failed += u.failed;
            wraps += u.queued_wraps;
        }
    }
    if w.update_period_s.is_some() {
        values.push(("serve.staleness_p50_ms", stats::median(&staleness)));
        values.push(("serve.update_ack_us", stats::median(&acks)));
        values.push(("serve.queued_wraps", wraps as f64));
    }
    let (verified, wrong) = run::verify(tier.front, &inputs, &on.seen, 8, seed);
    attempted += verified;
    failed += wrong;
    values.push(("bench.fail_rate", failed as f64 / attempted.max(1) as f64));
    let clean = tier.shutdown();

    // In process: the layers' public functions on a fixed slice.
    let index_dir = dir.join("index");
    let engine = if w.deployment == Deployment::IndexFree {
        fann_core::engine::Engine::new(&inputs.graph)
    } else {
        layers::index_costs(&inputs, &index_dir, &mut values)
    };
    layers::replay(&engine, &inputs, &mut rec, &mut values);
    layers::direct_algorithms(&engine, &inputs, &mut rec, &mut values);
    layers::oracle_distance(&engine, &inputs, seed, &mut values);
    if w.deployment == Deployment::Routed {
        layers::partition_costs(&inputs, SHARDS, &mut rec, &mut values);
    }
    if w.update_period_s.is_some() {
        layers::update_cycle(&engine, &inputs, &mut rec, &mut values);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    std::fs::create_dir_all(out_dir)?;
    let trace = out_dir.join(format!("trace_{}.jsonl", w.name));
    rec.write_jsonl(&trace)?;
    values.push(("bench.spans", rec.spans.len() as f64));
    values.push(("bench.wall_s", began.elapsed().as_secs_f64()));

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            note: String::new(),
        })
        .collect();
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "'{name}' is measured but not in the per-layer list"
        );
    }
    run::print_table(&format!("{} traced (seed {seed})", w.name), &metrics);
    println!("  self time by span name ({}):", trace.display());
    for (name, us) in rec.self_time_by_name() {
        println!("    {name:<24} {:>12.1} ms", us / 1e3);
    }
    let correct = wrong == 0 && clean;
    println!("{}", run::result_json(correct, attempted, failed, &metrics));
    Ok(correct)
}

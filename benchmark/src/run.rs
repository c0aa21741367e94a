//! One end-to-end run of one workload:
//! inputs → set-up (repeated, median reported) → warm-up (discarded) →
//! closed phase → verification → wire `shutdown`.
//!
//! The open phase belongs to the traced run: on a shared two-core box its
//! latencies are set by how long an idle virtual CPU takes to wake, which
//! no run-to-run bound can hold, so they are reported per layer.

use crate::inputs::{self, Inputs, Rng64};
use crate::loadgen::{ClientSpan, Lane, Phase};
use crate::reference;
use crate::stats::{self, Tail};
use crate::tier::Tier;
use crate::updater::{Updater, UpdaterOut};
use crate::wire::{self, Answer, Conn, Reply};
use crate::workloads::Workload;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub fannr: PathBuf,
    /// Scratch directory for index files and child logs.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Measured time: the closed phase. The warm-up comes on top.
    pub seconds: f64,
    /// An open phase after it, for `--smoke`; 0 in a measured run, whose
    /// open phase belongs to the traced run.
    pub open_s: f64,
    pub warmup_s: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// A tier that comes up in milliseconds is set up again, up to three
    /// times `setups`, until this much time is spent: a median of three
    /// 10 ms samples is mostly scheduler noise.
    pub cheap_setup_budget: Duration,
}

/// Answers an end-to-end run checks against the naive reference.
const VERIFY_SAMPLES: usize = 16;

/// How long each phase lasts; a zero `open` skips the open phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub closed: Duration,
    pub open: Duration,
}

/// What the timed phases produced.
#[derive(Debug, Default)]
pub struct Measured {
    pub closed: Phase,
    pub open: Phase,
    pub updater: Option<UpdaterOut>,
    /// First answer per distinct query, where answers must repeat.
    pub seen: Vec<Option<Answer>>,
    pub spans: Vec<ClientSpan>,
}

/// Drive `front` with `w`'s traffic according to `plan`. With
/// `with_spans`, every request also leaves a client-side span.
pub fn measure(
    front: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    plan: &Plan,
    with_spans: bool,
) -> io::Result<Measured> {
    let mut out = Measured::default();
    let mut updater = w
        .update_period_s
        .map(|_| Updater::connect(front, inputs))
        .transpose()?;
    let mut updates = UpdaterOut::default();
    if let Some(u) = &mut updater {
        u.warm(&mut updates);
    }
    let lanes = if updater.is_some() { 1 } else { 2 };
    let conns: Vec<Conn> = (0..lanes)
        .map(|_| Conn::connect(front))
        .collect::<io::Result<_>>()?;

    let t_warm = Instant::now() + Duration::from_millis(20);
    let t_closed = t_warm + plan.warmup;
    let t_open = t_closed + plan.closed;
    let t_end = t_open + plan.open;
    let lane_rate = w.open_rate / lanes as f64;
    let stagger = Duration::from_secs_f64(1.0 / w.open_rate);

    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let mut lane = Lane::new(conn, inputs, i, lanes, w.update_period_s.is_none());
                    std::thread::sleep(t_warm.saturating_duration_since(Instant::now()));
                    lane.closed(t_closed);
                    if with_spans {
                        lane.spans = Some(Vec::new());
                    }
                    let closed = lane.closed(t_open);
                    let open = if plan.open.is_zero() {
                        Phase::default()
                    } else {
                        // Lanes interleave: lane i sends half a period
                        // after lane i - 1.
                        lane.open(t_open + stagger * i as u32, lane_rate, t_end)
                    };
                    let seen = lane.seen().map(<[_]>::to_vec);
                    (closed, open, seen, lane.spans.take().unwrap_or_default())
                })
            })
            .collect();
        if let (Some(u), Some(period)) = (&mut updater, w.update_period_s) {
            // Updates run beside the closed phase only. The open phase
            // then shows whether the tier is back at its fresh-label
            // latency once the last repair has landed.
            u.run(
                t_closed,
                Duration::from_secs_f64(period),
                t_open,
                &mut updates,
            );
        }
        for h in handles {
            let (closed, open, seen, spans) = h.join().expect("lane thread panicked");
            out.closed.merge(closed);
            out.open.merge(open);
            out.spans.extend(spans);
            // Both lanes must agree on the answer to a query they share.
            if let Some(seen) = seen {
                if out.seen.is_empty() {
                    out.seen = seen;
                } else {
                    for (mine, theirs) in out.seen.iter_mut().zip(seen) {
                        match (*mine, theirs) {
                            (None, t) => *mine = t,
                            (Some(a), Some(b)) if a != b => out.closed.inconsistent += 1,
                            _ => {}
                        }
                    }
                }
            }
        }
    });
    if let Some(u) = &mut updater {
        u.restore(&mut updates);
        out.updater = Some(updates);
    }
    Ok(out)
}

/// Check `samples` seeded queries against the naive reference, and
/// against what the same query answered under load. Returns
/// `(checked, wrong)` and prints each mismatch.
pub fn verify(
    front: SocketAddr,
    inputs: &Inputs,
    seen: &[Option<Answer>],
    samples: usize,
    seed: u64,
) -> (u64, u64) {
    let mut picks: Vec<usize> = (0..inputs.queries.len()).collect();
    let samples = samples.min(picks.len());
    Rng64::new(seed ^ 0x7665_7269).choose_front(&mut picks, samples);
    picks.truncate(samples);
    let check = |chunk: &[usize]| -> u64 {
        let Ok(mut conn) = Conn::connect(front) else {
            return chunk.len() as u64;
        };
        let mut line = String::new();
        let mut wrong = 0;
        for &qi in chunk {
            let query = &inputs.queries[qi];
            let p = &inputs.p_sets[query.p_set];
            let prefix = wire::query_prefix(p, &query.q, query.phi, query.agg);
            wire::finish_request(&mut line, &prefix, qi as u64);
            let answer = match conn.call(&line).map(wire::decode_reply) {
                Ok((_, Reply::Answer { dist, p_star, .. })) => Ok(Some((dist, p_star))),
                Ok((_, Reply::Empty)) => Ok(None),
                _ => Err("no answer".to_string()),
            };
            let verdict = answer.and_then(|a| {
                reference::check_answer(&inputs.graph, p, &query.q, query.phi, query.agg, a)?;
                match seen.get(qi) {
                    Some(Some(first)) if *first != a => {
                        Err(format!("answered {first:?} under load, {a:?} now"))
                    }
                    _ => Ok(()),
                }
            });
            if let Err(why) = verdict {
                eprintln!("WRONG ANSWER query {qi}: {why}");
                wrong += 1;
            }
        }
        wrong
    };
    let (a, b) = picks.split_at(samples / 2);
    let wrong = std::thread::scope(|scope| {
        let other = scope.spawn(|| check(a));
        check(b) + other.join().expect("verifier panicked")
    });
    (samples as u64, wrong)
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value rests on, for the human-readable table.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

fn tail_note(t: &Tail) -> String {
    format!("p{} of {} samples", t.percentile * 100.0, t.samples)
}

pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    stats::sorted(ns.iter().map(|&x| x as f64 / 1e3).collect())
}

/// A phase summed up so that one transient stall moves little: the
/// phase is cut into stretches of time ([`Cut`]), every stretch gives its
/// own throughput, median and p99, and the median over the stretches is
/// what is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    pub qps: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99: Tail,
    pub stretches: usize,
    /// Requests without a correct answer. They have missed any latency
    /// limit: with misses, the p99 is taken over the whole phase with
    /// every miss counted as taking the length of the phase.
    pub missed: usize,
}

/// Answers a stretch needs before its p99 is a p99.
const P99_SAMPLES: usize = 1000;

/// How a phase is cut into stretches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// Up to fifteen equal stretches, fewer when one would hold under
    /// `at_least` answers.
    Even { at_least: usize },
    /// The traffic repeats with this period (an update batch every so
    /// often): a stretch is a whole number of periods, as many as it
    /// takes to hold 1000 answers, so that each holds whole
    /// stale-and-repaired cycles. The unfinished rest is dropped.
    Cycles(Duration),
}

impl Cut {
    /// An even cut whose stretches each hold a p99's worth of answers
    /// and one whole pass over the `distinct` queries: the tail of half a
    /// pass depends on which queries fell into that half.
    pub fn even(distinct: usize) -> Cut {
        Cut::Even {
            at_least: distinct.max(P99_SAMPLES),
        }
    }

    /// The cut for `w`'s closed phase: by update cycles where an updater
    /// runs beside the readers, even otherwise.
    pub fn closed_phase_of(w: &Workload) -> Cut {
        match w.update_period_s {
            Some(period) => Cut::Cycles(Duration::from_secs_f64(period)),
            None => Cut::even(w.input.distinct),
        }
    }
}

pub fn summarize(phase: &Phase, cut: Cut) -> PhaseSummary {
    let n = phase.latency_ns.len();
    let missed = phase.attempted.saturating_sub(phase.correct()) as usize;
    let began = phase.began.unwrap_or_else(Instant::now);
    let last = phase
        .done
        .iter()
        .map(|&at| at.saturating_duration_since(began))
        .max()
        .unwrap_or_default()
        .as_secs_f64()
        .max(1e-9);
    // `keep`: answers that arrive after it belong to no stretch.
    let (stretches, span, keep_all) = match cut {
        Cut::Cycles(cycle) if cycle.as_secs_f64() <= last => {
            let cycles = (last / cycle.as_secs_f64()) as usize;
            let per_stretch = (P99_SAMPLES * cycles).div_ceil(n.max(1)).clamp(1, cycles);
            let stretches = cycles / per_stretch;
            (
                stretches,
                (stretches * per_stretch) as f64 * cycle.as_secs_f64(),
                false,
            )
        }
        Cut::Cycles(_) => (1, last, true),
        Cut::Even { at_least } => ((n / at_least.max(1)).clamp(1, 15), last, true),
    };
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); stretches];
    for (&at, &ns) in phase.done.iter().zip(&phase.latency_ns) {
        let offset = at.saturating_duration_since(began).as_secs_f64();
        let k = (offset / span * stretches as f64) as usize;
        match parts.get_mut(k) {
            Some(part) => part.push(ns as f64 / 1e3),
            // The very last instant of the span.
            None if keep_all => parts[stretches - 1].push(ns as f64 / 1e3),
            None => {}
        }
    }
    let parts: Vec<Vec<f64>> = parts.into_iter().map(stats::sorted).collect();
    let over =
        |f: &dyn Fn(&[f64]) -> f64| stats::median(&parts.iter().map(|p| f(p)).collect::<Vec<_>>());
    let mut p99 = Tail {
        // The weakest stretch says which percentile all of them support.
        percentile: parts
            .iter()
            .map(|p| stats::tail(p, 0.99).percentile)
            .fold(0.99, f64::min),
        value: 0.0,
        samples: n,
    };
    p99.value = over(&|p| stats::quantile_sorted(p, p99.percentile));
    if missed > 0 {
        let mut all: Vec<f64> = parts.concat();
        all.extend(std::iter::repeat_n(
            phase.elapsed.as_secs_f64() * 1e6,
            missed,
        ));
        p99 = stats::tail(&stats::sorted(all), 0.99);
    }
    PhaseSummary {
        qps: over(&|p| p.len() as f64 * stretches as f64 / span),
        p50_us: over(&|p| stats::quantile_sorted(p, 0.5)),
        p90_us: over(&|p| stats::quantile_sorted(p, 0.9)),
        p99,
        stretches,
        missed,
    }
}

#[derive(Debug)]
pub struct RunReport {
    pub seed: u64,
    pub attempted: u64,
    /// Failed requests plus wrong or inconsistent answers.
    pub failed: u64,
    pub wrong: u64,
    pub correct: bool,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Measured on the way and shown in the table; the traced run
    /// reports them as per-layer metrics.
    pub extras: Vec<Metric>,
}

/// What a summary's numbers rest on, for the human-readable table.
fn rests_on(s: &PhaseSummary) -> String {
    format!(
        "{} samples, median of {} stretches, {} missed",
        s.p99.samples, s.stretches, s.missed
    )
}

fn end_to_end(
    setup_s: &[f64],
    m: &Measured,
    closed: &PhaseSummary,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric(
            "setup_s",
            stats::median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        metric(
            "qps",
            closed.qps,
            "1/s",
            format!("{} correct answers, closed phase", m.closed.correct()),
        ),
        metric("p50_us", closed.p50_us, "us", rests_on(closed)),
        metric("p90_us", closed.p90_us, "us", rests_on(closed)),
        metric("peak_rss_mb", peak_rss_mb, "MB", "sum of VmHWM".to_string()),
    ]
}

fn extras(m: &Measured, closed: &PhaseSummary, gen_s: f64, verified: u64) -> Vec<Metric> {
    let mut v = vec![
        metric(
            "serve.p99_us",
            closed.p99.value,
            "us",
            tail_note(&closed.p99),
        ),
        metric("loadgen.gen_s", gen_s, "s", "input generation".to_string()),
        metric(
            "bench.verified",
            verified as f64,
            "count",
            "answers checked".to_string(),
        ),
    ];
    if let Some(u) = &m.updater {
        v.push(metric(
            "serve.staleness_p50_ms",
            stats::median(&u.staleness_ms),
            "ms",
            format!("{} update cycles", u.staleness_ms.len()),
        ));
        v.push(metric(
            "serve.update_ack_us",
            stats::median(&u.ack_us),
            "us",
            format!("{} updates", u.ack_us.len()),
        ));
        v.push(metric(
            "serve.queued_wraps",
            u.queued_wraps as f64,
            "count",
            "health lines with queued > 2^53".to_string(),
        ));
    }
    v
}

/// Remove what an earlier run left, then make the directory.
fn fresh_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)
}

pub fn run(w: &Workload, opts: &RunOptions) -> io::Result<RunReport> {
    let began = Instant::now();
    let inputs = inputs::generate(&w.input, opts.seed);
    let gen_s = began.elapsed().as_secs_f64();

    // Set up several times and report the median; the last tier stays up
    // for the measurement. Every set-up starts from an empty directory,
    // so each one builds its index again.
    let dir = opts
        .out_dir
        .join(format!("{}-{}", w.name, std::process::id()));
    let mut setup_s = Vec::new();
    let mut unclean = 0u64;
    let mut tier = None;
    let setups_began = Instant::now();
    while setup_s.len() < opts.setups.max(1)
        || (setup_s.len() < 3 * opts.setups && setups_began.elapsed() < opts.cheap_setup_budget)
    {
        if let Some(prev) = tier.take() {
            unclean += u64::from(!Tier::shutdown(prev));
        }
        fresh_dir(&dir)?;
        let t = Tier::launch(&opts.fannr, w.deployment, w.input.nodes, &dir)?;
        setup_s.push(t.setup.as_secs_f64());
        tier = Some(t);
    }
    let tier = tier.expect("at least one set-up");

    let plan = Plan {
        warmup: Duration::from_secs_f64(opts.warmup_s),
        closed: Duration::from_secs_f64(opts.seconds),
        open: Duration::from_secs_f64(opts.open_s),
    };
    let measured = measure(tier.front, w, &inputs, &plan, false)?;
    let peak_rss_mb = tier.peak_rss_mb();
    let (verified, wrong) = verify(
        tier.front,
        &inputs,
        &measured.seen,
        VERIFY_SAMPLES,
        opts.seed,
    );
    unclean += u64::from(!tier.shutdown());
    let _ = std::fs::remove_dir_all(&dir);

    let updates = measured.updater.as_ref();
    let inconsistent = measured.closed.inconsistent + measured.open.inconsistent;
    let attempted = measured.closed.attempted
        + measured.open.attempted
        + verified
        + updates.map_or(0, |u| u.attempted);
    let failed = measured.closed.failed
        + measured.open.failed
        + updates.map_or(0, |u| u.failed)
        + inconsistent
        + wrong
        + unclean;
    let closed = summarize(&measured.closed, Cut::closed_phase_of(w));
    Ok(RunReport {
        seed: opts.seed,
        attempted,
        failed,
        wrong: wrong + inconsistent,
        correct: wrong + inconsistent + unclean == 0,
        metrics: end_to_end(&setup_s, &measured, &closed, peak_rss_mb),
        extras: extras(&measured, &closed, gen_s, verified),
    })
}

/// `{"value": v, "unit": "u"}` members for `metrics`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                crate::json::num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The result line the contract asks for.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {}}}"#,
        attempted.max(1),
        metrics_json(metrics)
    )
}

pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>14.3} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase from `(offset, latency)` pairs, both in microseconds.
    fn phase(began: Instant, answers: impl Iterator<Item = (u64, u64)>, seconds: f64) -> Phase {
        let mut p = Phase {
            began: Some(began),
            elapsed: Duration::from_secs_f64(seconds),
            ..Phase::default()
        };
        for (at_us, latency_us) in answers {
            p.done.push(began + Duration::from_micros(at_us));
            p.latency_ns.push(latency_us * 1000);
        }
        p.attempted = p.latency_ns.len() as u64;
        p
    }

    #[test]
    fn one_stall_moves_one_stretch_not_the_summary() {
        let began = Instant::now();
        // 1000 answers a second for 15 s at 100 us, and 200 answers of
        // 50 ms bunched into 0.2 s: the pooled p99 is the stall.
        let steady = (0..15_000u64).map(|i| (i * 1000 + 500, 100));
        let stall = (0..200u64).map(|i| (7_000_000 + i * 1000, 50_000));
        let p = phase(began, steady.chain(stall), 15.0);
        let pooled = stats::tail(&ns_to_us(&p.latency_ns), 0.99);
        assert_eq!(pooled.value, 50_000.0);
        let s = summarize(&p, Cut::even(64));
        assert_eq!((s.stretches, s.missed), (15, 0));
        assert_eq!(
            (s.p99.value, s.p99.percentile, s.p99.samples),
            (100.0, 0.99, 15_200)
        );
        assert_eq!((s.p50_us, s.p90_us), (100.0, 100.0));
        assert!((s.qps - 1000.0).abs() < 2.0, "qps {}", s.qps);
    }

    #[test]
    fn a_cyclic_phase_is_cut_at_its_cycles() {
        let began = Instant::now();
        // Every second: 60 slow answers in the first 0.3 s, 1940 fast
        // ones after; five and a half seconds of it.
        let answers = (0..11_000u64).filter_map(|i| {
            let at_us = i * 500 + 250;
            let in_cycle = at_us % 1_000_000;
            match in_cycle < 300_000 {
                true if in_cycle % 5000 == 250 => Some((at_us, 5000)),
                true => None,
                false => Some((at_us, 100)),
            }
        });
        let p = phase(began, answers, 5.5);
        let s = summarize(&p, Cut::Cycles(Duration::from_secs(1)));
        // 1460 answers a cycle, 60 of them (4 %) slow: the p99 of every
        // whole cycle is a slow one, and the half cycle left over is not
        // counted.
        assert_eq!(s.stretches, 5);
        assert_eq!(s.p99.value, 5000.0);
        assert!((s.qps - 1460.0).abs() < 2.0, "qps {}", s.qps);
        // Cut evenly instead, a stretch may hold no stale period at all.
        assert!(summarize(&p, Cut::even(64)).stretches > 5);
        // A stretch holds at least one pass over the distinct queries.
        assert_eq!(summarize(&p, Cut::even(3000)).stretches, 2);
    }

    #[test]
    fn a_miss_takes_the_length_of_the_phase() {
        let began = Instant::now();
        let mut p = phase(began, (0..2000u64).map(|i| (i * 1000, 100)), 2.0);
        p.attempted += 40; // 2 % never answered
        let s = summarize(&p, Cut::even(64));
        assert_eq!(s.missed, 40);
        assert_eq!(s.p99.value, 2_000_000.0);
    }

    #[test]
    fn the_result_line_has_the_keys_the_contract_names() {
        let line = result_json(true, 0, 0, &[metric("qps", 12.5, "1/s", String::new())]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"qps": {"value": 12.5, "unit": "1/s"}}}"#
        );
    }
}

//! One edit→output cycle of the shadow service, end to end over loopback
//! TCP, with a traced per-layer split. See `README.md` beside this crate
//! for the workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod harness;
pub mod replay;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use shadow::FrameTransport;

use harness::{
    dial_plain, dial_traced, run_cycles, Bench, BenchResult, Counters, Dial, Phase, Stop,
};
use replay::Replay;
use trace::{attribute, tag, CycleSpan, Kind, Mark, Piece, Seg, UNTRACED};
use workload::{ClientGen, Workload, CLIENTS};

/// Where runs leave their durable stores (removed afterwards) and
/// traced runs their span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    /// Each set-up's duration.
    pub setups: Vec<Duration>,
    /// The measured phase.
    pub phase: Phase,
    /// Cycles started over the whole run, warm-up included.
    pub attempted: u64,
    /// Cycles failed over the whole run, warm-up included.
    pub failed: u64,
    /// The process's peak resident set (`VmHWM`) after set-up and
    /// warm-up, in MB.
    pub peak_rss_mb: f64,
    /// Counter deltas over the measured phase.
    pub counters: Counters,
    /// Counters at the end of the run.
    pub totals: Counters,
    /// Cycles started per client over the whole run.
    pub cycles: Vec<u64>,
    /// The server thread's marks (traced runs only).
    pub server_marks: Vec<Mark>,
    /// The generator thread's marks (traced runs only).
    pub client_marks: Vec<Mark>,
    /// [`trace::now_ns`] bounds of the measured phase.
    pub window: (u64, u64),
}

/// Sets up `setups` times (keeping the last deployment), warms up, and
/// measures the closed loop until `stop`.
///
/// # Errors
///
/// Any transport, protocol or set-up failure. A failed cycle is counted,
/// not returned.
pub fn measure(
    workload: Workload,
    seed: u64,
    stop: Stop,
    setups: usize,
    traced: bool,
) -> BenchResult<Measured> {
    trace::set_enabled(traced);
    let measured = if traced {
        measure_with(workload, seed, stop, setups, traced, dial_traced)
    } else {
        measure_with(workload, seed, stop, setups, traced, dial_plain)
    };
    trace::set_enabled(false);
    measured
}

fn measure_with<T: FrameTransport>(
    workload: Workload,
    seed: u64,
    stop: Stop,
    setups: usize,
    traced: bool,
    dial: Dial<T>,
) -> BenchResult<Measured> {
    // The inputs are the benchmark's, not the service's: generated once,
    // outside the timed set-ups.
    let gens: Vec<ClientGen> = (0..CLIENTS)
        .map(|index| ClientGen::new(workload, seed, index))
        .collect();
    static STORES: AtomicU64 = AtomicU64::new(0);
    let store = workload.durable().then(|| {
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        out_dir().join(format!("store-{}-{n}", std::process::id()))
    });
    let mut times = Vec::new();
    let mut bench = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = bench.take() {
            Bench::teardown(previous)?;
        }
        trace::take_marks();
        let t = Instant::now();
        bench = Some(Bench::setup(workload, &gens, store.clone(), traced, dial)?);
        times.push(t.elapsed());
    }
    let mut bench = bench.expect("at least one set-up");
    let warm = run_cycles(&mut bench.clients, Stop::Cycles(workload.warmup_cycles()));
    // Read before the timed phase: the clients keep every job output, so
    // the peak would otherwise grow with the cycles that fit in it.
    let peak_rss_mb = peak_rss_mb();
    let before = bench.counters()?;
    let w0 = trace::now_ns();
    let phase = run_cycles(&mut bench.clients, stop);
    let w1 = trace::now_ns();
    let totals = bench.counters()?;
    let cycles = bench.clients.iter().map(|c| c.started).collect();
    let client_marks = trace::take_marks();
    let (_, server_marks) = bench.teardown()?;
    Ok(Measured {
        setups: times,
        attempted: warm.attempted + phase.attempted,
        failed: warm.failed() + phase.failed(),
        phase,
        peak_rss_mb,
        counters: totals.since(before),
        totals,
        cycles,
        server_marks,
        client_marks,
        window: (w0, w1),
    })
}

/// A named value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `q` quantile of `sorted` (linear interpolation between ranks).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Latencies of the correct cycles in milliseconds, sorted.
pub fn latencies_ms(phase: &Phase) -> Vec<f64> {
    let mut ms: Vec<f64> = phase
        .ended
        .iter()
        .filter(|c| c.ok)
        .map(|c| c.latency.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

/// The quantile reported as `cycle_p99_ms`. A 20 s run completes about
/// 380 `text_cycle`, 420 `rerun_mixed` and 140 `blob_cycle` cycles on a
/// 2-core host, so its 0.99 quantile would rest on one to four cycles;
/// the 0.9 quantile leaves 14 to 42 beyond it. It is fixed, so that a
/// faster program, which completes more cycles, is compared on the same
/// quantile.
pub const TAIL_QUANTILE: f64 = 0.9;

/// The end-to-end metrics of an untraced run. Per-cycle figures count
/// every cycle of the measured phase, failed ones too.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ms = latencies_ms(&m.phase);
    let n = m.phase.attempted.max(1) as f64;
    vec![
        metric("cycle_p50_ms", quantile(&ms, 0.5), "ms"),
        metric("cycle_p99_ms", quantile(&ms, TAIL_QUANTILE), "ms"),
        metric("cycles_per_s", n / m.phase.wall.as_secs_f64(), "1/s"),
        metric(
            "wire_bytes_per_cycle",
            m.counters.wire_bytes as f64 / n,
            "B",
        ),
        metric(
            "setup_s",
            median(m.setups.iter().map(Duration::as_secs_f64).collect()),
            "s",
        ),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn count(marks: &[Mark], (w0, w1): (u64, u64), pred: impl Fn(Kind) -> bool) -> u64 {
    marks
        .iter()
        .filter(|m| m.t >= w0 && m.t <= w1 && pred(m.kind))
        .count() as u64
}

/// Durations between each `start` mark and the next `end` mark, within
/// the window.
fn durations(
    marks: &[Mark],
    (w0, w1): (u64, u64),
    start: impl Fn(Kind) -> bool,
    end: impl Fn(Kind) -> bool,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut open = None;
    for m in marks.iter().filter(|m| m.t >= w0 && m.t <= w1) {
        if start(m.kind) {
            open = Some(m.t);
        } else if end(m.kind) {
            if let Some(t) = open.take() {
                out.push(m.t - t);
            }
        }
    }
    out
}

/// Mean time from each client send's end to the server's receipt of
/// that frame, µs. Frames pair up in order per connection.
fn queue_wait_us(m: &Measured) -> f64 {
    let mut waits = Vec::new();
    for conn in 0..m.cycles.len() as u8 {
        let sent = m
            .client_marks
            .iter()
            .filter(|k| k.kind == Kind::SendEnd { conn })
            .map(|k| k.t);
        let received = m
            .server_marks
            .iter()
            .filter(|k| matches!(k.kind, Kind::RecvEnd { conn: c, tag: Some(_) } if c == conn))
            .map(|k| k.t);
        for (s, r) in sent.zip(received) {
            if r >= m.window.0 && r <= m.window.1 {
                waits.push(r.saturating_sub(s));
            }
        }
    }
    ratio(waits.iter().sum::<u64>() as f64, waits.len() as f64) / 1e3
}

/// Input files each cycle's job reads: its command file and one data
/// file. A cache miss is one of them arriving as a full update.
const FILES_PER_JOB: f64 = 2.0;

/// The traced run's analysis: per-layer metrics and the report table.
#[derive(Debug)]
pub struct Layers {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// `(label, ns per cycle over the whole run, ns per cycle on the
    /// cycle's own path)`, largest path share first.
    pub table: Vec<(&'static str, f64, f64)>,
    /// Mean cycle wall time in the traced run, ns.
    pub cycle_ns: f64,
    /// Traced `cycle_p50_ms`.
    pub traced_p50_ms: f64,
    /// Untraced `cycle_p50_ms`.
    pub untraced_p50_ms: f64,
    /// Labelled segments of both threads within the window, for the
    /// span file.
    pub segments: Vec<(bool, Seg)>,
    /// The measured cycles with their holder pieces.
    pub cycles: Vec<(CycleSpan, Vec<Piece>)>,
}

/// Analyses a traced run against the untraced run beside it.
pub fn per_layer(traced: &Measured, untraced: &Measured, replay: &Replay) -> Layers {
    let m = traced;
    let w = m.window;
    let server_segs = trace::segments(&m.server_marks, true);
    let client_segs = trace::segments(&m.client_marks, false);
    let mut run = BTreeMap::new();
    attribute(&server_segs, w.0, w.1, &mut run);
    attribute(&client_segs, w.0, w.1, &mut run);

    let spans: Vec<CycleSpan> = trace::cycles(&m.client_marks)
        .into_iter()
        .filter(|c| c.start >= w.0 && c.end <= w.1)
        .collect();
    let mut path = BTreeMap::new();
    let mut wall = 0u64;
    let mut cycles = Vec::with_capacity(spans.len());
    for c in spans {
        wall += c.end - c.start;
        let pieces = trace::holders(&c, &m.server_marks, &m.client_marks);
        for &(from, to, on_server) in &pieces {
            let segs = if on_server {
                &server_segs
            } else {
                &client_segs
            };
            attribute(segs, from, to, &mut path);
        }
        cycles.push((c, pieces));
    }
    let n = cycles.len().max(1) as f64;
    let attributed: u64 = path
        .iter()
        .filter(|(l, _)| **l != UNTRACED)
        .map(|(_, v)| v)
        .sum();

    let total = |label: &str| run.get(label).copied().unwrap_or(0) as f64;
    let server = |k: Kind| count(&m.server_marks, w, |x| x == k);
    let client = |k: Kind| count(&m.client_marks, w, |x| x == k);
    let sends = count(&m.server_marks, w, |k| matches!(k, Kind::SendStart { .. }))
        + count(&m.client_marks, w, |k| matches!(k, Kind::SendStart { .. }));
    let edits = durations(
        &m.client_marks,
        w,
        |k| k == Kind::EditStart,
        |k| k == Kind::EditEnd,
    );
    let persists = durations(
        &m.server_marks,
        w,
        |k| k == Kind::PersistStart,
        |k| k == Kind::PersistEnd,
    );
    let c = &m.counters;
    let traced_p50_ms = quantile(&latencies_ms(&m.phase), 0.5);
    let untraced_p50_ms = quantile(&latencies_ms(&untraced.phase), 0.5);
    let us = |ns: f64, calls: u64| ratio(ns, calls as f64) / 1e3;

    let metrics = vec![
        metric(
            "tcp.recv_blocked_ms_per_cycle",
            total("tcp.recv_blocked") / n / 1e6,
            "ms",
        ),
        metric(
            "tcp.client_recv_blocked_ms_per_cycle",
            total("tcp.client_recv_blocked") / n / 1e6,
            "ms",
        ),
        metric(
            "tcp.send_us",
            us(total("tcp.send") + total("tcp.client_send"), sends),
            "us",
        ),
        metric("tcp.frames_per_cycle", sends as f64 / n, "count"),
        metric(
            "runtime.polls_per_cycle",
            server(Kind::PollStart) as f64 / n,
            "count",
        ),
        metric(
            "runtime.idle_sleep_ms_per_cycle",
            total("runtime.idle_sleep") / n / 1e6,
            "ms",
        ),
        metric("runtime.queue_wait_us", queue_wait_us(m), "us"),
        metric(
            "client.edit_us",
            us(edits.iter().sum::<u64>() as f64, edits.len() as u64),
            "us",
        ),
        metric(
            "client.pull_us",
            us(
                total("client.pull"),
                client(Kind::Received {
                    tag: tag::UPDATE_REQUEST,
                }),
            ),
            "us",
        ),
        metric(
            "client.output_us",
            us(
                total("client.output"),
                client(Kind::Received {
                    tag: tag::JOB_COMPLETE,
                }),
            ),
            "us",
        ),
        metric(
            "client.delta_ratio",
            ratio(c.deltas_sent as f64, (c.deltas_sent + c.fulls_sent) as f64),
            "ratio",
        ),
        metric(
            "server.update_us",
            us(
                total("server.update"),
                server(Kind::Received { tag: tag::UPDATE }),
            ),
            "us",
        ),
        metric(
            "server.submit_us",
            us(
                total("server.submit"),
                server(Kind::Received { tag: tag::SUBMIT }),
            ),
            "us",
        ),
        metric(
            "server.job_done_us",
            us(total("server.job_done"), server(Kind::TimerFired)),
            "us",
        ),
        metric(
            "server.update_failures",
            (m.totals.update_failures + untraced.totals.update_failures) as f64,
            "count",
        ),
        metric("diff.line_diff_us", replay.line_diff.mean_us(), "us"),
        metric("diff.line_apply_us", replay.line_apply.mean_us(), "us"),
        metric("diff.chunk_diff_us", replay.chunk_diff.mean_us(), "us"),
        metric("diff.chunk_apply_us", replay.chunk_apply.mean_us(), "us"),
        metric(
            "diff.delta_bytes_ratio",
            ratio(replay.delta_bytes as f64, replay.new_bytes as f64),
            "ratio",
        ),
        metric("proto.digest_us", replay.digest.mean_us(), "us"),
        metric("proto.encode_us", replay.encode.mean_us(), "us"),
        metric("proto.decode_us", replay.decode.mean_us(), "us"),
        metric("exec.run_job_us", replay.run_job.mean_us(), "us"),
        metric(
            "cache.hit_ratio",
            1.0 - ratio(c.fulls_sent as f64, FILES_PER_JOB * n),
            "ratio",
        ),
        metric(
            "cache.evictions_per_cycle",
            c.cache_evictions as f64 / n,
            "count",
        ),
        metric(
            "store.persist_us",
            us(persists.iter().sum::<u64>() as f64, persists.len() as u64),
            "us",
        ),
        metric(
            "store.records_per_cycle",
            c.store_appends as f64 / n,
            "count",
        ),
        metric(
            "store.bytes_per_user_byte",
            ratio(c.store_bytes as f64, m.phase.user_bytes as f64),
            "ratio",
        ),
        metric("store.compactions", c.store_compactions as f64, "count"),
        metric(
            "store.max_persist_ms",
            persists.iter().copied().max().unwrap_or(0) as f64 / 1e6,
            "ms",
        ),
        metric(
            "trace.coverage",
            ratio(attributed as f64, wall as f64),
            "ratio",
        ),
        metric(
            "trace.overhead",
            ratio(traced_p50_ms, untraced_p50_ms),
            "ratio",
        ),
        metric(
            "cycle_fail_ratio",
            ratio(
                (m.failed + untraced.failed) as f64,
                (m.attempted + untraced.attempted) as f64,
            ),
            "ratio",
        ),
    ];

    let mut table: Vec<(&'static str, f64, f64)> = run
        .iter()
        .map(|(l, v)| {
            (
                *l,
                *v as f64 / n,
                path.get(l).copied().unwrap_or(0) as f64 / n,
            )
        })
        .collect();
    table.sort_by(|a, b| b.2.total_cmp(&a.2).then(b.1.total_cmp(&a.1)));
    let mut segments: Vec<(bool, Seg)> = Vec::new();
    for (server, segs) in [(true, &server_segs), (false, &client_segs)] {
        segments.extend(
            segs.iter()
                .filter(|s| s.end > w.0 && s.start < w.1)
                .map(|s| (server, *s)),
        );
    }
    Layers {
        metrics,
        table,
        cycle_ns: wall as f64 / n,
        traced_p50_ms,
        untraced_p50_ms,
        segments,
        cycles,
    }
}

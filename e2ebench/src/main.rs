//! `shadow-e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0`, runs the untraced closed loop and prints the
//! end-to-end metrics; with `--trace 1`, runs an untraced and a traced
//! loop of half the time each, replays the cycle's library calls, prints
//! the per-layer table and writes the spans to `out/trace-NAME.jsonl`.
//! The last line of standard output is always one JSON object.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use shadow::Json;
use shadow_e2ebench::harness::{BenchResult, Stop};
use shadow_e2ebench::workload::Workload;
use shadow_e2ebench::{
    end_to_end, latencies_ms, measure, out_dir, per_layer, replay, Layers, Measured, Metric,
    TAIL_QUANTILE,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Wall time the replay of library calls may take.
const REPLAY_BUDGET: Duration = Duration::from_secs(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(format!(
                    "unknown workload {value:?} (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let result = parse_args().map_err(Into::into).and_then(|args| {
        if args.trace {
            traced(&args)
        } else {
            untraced(&args)
        }
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(a: &Args) -> BenchResult<ExitCode> {
    let m = measure(
        a.workload,
        a.seed,
        Stop::After(Duration::from_secs_f64(a.seconds)),
        SETUPS,
        false,
    )?;
    let metrics = end_to_end(&m);
    let n = latencies_ms(&m.phase).len();
    println!(
        "{} seed {}: {n} cycles, 2 clients closed loop; cycle_p99_ms is the {} quantile",
        a.workload.name(),
        a.seed,
        TAIL_QUANTILE
    );
    for x in &metrics {
        println!("  {:<24} {:>14.4} {}", x.name, x.value, x.unit);
    }
    let setups: Vec<String> = m
        .setups
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    println!(
        "  set-ups took {} s; setup_s is their median",
        setups.join(", ")
    );
    println!(
        "  {:<24} {:>14.4} ratio ({} of {} cycles failed)",
        "cycle_fail_ratio",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    Ok(finish(a.workload, &metrics, &[&m]))
}

fn traced(a: &Args) -> BenchResult<ExitCode> {
    let half = Stop::After(Duration::from_secs_f64(a.seconds / 2.0));
    let plain = measure(a.workload, a.seed, half, 1, false)?;
    let traced = measure(a.workload, a.seed, half, 1, true)?;
    let replayed = replay::replay(a.workload, a.seed, &traced.cycles, REPLAY_BUDGET)?;
    let layers = per_layer(&traced, &plain, &replayed);
    print_table(a, &layers, &traced);
    let path = write_spans(a.workload, &layers)?;
    println!("  spans written to {}", path.display());
    Ok(finish(a.workload, &layers.metrics, &[&plain, &traced]))
}

fn print_table(a: &Args, layers: &Layers, traced: &Measured) {
    let cycle_ms = layers.cycle_ns / 1e6;
    println!(
        "{} seed {}: traced run, {} cycles, mean cycle {cycle_ms:.3} ms",
        a.workload.name(),
        a.seed,
        latencies_ms(&traced.phase).len()
    );
    println!(
        "  {:<34} {:>14} {:>14} {:>8}",
        "layer (self time)", "ms/cycle run", "ms/cycle path", "path %"
    );
    for (label, run, path) in &layers.table {
        println!(
            "  {label:<34} {:>14.4} {:>14.4} {:>7.1}%",
            run / 1e6,
            path / 1e6,
            100.0 * path / layers.cycle_ns.max(1.0)
        );
    }
    if let Some((label, _, path)) = layers
        .table
        .iter()
        .find(|(l, _, _)| *l != shadow_e2ebench::trace::UNTRACED)
    {
        println!(
            "  largest attributed layer on the cycle path: {label} ({:.1}% of the cycle)",
            100.0 * path / layers.cycle_ns.max(1.0)
        );
    }
    for x in &layers.metrics {
        println!("  {:<38} {:>14.4} {}", x.name, x.value, x.unit);
    }
    println!(
        "  trace.overhead = traced cycle_p50_ms {:.4} / untraced cycle_p50_ms {:.4}",
        layers.traced_p50_ms, layers.untraced_p50_ms
    );
}

/// Writes the traced run's labelled segments and per-cycle paths as
/// JSON lines.
fn write_spans(workload: Workload, layers: &Layers) -> BenchResult<std::path::PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for (server, s) in &layers.segments {
        let thread = if *server { "server" } else { "client" };
        writeln!(
            out,
            r#"{{"thread":"{thread}","label":"{}","start_ns":{},"end_ns":{}}}"#,
            s.label, s.start, s.end
        )?;
    }
    for (id, (c, pieces)) in layers.cycles.iter().enumerate() {
        let path: Vec<String> = pieces
            .iter()
            .map(|(from, to, on_server)| {
                let thread = if *on_server { "server" } else { "client" };
                format!(r#"{{"thread":"{thread}","from_ns":{from},"to_ns":{to}}}"#)
            })
            .collect();
        writeln!(
            out,
            r#"{{"cycle":{id},"client":{},"start_ns":{},"end_ns":{},"waits_on":[{}]}}"#,
            c.conn,
            c.start,
            c.end,
            path.join(",")
        )?;
    }
    out.flush()?;
    Ok(path)
}

/// Prints the result line. A failed cycle fails the run, and so does a
/// failed update where the cache holds the whole working set.
fn finish(workload: Workload, metrics: &[Metric], runs: &[&Measured]) -> ExitCode {
    let attempted: u64 = runs.iter().map(|m| m.attempted).sum();
    let failed: u64 = runs.iter().map(|m| m.failed).sum();
    let update_failures: u64 = runs.iter().map(|m| m.totals.update_failures).sum();
    let correct = failed == 0 && (update_failures == 0 || workload.evicts());
    let mut values = Json::object();
    for x in metrics {
        values.set(
            x.name,
            Json::object().with("value", x.value).with("unit", x.unit),
        );
    }
    let line = Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", values);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: {failed} failed cycles, {update_failures} failed updates");
        ExitCode::FAILURE
    }
}

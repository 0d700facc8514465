//! `ns_per_op` regression guard for one bench target.
//!
//! `bench_guard <name>` compares the rows of a freshly exported
//! `BENCH_<name>.json` against the committed `BENCH_baseline_<name>.json`
//! and exits non-zero when any baseline row is missing or its
//! `ns_per_op` is more than the baseline's top-level `"max_ratio"` times
//! slower. Each baseline carries its own tolerance because the noise
//! differs: the `micro` diff rows are CPU-bound (2x), the `recovery`
//! rows touch the filesystem (3x). Both gates are loose on purpose: the
//! regressions they exist for (a return to the per-line allocating diff
//! pipeline, a per-record fsync on the journal append path) cost well
//! over an order of magnitude.
//!
//! Usage: `cargo run -p shadow-bench --bin bench_guard -- micro` after
//! the bench has written its JSON (see `just bench-diff` and
//! `just bench-recovery`).

use std::fs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name] = args.as_slice() else {
        eprintln!("usage: bench_guard <name>  (reads BENCH_<name>.json and BENCH_baseline_<name>.json)");
        return ExitCode::from(2);
    };
    let root = shadow_bench::bench_output_dir();
    let current_path = root.join(format!("BENCH_{name}.json"));
    let baseline_path = root.join(format!("BENCH_baseline_{name}.json"));
    let current = match fs::read_to_string(&current_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench_guard: cannot read {} ({e}); run the {name} bench first",
                current_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench_guard: cannot read {} ({e}); the baseline must be \
                 committed at the workspace root",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let Some(max_ratio) = shadow_bench::parse_number_field(&baseline, "max_ratio") else {
        eprintln!("bench_guard: {} has no top-level \"max_ratio\"", baseline_path.display());
        return ExitCode::FAILURE;
    };
    let current_rows = shadow_bench::parse_ns_rows(&current);
    let baseline_rows = shadow_bench::parse_ns_rows(&baseline);
    if baseline_rows.is_empty() {
        eprintln!("bench_guard: no ns_per_op rows in the baseline; nothing to guard");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for (op, base_ns) in &baseline_rows {
        let Some((_, cur_ns)) = current_rows.iter().find(|(o, _)| o == op) else {
            eprintln!("bench_guard: FAIL {op}: row missing from BENCH_{name}.json");
            failed = true;
            continue;
        };
        let factor = cur_ns / base_ns.max(1.0);
        let verdict = if factor > max_ratio { "FAIL" } else { "ok  " };
        println!(
            "bench_guard: {verdict} {op}: {cur_ns:.0} ns vs baseline {base_ns:.0} ns ({factor:.2}x)"
        );
        failed |= factor > max_ratio;
    }
    if failed {
        eprintln!("bench_guard: {name} failed its gate (every baseline row, within {max_ratio}x)");
        ExitCode::FAILURE
    } else {
        println!(
            "bench_guard: {} {name} rows within {max_ratio}x of baseline",
            baseline_rows.len()
        );
        ExitCode::SUCCESS
    }
}

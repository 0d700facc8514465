//! With a fixed seed the inputs, and the exact counters derived from
//! them, repeat run to run; another seed still passes every output check.

use shadow_e2ebench::harness::Stop;
use shadow_e2ebench::workload::{ClientGen, Workload, CLIENTS};
use shadow_e2ebench::{latencies_ms, measure, Measured};

/// Cycles per client in the fixed-length runs.
const CYCLES: u64 = 4;

fn run(workload: Workload, seed: u64) -> Measured {
    let m = measure(workload, seed, Stop::Cycles(CYCLES), 1, false).expect("run completes");
    assert_eq!(
        m.failed,
        0,
        "{} seed {seed}: wrong outputs",
        workload.name()
    );
    assert_eq!(latencies_ms(&m.phase).len() as u64, CYCLES * CLIENTS as u64);
    m
}

#[test]
fn inputs_are_byte_identical_for_a_seed() {
    for workload in Workload::ALL {
        let mut a = ClientGen::new(workload, 11, 1);
        let mut b = ClientGen::new(workload, 11, 1);
        for _ in 0..6 {
            let (pa, pb) = (a.next_plan(), b.next_plan());
            assert_eq!((pa.file, pa.old), (pb.file, pb.old));
        }
        let contents = |g: &ClientGen| {
            g.files()
                .iter()
                .map(|f| f.content.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(contents(&a), contents(&b), "{}", workload.name());
        assert_ne!(
            contents(&ClientGen::new(workload, 11, 0)),
            contents(&ClientGen::new(workload, 12, 0)),
            "{}: the seed must change the inputs",
            workload.name()
        );
    }
}

#[test]
fn exact_counters_repeat_on_text_and_blob() {
    for workload in [Workload::TextCycle, Workload::BlobCycle] {
        let (a, b) = (run(workload, 7), run(workload, 7));
        let exact = |m: &Measured| {
            let c = m.counters;
            (
                c.wire_bytes,
                c.deltas_sent,
                c.fulls_sent,
                c.store_appends,
                m.phase.user_bytes,
            )
        };
        assert_eq!(exact(&a), exact(&b), "{}", workload.name());
        assert!(a.counters.deltas_sent > 0 && a.counters.store_appends > 0);
        assert_eq!(a.totals.update_failures + b.totals.update_failures, 0);
    }
}

#[test]
fn a_second_seed_passes_every_output_check() {
    for workload in Workload::ALL {
        run(workload, 8);
    }
}

//! Replayed public calls: the diff, apply, digest, encode/decode and
//! exec steps of each cycle, timed one by one on the cycle's own
//! `(old, new)` pair after the traced run, so they never sit inside a
//! measured cycle.
//!
//! The generator is deterministic, so regenerating a client's cycles
//! from the seed yields exactly the pairs the service saw.

use std::time::{Duration, Instant};

use bytes::Bytes;
use shadow::{
    apply_chunk_delta, apply_delta, choose_chunk_codec, chunk_delta_into, diff_docs, ClientMessage,
    ContentDigest, DeltaCodec, DiffAlgorithm, DiffScratch, DocBuf, Frame, TransferEncoding,
    UpdatePayload, VersionNumber,
};

use crate::harness::BenchResult;
use crate::workload::{ClientGen, Workload};

/// Total time and call count of one replayed step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    /// Summed wall time.
    pub total: Duration,
    /// Calls timed.
    pub calls: u64,
}

impl Stat {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        self.calls += 1;
        r
    }

    /// Mean microseconds per call (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// The replayed steps.
#[derive(Debug, Default)]
pub struct Replay {
    /// `diff_docs` + script text, line codec.
    pub line_diff: Stat,
    /// `apply_delta`.
    pub line_apply: Stat,
    /// `chunk_delta_into`.
    pub chunk_diff: Stat,
    /// `apply_chunk_delta`.
    pub chunk_apply: Stat,
    /// `ContentDigest::of` on the new content.
    pub digest: Stat,
    /// `Frame::encode_into` of the cycle's `Update`.
    pub encode: Stat,
    /// `Frame::decode` of it.
    pub decode: Stat,
    /// `exec::run_job` of the cycle's job.
    pub run_job: Stat,
    /// Delta bytes over all replayed edits.
    pub delta_bytes: u64,
    /// New-content bytes over all replayed edits.
    pub new_bytes: u64,
}

/// Replays the first `cycles[c]` cycles of every client `c`, stopping
/// early once `budget` is spent (every client gets at least one edit).
///
/// # Errors
///
/// A delta that does not reconstruct the new content.
pub fn replay(
    workload: Workload,
    seed: u64,
    cycles: &[u64],
    budget: Duration,
) -> BenchResult<Replay> {
    let begin = Instant::now();
    let mut r = Replay::default();
    let mut scratch = DiffScratch::default();
    let mut frame = Vec::new();
    for (client, &n) in cycles.iter().enumerate() {
        let mut gen = ClientGen::new(workload, seed, client);
        let mut edits = 0u64;
        for cycle in 0..n {
            if edits > 0 && begin.elapsed() * cycles.len() as u32 > budget * (client as u32 + 1) {
                break;
            }
            let plan = gen.next_plan();
            let file = &gen.files()[plan.file];
            if let Some(old) = plan.old {
                edits += 1;
                let new = &file.content;
                let (old_doc, new_doc) = (
                    DocBuf::from_bytes(old.clone()),
                    DocBuf::from_bytes(new.clone()),
                );
                let (codec, delta) = if choose_chunk_codec(&old_doc, &new_doc) {
                    let mut out = Vec::new();
                    r.chunk_diff
                        .time(|| chunk_delta_into(&old, new, &mut scratch, &mut out));
                    let back = r.chunk_apply.time(|| apply_chunk_delta(&old, &out));
                    if back.as_deref().ok() != Some(new.as_slice()) {
                        return Err("replayed chunk delta did not reconstruct the edit".into());
                    }
                    (DeltaCodec::Chunk, out)
                } else {
                    let text = r.line_diff.time(|| {
                        diff_docs(DiffAlgorithm::default(), &old_doc, &new_doc, &mut scratch)
                            .to_text()
                    });
                    let back = r.line_apply.time(|| apply_delta(&old, &text));
                    if back.as_deref().ok() != Some(new.as_slice()) {
                        return Err("replayed line delta did not reconstruct the edit".into());
                    }
                    (DeltaCodec::Line, text)
                };
                r.delta_bytes += delta.len() as u64;
                r.new_bytes += new.len() as u64;
                let digest = r.digest.time(|| ContentDigest::of(new));
                let message = ClientMessage::Update {
                    file: file.data.id,
                    version: VersionNumber::new(cycle + 2),
                    payload: UpdatePayload::Delta {
                        base: VersionNumber::new(cycle + 1),
                        codec,
                        encoding: TransferEncoding::Identity,
                        data: Bytes::from(delta),
                        digest,
                    },
                };
                frame.clear();
                r.encode.time(|| Frame::encode_into(&message, &mut frame));
                let decoded = r.decode.time(|| Frame::decode::<ClientMessage>(&frame));
                if !matches!(decoded, Ok(Some((ref m, _))) if *m == message) {
                    return Err("replayed Update frame did not round-trip".into());
                }
            }
            let outcome = r.run_job.time(|| gen.expected_output(plan.file));
            if outcome.exit_code != 0 {
                return Err("replayed job failed".into());
            }
        }
    }
    Ok(r)
}

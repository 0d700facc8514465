//! The runtime-side sink for the server's storage intents.
//!
//! The sans-io [`ServerNode`](shadow_server::ServerNode) only *emits*
//! `ServerAction::Persist(record)`; whether (and where) records become
//! durable is a deployment decision. The poll loops hand every record
//! from a [`ServerIo`](crate::ServerIo) to the installed sink in
//! emission order, then close the batch with
//! [`end_batch`](PersistSink::end_batch), which lends the sink the
//! node's own checkpoint of any domain. The sink never interprets
//! records: the node is the only code that turns them into state.
//! `shadow-store` provides the journaling sink; tests use [`VecSink`];
//! diskless deployments install none.

use shadow_proto::{DomainId, PersistRecord};

/// Applies storage intents emitted by the server state machine.
///
/// `Send` because sharded deployments move each shard's sink onto that
/// shard's worker thread (journals shard with the same domain affinity
/// as the servers). Implementations must be infallible from the
/// caller's perspective: durability is best-effort by design, so an
/// I/O error should degrade (count, drop) rather than poison the poll
/// loop.
pub trait PersistSink: Send + std::fmt::Debug {
    /// Appends one record.
    fn persist(&mut self, record: &PersistRecord);

    /// Closes a batch: called once after every record of one
    /// [`ServerIo`](crate::ServerIo) has gone through
    /// [`persist`](Self::persist), never between two of them. By then
    /// the node has applied the whole batch, so `state(domain)` —
    /// [`ServerNode::checkpoint`](shadow_server::ServerNode::checkpoint)
    /// — describes exactly the records persisted so far. A journaling
    /// sink compacts here; mid-batch, the checkpoint would already hold
    /// the effect of records the sink has not seen yet. The default
    /// does nothing.
    fn end_batch(&mut self, _state: &dyn Fn(DomainId) -> Vec<PersistRecord>) {}

    /// The sink's observability section, if it keeps counters. The poll
    /// loop appends it to [`ServerRuntime::report`] so a durable
    /// deployment's report shows its journal behaviour next to the
    /// protocol metrics.
    ///
    /// [`ServerRuntime::report`]: crate::ServerRuntime::report
    fn report_section(&self) -> Option<shadow_obs::Section> {
        None
    }
}

/// A sink that collects records in memory — test instrumentation and
/// the model checker's in-memory journal.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Every record persisted, in emission order.
    pub records: Vec<PersistRecord>,
}

impl PersistSink for VecSink {
    fn persist(&mut self, record: &PersistRecord) {
        self.records.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_proto::{DomainId, FileKey, VersionNumber};

    #[test]
    fn vec_sink_preserves_emission_order() {
        let mut sink = VecSink::default();
        let key = FileKey::new(DomainId::new(1), shadow_proto::FileId::new(2));
        let records = [
            PersistRecord::CacheFull {
                key,
                version: VersionNumber::FIRST,
                content: bytes::Bytes::from_static(b"a"),
            },
            PersistRecord::CacheRemove { key },
        ];
        for r in &records {
            sink.persist(r);
        }
        assert_eq!(sink.records, records);
    }
}

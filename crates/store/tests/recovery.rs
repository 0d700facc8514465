//! Recovery edge cases for the durable shadow store: empty journals,
//! torn tails, mid-file corruption, interrupted compactions, and the
//! determinism of replay.
//!
//! The store only reads records back; a `ServerNode` replays them and
//! supplies the checkpoints compaction writes, so the assertions about
//! state look at a restored node.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use shadow_proto::{
    ContentDigest, DeltaCodec, DomainId, FileId, FileKey, JobId, PersistRecord, VersionNumber,
};
use shadow_runtime::{shard_for, PersistSink};
use shadow_server::{ServerConfig, ServerNode};
use shadow_store::DurableStore;

fn temp_root(tag: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn key(domain: u64, file: u64) -> FileKey {
    FileKey::new(DomainId::new(domain), FileId::new(file))
}

fn full(domain: u64, file: u64, version: u64, content: &str) -> PersistRecord {
    PersistRecord::CacheFull {
        key: key(domain, file),
        version: VersionNumber::new(version),
        content: Bytes::from(content.as_bytes().to_vec()),
    }
}

/// A line-codec delta: `script` is the ed script turning the base into
/// `to`.
fn delta(domain: u64, file: u64, base: u64, version: u64, script: &str, to: &str) -> PersistRecord {
    PersistRecord::CacheDelta {
        key: key(domain, file),
        version: VersionNumber::new(version),
        base: VersionNumber::new(base),
        codec: DeltaCodec::Line,
        script: Bytes::from(script.as_bytes().to_vec()),
        digest: ContentDigest::of(to.as_bytes()),
    }
}

/// One batch the way the server runtime dispatches it: the node applies
/// the records, the store appends them, and the batch end lets the store
/// compact any due domain from the node's checkpoint.
fn persist_batch(node: &mut ServerNode, store: &mut DurableStore, batch: &[PersistRecord]) {
    node.restore(batch);
    for record in batch {
        store.persist(record);
    }
    store.end_batch(&|domain| node.checkpoint(domain));
}

/// A fresh node restored from what `store` recovered.
fn restored(store: &DurableStore) -> ServerNode {
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    let summary = node.restore(&store.recovered());
    assert_eq!(summary.skipped, 0, "no record of a clean store is dropped");
    node
}

fn journal_path(root: &Path, domain: u64) -> PathBuf {
    root.join(format!("domain-{domain:016x}")).join("journal.log")
}

#[test]
fn empty_store_recovers_to_nothing() {
    let root = temp_root("empty");
    let store = DurableStore::open(&root).unwrap();
    assert_eq!(store.recovered(), Vec::new());
    let summary = store.summary();
    assert_eq!(summary.domains, 0);
    assert_eq!(summary.replayed(), 0);
    assert!(!summary.degraded());

    // A journal that exists but holds zero records is equally empty.
    drop(store);
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "x\n"));
    let reopened = DurableStore::open(&root).unwrap();
    assert_eq!(reopened.recovered().len(), 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn journal_replay_collapses_delta_chains() {
    let root = temp_root("chain");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "a\nb\n"));
    store.persist(&delta(1, 1, 1, 2, "2c\nc\n.\nw\n", "a\nc\n"));
    store.persist(&delta(1, 1, 2, 3, "2a\nd\n.\nw\n", "a\nc\nd\n"));
    drop(store);

    let store = DurableStore::open(&root).unwrap();
    assert_eq!(store.summary().journal_records, 3);
    assert_eq!(store.recovered().len(), 3, "the store hands back raw records");
    assert_eq!(
        restored(&store).checkpoint(DomainId::new(1)),
        vec![full(1, 1, 3, "a\nc\nd\n")],
        "the node replays three journal records into one collapsed CacheFull"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_last_record_is_truncated_and_the_prefix_survives() {
    let root = temp_root("torn");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "kept\n"));
    store.persist(&full(1, 2, 1, "lost half-written\n"));
    drop(store);

    let journal = journal_path(&root, 1);
    let bytes = fs::read(&journal).unwrap();
    fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    let store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(summary.torn_tails, 1);
    assert!(summary.degraded());
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "kept\n")]);
    drop(store);

    // Recovery re-stabilized the salvage: a second open is clean.
    let store = DurableStore::open(&root).unwrap();
    assert_eq!(store.summary().torn_tails, 0);
    assert!(!store.summary().degraded());
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "kept\n")]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checksum_mismatch_mid_file_degrades_to_the_valid_prefix() {
    let root = temp_root("corrupt");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "first\n"));
    store.persist(&full(1, 2, 1, "second\n"));
    store.persist(&full(1, 3, 1, "third\n"));
    drop(store);

    // Flip one payload byte of the *middle* record: its checksum fails,
    // and everything from there on is distrusted.
    let journal = journal_path(&root, 1);
    let mut bytes = fs::read(&journal).unwrap();
    let needle = bytes
        .windows(7)
        .position(|w| w == b"second\n")
        .expect("middle record payload present");
    bytes[needle] ^= 0xFF;
    fs::write(&journal, &bytes).unwrap();

    let store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(summary.corrupt_segments, 1);
    assert_eq!(summary.journal_records, 1);
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "first\n")]);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn snapshot_newer_than_journal_skips_the_stale_records() {
    let root = temp_root("stale");
    // compact_every=2 → the batch end after the second append publishes
    // the node's checkpoint as a snapshot (covers 2) and resets the
    // journal.
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(2);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    for record in [full(1, 1, 1, "a\n"), full(1, 2, 1, "b\n"), full(1, 3, 1, "c\n")] {
        persist_batch(&mut node, &mut store, &[record]);
    }
    drop(store);

    // Simulate the crash window *between* snapshot publication and
    // journal reset: rebuild the journal as it looked before the
    // compaction (base 0, all three records), leaving the snapshot
    // (covers 2) in place. The record bytes come from a scratch store
    // that journals the same records without compacting.
    let journal = journal_path(&root, 1);
    let live = fs::read(&journal).unwrap();
    let mut stale = Vec::new();
    stale.extend_from_slice(&live[..8]);
    stale.extend_from_slice(&0u64.to_le_bytes());
    let scratch_root = temp_root("stale-scratch");
    let mut scratch = DurableStore::open(&scratch_root).unwrap();
    scratch.persist(&full(1, 1, 1, "a\n"));
    scratch.persist(&full(1, 2, 1, "b\n"));
    scratch.persist(&full(1, 3, 1, "c\n"));
    drop(scratch);
    let scratch_journal = fs::read(journal_path(&scratch_root, 1)).unwrap();
    stale.extend_from_slice(&scratch_journal[16..]);
    fs::write(&journal, &stale).unwrap();

    let store = DurableStore::open(&root).unwrap();
    let summary = store.summary();
    assert_eq!(summary.stale_skipped, 2, "snapshot already covered two records");
    assert_eq!(summary.snapshot_records, 2);
    assert_eq!(summary.journal_records, 1);
    assert_eq!(
        store.recovered(),
        vec![full(1, 1, 1, "a\n"), full(1, 2, 1, "b\n"), full(1, 3, 1, "c\n")]
    );
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&scratch_root);
}

#[test]
fn compaction_preserves_the_recovered_state() {
    let root = temp_root("compact");
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(4);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    let mut from = String::from("line 0\n");
    persist_batch(&mut node, &mut store, &[full(1, 1, 1, &from)]);
    for v in 2..=9u64 {
        let line = format!("line {}", v - 1);
        let to = format!("{from}{line}\n");
        let script = format!("{}a\n{line}\n.\nw\n", v - 1);
        persist_batch(&mut node, &mut store, &[delta(1, 1, v - 1, v, &script, &to)]);
        from = to;
    }
    let output = PersistRecord::Output {
        domain: DomainId::new(1),
        job_file: FileId::new(1),
        job: JobId::new(5),
        content: Bytes::from_static(b"output\n"),
    };
    let acked = PersistRecord::OutputAcked {
        domain: DomainId::new(1),
        job: JobId::new(5),
    };
    persist_batch(&mut node, &mut store, &[output.clone(), acked.clone()]);
    drop(store);

    let snapshot = root.join("domain-0000000000000001").join("snapshot.log");
    assert!(snapshot.exists(), "compaction published a snapshot");

    let store = DurableStore::open(&root).unwrap();
    assert!(!store.summary().degraded());
    assert_eq!(
        restored(&store).checkpoint(DomainId::new(1)),
        vec![full(1, 1, 9, &from), output, acked]
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn replaying_twice_rebuilds_identical_server_state() {
    let root = temp_root("idempotent");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "a\nb\n"));
    store.persist(&delta(1, 1, 1, 2, "2c\nc\n.\nw\n", "a\nc\n"));
    store.persist(&full(1, 2, 1, "other\n"));
    store.persist(&PersistRecord::Output {
        domain: DomainId::new(1),
        job_file: FileId::new(1),
        job: JobId::new(3),
        content: Bytes::from_static(b"out\n"),
    });
    drop(store);

    let restore_once = || {
        let store = DurableStore::open(&root).unwrap();
        let mut node = ServerNode::new(ServerConfig::new("remote"));
        let summary = node.restore(&store.recovered());
        assert_eq!(summary.skipped, 0);
        node
    };
    let a = restore_once();
    let b = restore_once();
    assert_eq!(
        a.report().section("server"),
        b.report().section("server"),
        "two recoveries must rebuild identical protocol state"
    );
    assert_eq!(a.report().section("cache"), b.report().section("cache"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn shard_stores_partition_the_domains() {
    let root = temp_root("shards");
    let shards = 2usize;
    let domains: Vec<u64> = (1..=6).collect();
    {
        let mut writers: Vec<DurableStore> = (0..shards)
            .map(|i| DurableStore::open_shard(&root, i, shards).unwrap())
            .collect();
        for &d in &domains {
            let record = full(d, 1, 1, "content\n");
            let shard = shard_for(DomainId::new(d), shards);
            writers[shard].persist(&record);
        }
    }
    let mut seen = Vec::new();
    for i in 0..shards {
        let store = DurableStore::open_shard(&root, i, shards).unwrap();
        for record in store.recovered() {
            assert_eq!(
                shard_for(record.domain(), shards),
                i,
                "a shard must only recover its own domains"
            );
            seen.push(record.domain().as_u64());
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, domains, "the shards together recover every domain");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn compaction_waits_for_the_end_of_the_batch() {
    // An update that evicts emits `[CacheRemove victim, CacheDelta key]`
    // as one batch. The compaction threshold falls on the removal, but
    // the node has already applied the delta by then: a snapshot taken
    // there would hold `key` at v2 while the journal after it still
    // carries the v1 -> v2 delta, which replay could not apply, so the
    // key would be lost. Compacting at the batch end keeps it.
    let root = temp_root("batch-end");
    let mut store = DurableStore::open(&root).unwrap().with_compact_every(3);
    let mut node = ServerNode::new(ServerConfig::new("remote"));
    persist_batch(&mut node, &mut store, &[full(1, 1, 1, "a\n")]);
    persist_batch(&mut node, &mut store, &[full(1, 2, 1, "victim\n")]);
    persist_batch(
        &mut node,
        &mut store,
        &[
            PersistRecord::CacheRemove { key: key(1, 2) },
            delta(1, 1, 1, 2, "1a\nb\n.\nw\n", "a\nb\n"),
        ],
    );
    drop(store);

    let store = DurableStore::open(&root).unwrap();
    assert_eq!(store.summary().snapshot_records, 1, "the snapshot covers the batch");
    assert_eq!(store.summary().journal_records, 0);
    let node = restored(&store);
    assert_eq!(node.cached_version(key(1, 1)), Some(VersionNumber::new(2)));
    assert_eq!(node.cached_version(key(1, 2)), None);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn recovered_records_are_released_by_the_first_append() {
    let root = temp_root("release");
    let mut store = DurableStore::open(&root).unwrap();
    store.persist(&full(1, 1, 1, "a\n"));
    drop(store);

    let mut store = DurableStore::open(&root).unwrap();
    assert_eq!(store.recovered(), vec![full(1, 1, 1, "a\n")]);
    store.persist(&full(1, 2, 1, "b\n"));
    assert!(store.recovered().is_empty(), "the node holds the state now");
    let _ = fs::remove_dir_all(&root);
}

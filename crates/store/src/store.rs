//! The durable store: per-domain journals, snapshot compaction,
//! startup recovery.
//!
//! The store is a log. It appends records and reads them back; it never
//! applies them. Snapshots come from the server node itself
//! (`ServerNode::checkpoint`, handed in through
//! [`PersistSink::end_batch`]), and recovery returns raw records for
//! `ServerNode::restore` to replay.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use shadow_obs::Section;
use shadow_proto::{DomainId, PersistRecord};
use shadow_runtime::{shard_for, PersistSink};

use crate::segment::{read_segment, write_segment, Damage, JOURNAL_MAGIC, SNAPSHOT_MAGIC};

/// Journal file name inside a domain directory.
const JOURNAL_FILE: &str = "journal.log";
/// Snapshot file name inside a domain directory.
const SNAPSHOT_FILE: &str = "snapshot.log";
/// Appends per domain between snapshot compactions, unless overridden
/// with [`DurableStore::with_compact_every`].
pub const DEFAULT_COMPACT_EVERY: usize = 64;

/// What startup recovery found (and had to give up on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Domain directories recovered (after shard filtering).
    pub domains: usize,
    /// Records replayed from snapshots.
    pub snapshot_records: usize,
    /// Fresh records replayed from journals.
    pub journal_records: usize,
    /// Journal records skipped because the snapshot already covered
    /// them (a crash landed between snapshot publication and journal
    /// reset).
    pub stale_skipped: usize,
    /// Segments whose last record was torn mid-write and truncated away.
    pub torn_tails: usize,
    /// Segments cut short by a checksum or decode failure.
    pub corrupt_segments: usize,
    /// Records dropped during replay (broken delta chains). The store
    /// does not replay, so it leaves this at 0; the deployment fills it
    /// from `RestoreSummary::skipped` once the node has replayed.
    pub dropped_records: usize,
}

impl RecoverySummary {
    /// Total records salvaged for replay.
    pub fn replayed(&self) -> usize {
        self.snapshot_records + self.journal_records
    }

    /// True when recovery lost *anything* — the store degraded rather
    /// than failed, but the operator should know.
    pub fn degraded(&self) -> bool {
        self.torn_tails + self.corrupt_segments + self.dropped_records > 0
    }
}

/// One domain's journal: its directory, append handle and counters.
#[derive(Debug)]
struct DomainStore {
    dir: PathBuf,
    /// Append handle for `journal.log`; reopened lazily after
    /// compaction replaces the file.
    appender: Option<File>,
    /// Monotonic count of records ever journaled for this domain; the
    /// basis for snapshot `covers` / journal `base` headers.
    seq: u64,
    /// Appends since the last compaction.
    since_compact: usize,
}

impl DomainStore {
    fn new(dir: PathBuf, seq: u64) -> Self {
        DomainStore {
            dir,
            appender: None,
            seq,
            since_compact: 0,
        }
    }
}

/// The durable shadow store behind one server (or one shard).
///
/// Layout under `root`:
///
/// ```text
/// <root>/domain-<016x>/journal.log    append-only record frames
/// <root>/domain-<016x>/snapshot.log   compacted equivalent state
/// ```
///
/// The store is a [`PersistSink`]: the runtime hands it every
/// `ServerAction::Persist` record and it appends the record to the
/// owning domain's journal. Once a domain has taken
/// [`DEFAULT_COMPACT_EVERY`] appends, the next
/// [`end_batch`](PersistSink::end_batch) writes the node's checkpoint of
/// that domain as its snapshot and empties the journal. Opening the
/// store reads snapshot + journal back; [`recovered`](Self::recovered)
/// hands those raw records to `ServerNode::restore`, and the store drops
/// its copy at the first append.
///
/// Sharded deployments open one store *per shard* over the same root:
/// [`open_shard`](Self::open_shard) recovers only the domains
/// [`shard_for`] assigns to that shard, so journals shard with exactly
/// the same domain affinity as the server runtime and no file is ever
/// shared between threads.
#[derive(Debug)]
pub struct DurableStore {
    root: PathBuf,
    shard_index: usize,
    shard_count: usize,
    compact_every: usize,
    domains: HashMap<DomainId, DomainStore>,
    /// Domains whose journal reached `compact_every` appends; the next
    /// batch end snapshots them.
    due: Vec<DomainId>,
    /// Salvaged records awaiting `ServerNode::restore`, domains in id
    /// order; released at the first append.
    recovered: Vec<PersistRecord>,
    summary: RecoverySummary,
    appends: u64,
    appended_bytes: u64,
    compactions: u64,
    io_errors: u64,
}

fn domain_dir_name(domain: DomainId) -> String {
    format!("domain-{:016x}", domain.as_u64())
}

fn parse_domain_dir(name: &str) -> Option<DomainId> {
    let hex = name.strip_prefix("domain-")?;
    u64::from_str_radix(hex, 16).ok().map(DomainId::new)
}

impl DurableStore {
    /// Opens (creating if needed) the store for a single-server
    /// deployment, recovering every domain under `root`.
    ///
    /// # Errors
    ///
    /// I/O failures creating or scanning the root. Damaged segment
    /// *content* is never an error — it is truncated away and counted
    /// in the [`RecoverySummary`].
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_shard(root, 0, 1)
    }

    /// Opens the store for shard `shard_index` of `shard_count`,
    /// recovering only the domains that shard owns.
    ///
    /// # Errors
    ///
    /// See [`open`](Self::open).
    pub fn open_shard(
        root: impl Into<PathBuf>,
        shard_index: usize,
        shard_count: usize,
    ) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut store = DurableStore {
            root,
            shard_index,
            shard_count: shard_count.max(1),
            compact_every: DEFAULT_COMPACT_EVERY,
            domains: HashMap::new(),
            due: Vec::new(),
            recovered: Vec::new(),
            summary: RecoverySummary::default(),
            appends: 0,
            appended_bytes: 0,
            compactions: 0,
            io_errors: 0,
        };
        let mut salvaged = Vec::new();
        for entry in fs::read_dir(store.root.clone())? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(domain) = entry.file_name().to_str().and_then(parse_domain_dir) else {
                continue;
            };
            if shard_for(domain, store.shard_count) != store.shard_index {
                continue;
            }
            let records = store.recover_domain(domain, entry.path())?;
            salvaged.push((domain, records));
        }
        salvaged.sort_unstable_by_key(|(domain, _)| *domain);
        store.recovered = salvaged.into_iter().flat_map(|(_, r)| r).collect();
        store.summary.domains = store.domains.len();
        Ok(store)
    }

    /// Overrides the per-domain compaction interval (appends between
    /// snapshots). Clamped to at least 1.
    pub fn with_compact_every(mut self, every: usize) -> Self {
        self.compact_every = every.max(1);
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `(shard_index, shard_count)` this store recovers and journals for.
    pub fn shard(&self) -> (usize, usize) {
        (self.shard_index, self.shard_count)
    }

    /// What recovery found when the store was opened.
    pub fn summary(&self) -> RecoverySummary {
        self.summary
    }

    /// The records salvaged at open time, unapplied, to feed
    /// `ServerNode::restore`: domains in id order, each as its snapshot
    /// followed by the journal records the snapshot does not cover.
    /// Empty once the store has appended anything — the store releases
    /// them then, so it holds no cache content while serving.
    pub fn recovered(&self) -> Vec<PersistRecord> {
        self.recovered.clone()
    }

    /// The store's report section: recovery outcome plus live append /
    /// compaction counters.
    pub fn section(&self) -> Section {
        Section::new("store")
            .with("domains", self.domains.len())
            .with("recovered_records", self.summary.replayed())
            .with("stale_skipped", self.summary.stale_skipped)
            .with("torn_tails", self.summary.torn_tails)
            .with("corrupt_segments", self.summary.corrupt_segments)
            .with("appends", self.appends)
            .with("appended_bytes", self.appended_bytes)
            .with("compactions", self.compactions)
            .with("io_errors", self.io_errors)
    }

    /// Reads one domain directory back: the snapshot first, then the
    /// journal records the snapshot does not already cover. Any damage
    /// (torn tail, corruption, an interrupted compaction) is repaired by
    /// rewriting the salvaged records as a fresh snapshot + empty
    /// journal, so the next open starts clean. Returns the salvaged
    /// records.
    fn recover_domain(
        &mut self,
        domain: DomainId,
        dir: PathBuf,
    ) -> io::Result<Vec<PersistRecord>> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join(JOURNAL_FILE);
        let mut records = Vec::new();
        let mut covers = 0u64;
        let mut damaged = false;

        if let Some(seg) = read_segment(&snapshot_path, SNAPSHOT_MAGIC)? {
            // A damaged snapshot no longer covers what its header
            // claims; trusting `covers` would skip journal records that
            // are now the only copy. Degrade to replaying the journal
            // in full.
            if self.count_damage(seg.damage) {
                damaged = true;
            } else {
                covers = seg.seq;
            }
            self.summary.snapshot_records += seg.records.len();
            records = seg.records;
        }

        let mut base = 0u64;
        let mut journal_total = 0u64;
        let mut stale = 0usize;
        if let Some(mut seg) = read_segment(&journal_path, JOURNAL_MAGIC)? {
            damaged |= self.count_damage(seg.damage);
            base = seg.seq;
            journal_total = seg.records.len() as u64;
            stale = usize::try_from(covers.saturating_sub(base).min(journal_total))
                .expect("journal record count fits usize");
            self.summary.stale_skipped += stale;
            self.summary.journal_records += seg.records.len() - stale;
            records.extend(seg.records.drain(stale..));
        }

        let seq = covers.max(base + journal_total);
        if damaged || stale > 0 {
            // The salvaged prefix is no longer what the files say;
            // rewrite it before serving so a second crash cannot lose
            // it again.
            write_segment(&snapshot_path, SNAPSHOT_MAGIC, seq, &records)?;
            write_segment(&journal_path, JOURNAL_MAGIC, seq, &[])?;
        }
        self.domains.insert(domain, DomainStore::new(dir, seq));
        Ok(records)
    }

    /// Counts a segment's damage in the summary; true when it had any.
    fn count_damage(&mut self, damage: Damage) -> bool {
        match damage {
            Damage::None => return false,
            Damage::Torn => self.summary.torn_tails += 1,
            Damage::Corrupt => self.summary.corrupt_segments += 1,
        }
        true
    }

    fn append(&mut self, domain: DomainId, record: &PersistRecord) -> io::Result<()> {
        if !self.domains.contains_key(&domain) {
            let dir = self.root.join(domain_dir_name(domain));
            fs::create_dir_all(&dir)?;
            self.domains.insert(domain, DomainStore::new(dir, 0));
        }
        let compact_every = self.compact_every;
        let ds = self.domains.get_mut(&domain).expect("domain just ensured");
        if ds.appender.is_none() {
            let journal = ds.dir.join(JOURNAL_FILE);
            if !journal.exists() {
                write_segment(&journal, JOURNAL_MAGIC, ds.seq, &[])?;
            }
            ds.appender = Some(OpenOptions::new().append(true).open(&journal)?);
        }
        let mut buf = Vec::new();
        crate::segment::encode_record(record, &mut buf);
        ds.appender
            .as_mut()
            .expect("appender just opened")
            .write_all(&buf)?;
        ds.seq += 1;
        ds.since_compact += 1;
        if ds.since_compact == compact_every {
            self.due.push(domain);
        }
        self.appends += 1;
        self.appended_bytes += buf.len() as u64;
        Ok(())
    }

    /// Publishes `checkpoint` — the node's state of `domain`, covering
    /// every record appended so far — as the snapshot, then resets the
    /// journal. The order is the crash-consistency argument: after the
    /// snapshot rename lands, the journal's records are *stale* (its
    /// `base` is below the snapshot's `covers`), and recovery skips
    /// them; if the crash hits before the rename, the old snapshot +
    /// full journal still replay everything.
    fn compact_domain(&mut self, domain: DomainId, checkpoint: &[PersistRecord]) -> io::Result<()> {
        let ds = self.domains.get_mut(&domain).expect("compacting known domain");
        write_segment(&ds.dir.join(SNAPSHOT_FILE), SNAPSHOT_MAGIC, ds.seq, checkpoint)?;
        // The rewrite replaces the journal's inode; drop the handle so
        // the next append reopens the fresh file.
        ds.appender = None;
        write_segment(&ds.dir.join(JOURNAL_FILE), JOURNAL_MAGIC, ds.seq, &[])?;
        ds.since_compact = 0;
        self.compactions += 1;
        Ok(())
    }
}

impl PersistSink for DurableStore {
    fn report_section(&self) -> Option<Section> {
        Some(self.section())
    }

    /// Journals one record. Infallible by contract: an I/O failure
    /// degrades (the record is dropped and counted in `io_errors`)
    /// rather than poisoning the poll loop — durability is
    /// best-effort, correctness never depends on it.
    fn persist(&mut self, record: &PersistRecord) {
        // The node has replayed the salvage by now (it is restored
        // before serving), so the store's copy can go.
        self.recovered = Vec::new();
        let domain = record.domain();
        if self.append(domain, record).is_err() {
            self.io_errors += 1;
            // Drop a possibly half-written handle; the next append
            // reopens (and the valid-prefix reader bounds the damage).
            if let Some(ds) = self.domains.get_mut(&domain) {
                ds.appender = None;
            }
        }
    }

    /// Snapshots every domain that reached the compaction interval,
    /// from the node's checkpoint. A failed compaction is counted in
    /// `io_errors` and retried at the next batch end; the journal still
    /// holds everything meanwhile.
    fn end_batch(&mut self, state: &dyn Fn(DomainId) -> Vec<PersistRecord>) {
        for domain in std::mem::take(&mut self.due) {
            if self.compact_domain(domain, &state(domain)).is_err() {
                self.io_errors += 1;
                self.due.push(domain);
            }
        }
    }
}

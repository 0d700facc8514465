//! Seeded inputs for the three workloads.
//!
//! Everything a workload feeds the service is derived from the run's
//! seed and the client index, so a client's sequence of cycles is the
//! same however the two clients interleave: its files, which file each
//! cycle touches, and every edit. The service only ever sees the
//! resulting file contents.

use shadow::{exec, generate_file, EditModel, FileId, FileRef, FileSpec};

/// Clients in every workload, each with its own naming domain and TCP
/// connection.
pub const CLIENTS: usize = 2;

/// Fraction of a text file's bytes one edit changes.
const TEXT_EDIT_FRACTION: f64 = 0.005;
/// Bytes one blob edit splices in.
const BLOB_SPLICE: usize = 1024;
/// Size of each blob file.
const BLOB_LEN: usize = 8 << 20;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Line-structured text, one 0.5 % scattered edit per cycle, `wc` +
    /// `cat`, durable store.
    TextCycle,
    /// Two 8 MiB blobs (binary, single-line printable), a 1 KiB splice
    /// per cycle, `wc`, durable store.
    BlobCycle,
    /// Sixteen text files against a cache of half the working set;
    /// three cycles in four rerun `wc` over unchanged inputs; diskless.
    RerunMixed,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TextCycle,
        Workload::BlobCycle,
        Workload::RerunMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TextCycle => "text_cycle",
            Workload::BlobCycle => "blob_cycle",
            Workload::RerunMixed => "rerun_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether jobs ask for reverse shadow processing (output deltas).
    /// `rerun_mixed` does not: its skewed revisits would hit the output
    /// retention defect described in README.md.
    pub fn shadow_output(self) -> bool {
        !matches!(self, Workload::RerunMixed)
    }

    /// Whether the server's cache is smaller than the working set. Then
    /// a file can be evicted between the server's delta pull and the
    /// delta's arrival, and the update fails over to a full transfer
    /// (see README.md, "Eviction race").
    pub fn evicts(self) -> bool {
        matches!(self, Workload::RerunMixed)
    }

    /// Whether the server journals to the durable store.
    pub fn durable(self) -> bool {
        !matches!(self, Workload::RerunMixed)
    }

    /// The shadow-cache budget: the 64 MiB default, except for
    /// `rerun_mixed`, whose cache holds half of both clients' files.
    pub fn cache_budget(self) -> usize {
        match self {
            Workload::RerunMixed => CLIENTS * data_sizes(self).iter().sum::<usize>() / 2,
            _ => 64 << 20,
        }
    }

    /// Warm-up cycles per client before measuring: one pass over the
    /// files, so every output shadow and delta base is in place.
    pub fn warmup_cycles(self) -> u64 {
        data_sizes(self).len() as u64 / 2
    }

    /// Bytes the user changes in one edit of a `len`-byte file.
    pub fn user_bytes(self, len: usize) -> u64 {
        match self {
            Workload::BlobCycle => BLOB_SPLICE as u64,
            _ => ((len as f64) * TEXT_EDIT_FRACTION).round() as u64,
        }
    }
}

/// Data-file sizes per client.
fn data_sizes(workload: Workload) -> Vec<usize> {
    match workload {
        Workload::TextCycle => vec![
            16_000, 16_000, 64_000, 64_000, 256_000, 256_000, 1_000_000, 1_000_000,
        ],
        Workload::BlobCycle => vec![BLOB_LEN, BLOB_LEN],
        // Sixteen sizes spaced evenly from 16 KB to 1 MB.
        Workload::RerunMixed => (0..16).map(|i| 16_000 + i * 65_600).collect(),
    }
}

/// Recency positions one block of sixteen `rerun_mixed` cycles picks,
/// in a seeded order: ten times one of the four most recently used
/// files, six times the least recently used one. A fixed mix per block
/// keeps the hit rate independent of the seed. Taking the deep picks from
/// the end of the list sweeps them through every file, so the sizes of
/// the files that miss average out within a run. The mix keeps clear of
/// half slow cycles (edits and misses), where the median would jump
/// between the hit and the miss latency from run to run.
const RERUN_POSITIONS: [usize; 16] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 15, 15, 15, 15, 15, 15];

/// splitmix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one client of one run.
    pub fn new(seed: u64, client: usize, purpose: u64) -> Self {
        let mut r = Rng(seed ^ 0x5EED_0000_0000_0000);
        r.0 ^= r
            .next_u64()
            .wrapping_add(client as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        r.0 ^= r.next_u64().wrapping_add(purpose);
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One data file, its job file, and the generator's copy of its content.
#[derive(Debug, Clone)]
pub struct FileState {
    /// The data file.
    pub data: FileRef,
    /// The job command file that reads it.
    pub job: FileRef,
    /// The job command file's content.
    pub job_text: Vec<u8>,
    /// The data file's current content.
    pub content: Vec<u8>,
}

/// What one cycle does.
#[derive(Debug)]
pub struct Plan {
    /// Index of the file whose job runs.
    pub file: usize,
    /// The content before this cycle's edit, or `None` for a rerun over
    /// unchanged inputs. The new content is `files[file].content`.
    pub old: Option<Vec<u8>>,
}

/// One client's files and cycle sequence.
#[derive(Debug, Clone)]
pub struct ClientGen {
    workload: Workload,
    files: Vec<FileState>,
    rng: Rng,
    cycle: u64,
    /// File indices, most recently used first (`rerun_mixed`).
    recency: Vec<usize>,
    /// Recency positions left in the current block (`rerun_mixed`).
    block: Vec<usize>,
    /// Which cycle of the current group of four edits (`rerun_mixed`).
    edit_slot: u64,
}

impl ClientGen {
    /// Generates client `client`'s files for `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let mut content_rng = Rng::new(seed, client, 1);
        let files: Vec<FileState> = data_sizes(workload)
            .into_iter()
            .enumerate()
            .map(|(i, size)| {
                let file_seed = content_rng.next_u64();
                let content = match workload {
                    Workload::BlobCycle => shadow_bench::blob_pair(size, i == 0, file_seed).0,
                    _ => generate_file(&FileSpec::new(size, file_seed)),
                };
                let name = format!("ws{client}:/data{i:02}");
                let job_text = match workload {
                    Workload::TextCycle => format!("wc {name}\ncat {name}\n"),
                    Workload::BlobCycle | Workload::RerunMixed => format!("wc {name}\n"),
                };
                let id = 2 * i as u64;
                FileState {
                    data: FileRef::new(FileId::new(id + 1), name),
                    job: FileRef::new(FileId::new(id + 2), format!("ws{client}:/job{i:02}")),
                    job_text: job_text.into_bytes(),
                    content,
                }
            })
            .collect();
        let rng = Rng::new(seed, client, 2);
        // Largest and smallest alternate down the initial recency list, so
        // the first hot set mixes sizes whatever the seed.
        let n = files.len();
        let recency: Vec<usize> = (0..n)
            .map(|i| if i % 2 == 0 { n - 1 - i / 2 } else { i / 2 })
            .collect();
        ClientGen {
            workload,
            files,
            rng,
            cycle: 0,
            recency,
            block: Vec::new(),
            edit_slot: 0,
        }
    }

    /// The workload generated.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The files, with their current contents.
    pub fn files(&self) -> &[FileState] {
        &self.files
    }

    /// Advances to the next cycle, applying its edit (if any) to the
    /// generator's copy.
    pub fn next_plan(&mut self) -> Plan {
        let cycle = self.cycle;
        self.cycle += 1;
        let (file, edit) = match self.workload {
            Workload::TextCycle | Workload::BlobCycle => {
                ((cycle % self.files.len() as u64) as usize, true)
            }
            Workload::RerunMixed => {
                if self.block.is_empty() {
                    self.block = RERUN_POSITIONS.to_vec();
                    self.rng.shuffle(&mut self.block);
                }
                if cycle.is_multiple_of(4) {
                    self.edit_slot = self.rng.below(4);
                }
                let pos = self.block.pop().expect("refilled above");
                let file = self.recency.remove(pos);
                self.recency.insert(0, file);
                (file, cycle % 4 == self.edit_slot)
            }
        };
        if !edit {
            return Plan { file, old: None };
        }
        let old = &self.files[file].content;
        let new = match self.workload {
            Workload::BlobCycle => {
                let mut new = old.clone();
                let at = self.rng.below((old.len() - BLOB_SPLICE) as u64) as usize;
                let printable = file != 0;
                for b in &mut new[at..at + BLOB_SPLICE] {
                    let r = self.rng.next_u64() as u8;
                    *b = if printable { b' ' + r % 94 } else { r };
                }
                new
            }
            _ => EditModel::fraction(TEXT_EDIT_FRACTION, self.rng.next_u64()).apply(old),
        };
        let old = std::mem::replace(&mut self.files[file].content, new);
        Plan {
            file,
            old: Some(old),
        }
    }

    /// What the job of file `file` must print, computed by the service's
    /// own interpreter over the generator's copy of the inputs.
    pub fn expected_output(&self, file: usize) -> exec::ExecOutcome {
        exec::run_job(&self.files[file].job_text, &|name| {
            self.files
                .iter()
                .find(|f| f.data.name == name)
                .map(|f| f.content.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn rerun_cache_holds_half_the_working_set() {
        let total: usize = data_sizes(Workload::RerunMixed).iter().sum::<usize>() * CLIENTS;
        assert_eq!(Workload::RerunMixed.cache_budget(), total / 2);
        let sizes = data_sizes(Workload::RerunMixed);
        assert_eq!((sizes[0], sizes[15]), (16_000, 1_000_000));
    }

    #[test]
    fn blob_edits_keep_the_shape() {
        let mut gen = ClientGen::new(Workload::BlobCycle, 3, 0);
        for _ in 0..4 {
            let plan = gen.next_plan();
            let old = plan.old.expect("every blob cycle edits");
            let new = &gen.files()[plan.file].content;
            assert_eq!(old.len(), new.len());
            let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
            assert!(changed > 0 && changed <= BLOB_SPLICE);
            if plan.file == 1 {
                assert!(new.iter().all(|b| (b' '..=b'~').contains(b)));
            }
        }
    }

    #[test]
    fn rerun_mixed_edits_one_cycle_in_four() {
        let mut gen = ClientGen::new(Workload::RerunMixed, 5, 1);
        let edits = (0..400).filter(|_| gen.next_plan().old.is_some()).count();
        assert_eq!(edits, 100);
    }
}

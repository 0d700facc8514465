//! The call-graph analysis must hold on the repository itself — and
//! each rule must actually fire when a violation is planted, either in
//! a synthetic workspace (across file and crate boundaries) or injected
//! into a copy of the real crates.

use std::fs;
use std::path::{Path, PathBuf};

use shadow_check::analyze;
use shadow_check::analyze::graph::load_workspace;
use shadow_check::analyze::rules::{PURE_CRATES, SANS_IO_CRATES};
use shadow_check::AnalysisFinding;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/check sits two levels below the root")
        .to_path_buf()
}

/// Builds a throwaway workspace under the cargo-managed temp dir and
/// returns its root. `files` are `(relative path, contents)` pairs.
fn temp_workspace(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale temp workspace removable");
    }
    for (rel, text) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents")).unwrap();
        fs::write(&path, text).unwrap();
    }
    root
}

/// Copies `Cargo.toml`, `src/` and `tests/` of each named real crate
/// into a fresh temp workspace and returns its root.
fn copy_crates(name: &str, crates: &[&str]) -> PathBuf {
    fn copy_dir(from: &Path, to: &Path) {
        if !from.is_dir() {
            return;
        }
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            let dest = to.join(path.file_name().unwrap());
            if path.is_dir() {
                copy_dir(&path, &dest);
            } else {
                fs::copy(&path, &dest).unwrap();
            }
        }
    }
    let root = temp_workspace(name, &[]);
    for krate in crates {
        let (from, to) = (repo_root().join("crates").join(krate), root.join("crates").join(krate));
        copy_dir(&from.join("src"), &to.join("src"));
        copy_dir(&from.join("tests"), &to.join("tests"));
        fs::copy(from.join("Cargo.toml"), to.join("Cargo.toml")).unwrap();
    }
    root
}

/// Rewrites `rel` under `root`: inserts `code` right after the first
/// `anchor`, which must exist.
fn inject(root: &Path, rel: &str, anchor: &str, code: &str) {
    let path = root.join(rel);
    let text = fs::read_to_string(&path).unwrap();
    let at = text.find(anchor).unwrap_or_else(|| panic!("{anchor:?} not in {rel}")) + anchor.len();
    fs::write(&path, format!("{}{code}{}", &text[..at], &text[at..])).unwrap();
}

/// Appends `code` to `rel` under `root`.
fn append(root: &Path, rel: &str, code: &str) {
    let path = root.join(rel);
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, format!("{text}\n{code}\n")).unwrap();
}

fn fact_fns(findings: &[AnalysisFinding]) -> Vec<&str> {
    let mut v: Vec<&str> = findings.iter().map(|f| f.fact_fn.as_str()).collect();
    v.sort_unstable();
    v
}

fn rule_findings(root: &Path, rule: &str) -> Vec<AnalysisFinding> {
    let (findings, _) = analyze(root).expect("sources readable");
    findings.into_iter().filter(|f| f.rule == rule).collect()
}

/// `shadow-check analyze` passes on main with no baseline: no panic
/// reachable from the wire decoder, no allocation from the diff hot
/// path, no clock read from a pure crate, no blocking shard poll.
#[test]
fn workspace_analysis_is_clean() {
    let (findings, stats) = analyze(&repo_root()).expect("sources readable");
    assert!(
        findings.is_empty(),
        "analysis findings on the repository:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(stats.files > 50, "walked {} files", stats.files);
    assert!(stats.edges > 500, "resolved {} edges", stats.edges);
}

/// The workspace is clean *and* every guard is armed on it: each named
/// entry point of the decode and diff-hot-path rules resolves to a real
/// function (a rule reports missing entries only when all of them are
/// gone), and every crate a crate-wide rule covers has functions.
#[test]
fn workspace_is_clean_with_every_guard_armed() {
    let root = repo_root();
    let ws = load_workspace(&root).expect("sources readable");
    let entries = [
        ("proto", Some("Frame"), "decode"),
        ("proto", Some("ClientMessage"), "decode_body"),
        ("proto", Some("ServerMessage"), "decode_body"),
        ("diff", None, "diff_docs"),
        ("diff", None, "apply_delta"),
        ("diff", None, "chunk_delta_into"),
        ("diff", None, "apply_chunk_delta"),
    ];
    for (krate, owner, name) in entries {
        assert!(!ws.find(krate, owner, name).is_empty(), "entry {krate}::{owner:?}::{name} not found");
    }
    for krate in SANS_IO_CRATES.iter().chain(PURE_CRATES) {
        assert!((0..ws.fns.len()).any(|id| ws.item(id).krate == *krate), "no fns in {krate}");
    }
    let (findings, stats) = analyze(&root).expect("sources readable");
    assert!(findings.is_empty(), "{} findings on the repository", findings.len());
    // Clean because the facts sit outside the guarded reach, not
    // because none were seen: the runtime clock alone reads wall time.
    assert!(stats.facts > 0);
}

/// A panicking helper two calls below `Frame::decode`, in a *different
/// crate*, is caught by the transitive rule.
#[test]
fn planted_panic_two_calls_below_decode_across_crates_fires() {
    let root = temp_workspace(
        "analyze_panic",
        &[
            (
                "crates/proto/Cargo.toml",
                "[package]\nname = \"shadow-proto\"\n\n[dependencies]\nshadow-util = { workspace = true }\n",
            ),
            (
                "crates/proto/src/wire.rs",
                "pub struct Frame;\nimpl Frame {\n    pub fn decode(b: &[u8]) -> u8 {\n        crate::helper::step(b)\n    }\n}\n",
            ),
            (
                "crates/proto/src/helper.rs",
                "pub fn step(b: &[u8]) -> u8 {\n    shadow_util::boom(b)\n}\n",
            ),
            ("crates/util/Cargo.toml", "[package]\nname = \"shadow-util\"\n"),
            (
                "crates/util/src/lib.rs",
                "pub fn boom(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "panic-reach");
    assert_eq!(f.len(), 1, "exactly the planted chain: {f:?}");
    assert_eq!(f[0].entry, "proto::wire::Frame::decode");
    assert_eq!(f[0].fact_fn, "util::boom");
    assert_eq!(f[0].token, ".unwrap(");
    // Chain steps carry call-site annotations ("qual (call at line N)");
    // the qualified names prove the file- and crate-boundary crossings.
    let hops = ["proto::wire::Frame::decode", "proto::helper::step", "util::boom"];
    assert_eq!(f[0].chain.len(), hops.len(), "{:?}", f[0].chain);
    for (step, hop) in f[0].chain.iter().zip(hops) {
        assert!(step.starts_with(hop), "{step:?} should start with {hop:?}");
    }
    assert!(f[0].file.ends_with("crates/util/src/lib.rs"));
}

/// An allocation below `diff_docs` in another file fires; the same
/// allocation inside the shim file is the allowlisted budget.
#[test]
fn planted_alloc_below_diff_docs_fires_outside_the_shim() {
    let root = temp_workspace(
        "analyze_alloc",
        &[
            (
                "crates/diff/src/lib.rs",
                "pub fn diff_docs(n: u32) -> usize {\n    crate::inner::fill(n) + crate::shim::budget(n)\n}\n",
            ),
            (
                "crates/diff/src/inner.rs",
                "pub fn fill(n: u32) -> usize {\n    format!(\"{n}\").len()\n}\n",
            ),
            (
                "crates/diff/src/shim.rs",
                "pub fn budget(n: u32) -> usize {\n    format!(\"{n}\").len()\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "alloc-reach");
    assert_eq!(f.len(), 1, "only the non-shim chain: {f:?}");
    assert_eq!(f[0].entry, "diff::diff_docs");
    assert_eq!(f[0].fact_fn, "diff::inner::fill");
    assert_eq!(f[0].token, "format!");
}

/// A wall-clock read buried below a pure crate's public fn fires, even
/// when the file holding the clock read is not public API itself.
#[test]
fn planted_clock_read_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_clock",
        &[
            (
                "crates/version/src/lib.rs",
                "mod clockish;\npub fn stamp() -> u64 {\n    crate::clockish::read()\n}\n",
            ),
            (
                "crates/version/src/clockish.rs",
                "pub(crate) fn read() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "clock-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "version::stamp");
    assert_eq!(f[0].fact_fn, "version::clockish::read");
    assert_eq!(f[0].token, "Instant::now");
}

/// A filesystem call buried below a pure crate's public fn fires: the
/// sans-io discipline says the server *emits* persistence records and
/// only the runtime's sink touches disk.
#[test]
fn planted_fs_access_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_fs",
        &[
            (
                "crates/server/src/lib.rs",
                "mod spill;\npub fn submit(p: &str) -> usize {\n    crate::spill::to_disk(p)\n}\n",
            ),
            (
                "crates/server/src/spill.rs",
                "pub(crate) fn to_disk(p: &str) -> usize {\n    fs::write(p, b\"x\").is_ok() as usize\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "fs-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "server::submit");
    assert_eq!(f[0].fact_fn, "server::spill::to_disk");
    assert_eq!(f[0].token, "fs::");
}

/// A socket dial buried below a pure crate's public fn fires: the
/// protocol cores model disconnects as plain state transitions
/// (`LinkDown`/`Resume`); sockets belong to the transports and the
/// reconnect supervisor, never to the sans-io state machines.
#[test]
fn planted_net_access_below_pure_public_fn_fires() {
    let root = temp_workspace(
        "analyze_net",
        &[
            (
                "crates/client/src/lib.rs",
                "mod dialer;\npub fn reconnect(a: &str) -> bool {\n    crate::dialer::dial(a)\n}\n",
            ),
            (
                "crates/client/src/dialer.rs",
                "pub(crate) fn dial(a: &str) -> bool {\n    std::net::TcpStream::connect(a).is_ok()\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "net-reach");
    assert!(!f.is_empty(), "planted socket dial must be found");
    assert!(f.iter().any(|f| f.entry == "client::reconnect"
        && f.fact_fn == "client::dialer::dial"));
}

/// A blocking receive below the server poll loop — behind one hop of
/// indirection in another file — fires the shard-shape rule.
#[test]
fn planted_blocking_call_below_poll_once_fires() {
    let root = temp_workspace(
        "analyze_blocking",
        &[
            (
                "crates/runtime/src/server_runtime.rs",
                "pub struct ServerRuntime;\nimpl ServerRuntime {\n    pub fn poll_once(&self) {\n        crate::pump::drain(self)\n    }\n}\n",
            ),
            (
                "crates/runtime/src/pump.rs",
                "pub fn drain(r: &super::server_runtime::ServerRuntime) {\n    let _ = r.rx.recv();\n}\n",
            ),
        ],
    );
    let f = rule_findings(&root, "shard-shape");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(
        f[0].entry,
        "runtime::server_runtime::ServerRuntime::poll_once"
    );
    assert_eq!(f[0].fact_fn, "runtime::pump::drain");
    assert_eq!(f[0].token, ".recv()");
}

/// The same planted panic chain is invisible when the caller's manifest
/// does not depend on the crate holding the panic — the dependency
/// filter prunes impossible dispatch instead of reporting noise.
#[test]
fn undeclared_dependency_suppresses_the_cross_crate_chain() {
    let root = temp_workspace(
        "analyze_depfilter",
        &[
            (
                "crates/proto/Cargo.toml",
                "[package]\nname = \"shadow-proto\"\n\n[dependencies]\n",
            ),
            (
                "crates/proto/src/wire.rs",
                "pub struct Frame;\nimpl Frame {\n    pub fn decode(b: &[u8]) -> u8 {\n        boom(b)\n    }\n}\nfn unrelated() {}\n",
            ),
            ("crates/util/Cargo.toml", "[package]\nname = \"shadow-util\"\n"),
            (
                "crates/util/src/lib.rs",
                "pub fn boom(v: &[u8]) -> u8 {\n    v.first().copied().unwrap()\n}\n",
            ),
        ],
    );
    assert!(
        rule_findings(&root, "panic-reach").is_empty(),
        "proto declares no dependency on util, so the name-match edge \
         cannot be real dispatch"
    );
}

/// A wall-clock read fires in a private fn and in a trait-impl method of
/// a pure crate, in `runtime` outside `clock.rs`, and in `obs`; the real
/// `clock.rs`, which reads `Instant::now`, stays clean.
#[test]
fn injected_wall_clock_reads_fire_everywhere_but_clock_rs() {
    let root = copy_crates("inject_clock", &["client", "runtime", "obs"]);
    assert!(rule_findings(&root, "clock-reach").is_empty(), "clean before injection");
    append(
        &root,
        "crates/client/src/node.rs",
        "fn stamp_ms() -> u64 { let _ = std::time::Instant::now(); 0 }\n\
         struct Stamp;\n\
         impl std::fmt::Display for Stamp {\n    \
             fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        \
                 write!(f, \"{:?}\", std::time::SystemTime::now())\n    }\n}",
    );
    append(
        &root,
        "crates/runtime/src/shard.rs",
        "fn nap_deadline() -> u64 { let _ = std::time::Instant::now(); 0 }",
    );
    append(
        &root,
        "crates/obs/src/metrics.rs",
        "fn sample_now() -> u64 { let _ = std::time::Instant::now(); 0 }",
    );
    let f = rule_findings(&root, "clock-reach");
    assert_eq!(
        fact_fns(&f),
        vec![
            "client::node::Stamp::fmt",
            "client::node::stamp_ms",
            "obs::metrics::sample_now",
            "runtime::shard::nap_deadline",
        ],
        "{f:?}"
    );
    assert!(f.iter().all(|f| !f.file.ends_with("clock.rs")));
}

/// Re-introducing the pre-hardening indexing pattern into
/// `Frame::decode` fires, and so does an `.unwrap()` in the cursor every
/// message decoder reads through.
#[test]
fn injected_decode_unwrap_and_indexing_fire() {
    let root = copy_crates("inject_decode_index", &["proto"]);
    assert!(rule_findings(&root, "panic-reach").is_empty(), "clean before injection");
    let wire = root.join("crates/proto/src/wire.rs");
    let clean = fs::read_to_string(&wire).unwrap();
    let tainted = clean.replace(
        "input.first_chunk::<4>()",
        "Some(&[input[0], input[1], input[2], input[3]])",
    );
    assert_ne!(clean, tainted, "decode header site must exist to taint");
    fs::write(&wire, tainted).unwrap();
    let f = rule_findings(&root, "panic-reach");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].entry, "proto::wire::Frame::decode");
    assert_eq!(f[0].fact_fn, "proto::wire::Frame::decode");
    assert_eq!(f[0].token, "index-expr");

    let root = copy_crates("inject_decode_unwrap", &["proto"]);
    inject(
        &root,
        "crates/proto/src/wire.rs",
        "pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {",
        "\n        let _ = n.checked_add(1).unwrap();",
    );
    let f = rule_findings(&root, "panic-reach");
    assert!(!f.is_empty(), "unwrap below the decoder must be flagged");
    assert!(
        f.iter().all(|f| f.fact_fn == "proto::wire::Cursor::take" && f.token == ".unwrap("),
        "{f:?}"
    );
    let mut entries: Vec<&str> = f.iter().map(|f| f.entry.as_str()).collect();
    entries.sort_unstable();
    assert_eq!(
        entries,
        vec![
            "proto::wire::ClientMessage::decode_body",
            "proto::wire::Frame::decode",
            "proto::wire::ServerMessage::decode_body",
        ]
    );
}

/// A `panic!` in any fn of the observability crate fires, even one no
/// driver calls yet.
#[test]
fn injected_panic_in_obs_fires() {
    let root = copy_crates("inject_obs_panic", &["obs"]);
    assert!(rule_findings(&root, "panic-reach").iter().all(|f| f.token == "missing-entry"));
    append(&root, "crates/obs/src/json.rs", "fn strict(ok: bool) { if !ok { panic!(\"bad sample\") } }");
    let f: Vec<AnalysisFinding> = rule_findings(&root, "panic-reach")
        .into_iter()
        .filter(|f| f.token != "missing-entry")
        .collect();
    assert_eq!(fact_fns(&f), vec!["obs::json::strict"], "{f:?}");
    assert_eq!(f[0].token, "panic!");
}

/// A `.to_vec()` in a helper `diff_docs` calls fires the hot-path
/// allocation rule.
#[test]
fn injected_to_vec_below_diff_docs_fires() {
    let root = copy_crates("inject_diff_alloc", &["diff"]);
    assert!(rule_findings(&root, "alloc-reach").is_empty(), "clean before injection");
    inject(
        &root,
        "crates/diff/src/zerocopy.rs",
        "new_hi: usize,\n    scratch: &mut DiffScratch,\n) {",
        "\n    let _copy = old.line(0).to_vec();",
    );
    let f = rule_findings(&root, "alloc-reach");
    let hit = f
        .iter()
        .find(|f| f.entry == "diff::zerocopy::diff_docs")
        .unwrap_or_else(|| panic!("diff_docs must reach the copy: {f:?}"));
    assert_eq!(hit.fact_fn, "diff::zerocopy::intern_window");
    assert_eq!(hit.token, ".to_vec(");
}

/// A `Mutex::new` in one private fn of the server crate and a
/// `std::thread::spawn` in another are each flagged: the sharded runtime
/// depends on `ServerNode` staying a plain movable value.
#[test]
fn injected_mutex_and_thread_spawn_in_server_each_fire() {
    let root = copy_crates("inject_thread", &["server"]);
    assert!(rule_findings(&root, "thread-reach").is_empty(), "clean before injection");
    append(
        &root,
        "crates/server/src/node.rs",
        "fn guard() { let _guard = std::sync::Mutex::new(0); }\n\
         fn background() { std::thread::spawn(|| {}); }",
    );
    let f = rule_findings(&root, "thread-reach");
    assert_eq!(
        fact_fns(&f),
        vec!["server::node::background", "server::node::guard"],
        "{f:?}"
    );
}

/// A `ClientMessage` variant the round-trip tests never build, a
/// `DriverEvent` nothing in `runtime` emits and a `ShardCommand` the
/// shard worker never matches each fire `variant-coverage`.
#[test]
fn injected_uncovered_variants_fire() {
    let root = copy_crates("inject_variants", &["proto", "obs", "runtime"]);
    assert!(rule_findings(&root, "variant-coverage").is_empty(), "clean before injection");
    inject(&root, "crates/proto/src/message.rs", "pub enum ClientMessage {", "\n    Injected,");
    inject(&root, "crates/obs/src/event.rs", "pub enum DriverEvent<'a> {", "\n    Injected,");
    inject(&root, "crates/runtime/src/shard.rs", "pub enum ShardCommand<T> {", "\n    Injected,");
    let f = rule_findings(&root, "variant-coverage");
    let keys: Vec<String> = f.iter().map(AnalysisFinding::key).collect();
    assert_eq!(
        keys,
        vec![
            "variant-coverage|ClientMessage|ClientMessage::Injected|round-trip",
            "variant-coverage|DriverEvent|DriverEvent::Injected|emitted",
            "variant-coverage|ShardCommand|ShardCommand::Injected|matched",
        ]
    );
}

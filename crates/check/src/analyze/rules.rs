//! The transitive guarantee rules, evaluated over the call graph.
//!
//! Each reach rule is a query: from a set of *entry points*, can any
//! function carrying a forbidden [`FactKind`](super::facts::FactKind) be
//! reached? Propagation runs as a reverse-BFS from fact-bearing
//! functions toward callers, recording the next hop at each step so a
//! finding can print the full entry → … → fact witness chain. Functions
//! in a rule's barred files (the diff shim, the runtime clock) neither
//! seed nor propagate: they are the documented home of the effect.
//! Facts come from function bodies only; a `use` line or a field type
//! names an effect but performs none.
//!
//! | rule               | entries                                    | forbidden facts |
//! |--------------------|--------------------------------------------|-----------------|
//! | `panic-reach`      | `Frame::decode`, `*Message::decode_body`   | panic           |
//! | `panic-reach`      | every fn of `obs`                          | panic           |
//! | `alloc-reach`      | `diff_docs`, `apply_delta`, chunk codec    | alloc           |
//! | `clock-reach`      | every fn of a sans-io crate (not clock.rs) | clock           |
//! | `fs-reach`         | every fn of a pure crate                   | fs              |
//! | `net-reach`        | every fn of a pure crate                   | net             |
//! | `thread-reach`     | every fn of a pure crate                   | thread, lock    |
//! | `shard-shape`      | shard/server poll loops (+ per-fn scan)    | blocking        |
//! | `variant-coverage` | wire, driver-event and shard-command enums | —               |

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use super::facts::{Fact, FactKind};
use super::graph::{CallEdge, CallGraph, FnId, Workspace};
use super::lexer::{lex, Tok, TokKind};
use super::source::enum_variants;

/// Crates that must take time as an argument or through the runtime
/// `Clock`, never by reading the wall clock.
pub const SANS_IO_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server", "runtime", "obs",
];

/// The pure state machines: the sharded runtime moves them across
/// worker threads whole, so they hold no threads, locks, files or
/// sockets. `runtime` and `core` own those.
pub const PURE_CRATES: &[&str] = &[
    "proto", "diff", "compress", "version", "cache", "client", "server",
];

/// The proto round-trip property tests, which must construct every
/// wire-visible variant.
pub const ROUND_TRIP_TESTS: &str = "crates/proto/tests/prop.rs";

/// A rule guarding named entry points: none may reach a fact of `kinds`.
struct EntryRule {
    rule: &'static str,
    /// `(crate, owner type, fn name)`; `None` owner means a free fn.
    entries: &'static [(&'static str, Option<&'static str>, &'static str)],
    kinds: &'static [FactKind],
    barred: &'static [&'static str],
    what: &'static str,
    /// Names the entry set when none of it exists.
    missing: &'static str,
}

const ENTRY_RULES: &[EntryRule] = &[
    EntryRule {
        rule: "panic-reach",
        entries: &[
            ("proto", Some("Frame"), "decode"),
            ("proto", Some("ClientMessage"), "decode_body"),
            ("proto", Some("ServerMessage"), "decode_body"),
        ],
        kinds: &[FactKind::Panic],
        barred: &[],
        what: "panic reachable from wire decode",
        missing: "wire decode",
    },
    EntryRule {
        rule: "alloc-reach",
        entries: &[
            ("diff", None, "diff_docs"),
            ("diff", None, "apply_delta"),
            ("diff", None, "chunk_delta_into"),
            ("diff", None, "apply_chunk_delta"),
        ],
        kinds: &[FactKind::Alloc],
        barred: &["crates/diff/src/shim.rs"],
        what: "allocation reachable from the zero-copy diff hot path",
        missing: "diff hot path",
    },
    // The shard worker's idle nap lives *outside* these entries by
    // design; bounded waits (`recv_timeout`) are not blocking facts.
    EntryRule {
        rule: "shard-shape",
        entries: &[
            ("runtime", Some("ServerRuntime"), "poll_once"),
            ("runtime", Some("ShardedServerRuntime"), "poll_once"),
            ("runtime", Some("ShardInbox"), "poll_accept"),
            ("runtime", Some("ShardInbox"), "drain_control"),
        ],
        kinds: &[FactKind::Blocking],
        barred: &[],
        what: "blocking call reachable from a shard poll function",
        missing: "shard poll loop",
    },
];

/// A crate-wide rule: no function with a body in `crates` may reach a
/// fact of `kinds`.
struct CrateRule {
    rule: &'static str,
    crates: &'static [&'static str],
    kinds: &'static [FactKind],
    barred: &'static [&'static str],
    what: &'static str,
}

const CRATE_RULES: &[CrateRule] = &[
    // Instrumentation runs inside drivers and event hooks: a metrics
    // bug must never take down the node it measures.
    CrateRule {
        rule: "panic-reach",
        crates: &["obs"],
        kinds: &[FactKind::Panic],
        barred: &[],
        what: "panic reachable from the observability crate",
    },
    // clock.rs is the one place wall time enters the system.
    CrateRule {
        rule: "clock-reach",
        crates: SANS_IO_CRATES,
        kinds: &[FactKind::Clock],
        barred: &["crates/runtime/src/clock.rs"],
        what: "wall-clock read reachable from a sans-io crate",
    },
    // The server *emits* `Persist` records; only the runtime's sink
    // (the durable store) touches disk.
    CrateRule {
        rule: "fs-reach",
        crates: PURE_CRATES,
        kinds: &[FactKind::Fs],
        barred: &[],
        what: "filesystem/io access reachable from a pure crate",
    },
    // A disconnect is a plain state transition (`LinkDown`/`Resume`);
    // sockets belong to the transports.
    CrateRule {
        rule: "net-reach",
        crates: PURE_CRATES,
        kinds: &[FactKind::Net],
        barred: &[],
        what: "network/socket access reachable from a pure crate",
    },
    // A node that spawned threads or hid a lock could no longer be
    // handed whole to a shard worker.
    CrateRule {
        rule: "thread-reach",
        crates: PURE_CRATES,
        kinds: &[FactKind::Thread, FactKind::Lock],
        barred: &[],
        what: "thread or lock reachable from a pure crate",
    },
];

/// One analysis finding.
#[derive(Debug, Clone)]
pub struct AnalysisFinding {
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Qualified name of the entry point the guarantee protects (the
    /// enum, for `variant-coverage`).
    pub entry: String,
    /// Qualified name of the function carrying the forbidden fact (the
    /// uncovered variant, for `variant-coverage`).
    pub fact_fn: String,
    /// The fact's token form (`.unwrap(`, `Instant::now`, …).
    pub token: String,
    /// Repo-relative file of the fact.
    pub file: String,
    /// 1-based line of the fact (0 for file-level findings).
    pub line: u32,
    /// Witness chain, entry first, fact function last.
    pub chain: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl AnalysisFinding {
    /// Stable baseline key: no line numbers, so routine edits don't
    /// invalidate a committed baseline.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.rule, self.entry, self.fact_fn, self.token
        )
    }
}

impl std::fmt::Display for AnalysisFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        if self.chain.len() > 1 {
            write!(f, "\n    via {}", self.chain.join(" -> "))?;
        }
        Ok(())
    }
}

/// Result of one reverse-reachability pass.
struct Reach {
    /// Can this function reach a forbidden fact?
    reachable: Vec<bool>,
    /// The direct fact, for seed functions.
    seed_fact: Vec<Option<Fact>>,
    /// Next hop toward the fact, for propagated functions.
    via: Vec<Option<CallEdge>>,
}

fn reach(ws: &Workspace, g: &CallGraph, kinds: &[FactKind], barred_files: &[&str]) -> Reach {
    let barred = |id: FnId| {
        let file = ws.item(id).file.as_str();
        barred_files.iter().any(|b| file.ends_with(b))
    };
    let n = ws.fns.len();
    let mut r = Reach {
        reachable: vec![false; n],
        seed_fact: vec![None; n],
        via: vec![None; n],
    };
    let mut queue: Vec<FnId> = Vec::new();
    for id in 0..n {
        if barred(id) {
            continue;
        }
        if let Some(fact) = ws.facts[id].iter().find(|f| kinds.contains(&f.kind)) {
            r.reachable[id] = true;
            r.seed_fact[id] = Some(fact.clone());
            queue.push(id);
        }
    }
    while let Some(f) = queue.pop() {
        for &caller in &g.callers[f] {
            if r.reachable[caller] || barred(caller) {
                continue;
            }
            let Some(edge) = g.edges[caller].iter().find(|e| e.callee == f) else {
                continue;
            };
            r.reachable[caller] = true;
            r.via[caller] = Some(edge.clone());
            queue.push(caller);
        }
    }
    r
}

/// Walks the witness chain from `entry` to the fact function.
fn finding_for(
    ws: &Workspace,
    r: &Reach,
    rule: &'static str,
    entry: FnId,
    what: &str,
) -> AnalysisFinding {
    let mut chain = Vec::new();
    let mut cur = entry;
    chain.push(ws.qual(cur).to_string());
    while let Some(edge) = &r.via[cur] {
        cur = edge.callee;
        chain.push(format!("{} (call at line {})", ws.qual(cur), edge.line));
    }
    let fact = r.seed_fact[cur].clone().unwrap_or(Fact {
        kind: FactKind::Panic,
        line: 0,
        token: String::from("?"),
    });
    let fact_item = ws.item(cur);
    AnalysisFinding {
        rule,
        entry: ws.qual(entry).to_string(),
        fact_fn: fact_item.qual.clone(),
        token: fact.token.clone(),
        file: fact_item.file.clone(),
        line: fact.line,
        chain,
        message: format!(
            "{what}: `{}` reaches `{}` ({} fact `{}` at {}:{})",
            ws.qual(entry),
            fact_item.qual,
            fact.kind.name(),
            fact.token,
            fact_item.file,
            fact.line
        ),
    }
}

fn entries_of(ws: &Workspace, specs: &[(&str, Option<&str>, &str)]) -> Vec<FnId> {
    let mut v = Vec::new();
    for (krate, owner, name) in specs {
        v.extend(ws.find(krate, *owner, name));
    }
    v.sort_unstable();
    v.dedup();
    v
}

fn missing_entries(rule: &'static str, what: &str) -> AnalysisFinding {
    AnalysisFinding {
        rule,
        entry: String::from("(none)"),
        fact_fn: String::from("(none)"),
        token: String::from("missing-entry"),
        file: String::from("crates"),
        line: 0,
        chain: Vec::new(),
        message: format!("{what}: no entry points found in the workspace; the guarantee is unverifiable"),
    }
}

/// Runs every reach rule and the local lock-then-send scan, and
/// returns their findings.
pub fn run_rules(ws: &Workspace, g: &CallGraph) -> Vec<AnalysisFinding> {
    let mut findings = Vec::new();

    for rule in ENTRY_RULES {
        let entries = entries_of(ws, rule.entries);
        if entries.is_empty() {
            findings.push(missing_entries(rule.rule, rule.missing));
            continue;
        }
        let r = reach(ws, g, rule.kinds, rule.barred);
        for &e in entries.iter().filter(|&&e| r.reachable[e]) {
            findings.push(finding_for(ws, &r, rule.rule, e, rule.what));
        }
    }

    for rule in CRATE_RULES {
        let r = reach(ws, g, rule.kinds, rule.barred);
        // Every function of the crates is an entry, so one fact is
        // reached from many of them: report each fact once, through its
        // longest chain (the outermost caller).
        let mut by_fact: BTreeMap<(String, String), AnalysisFinding> = BTreeMap::new();
        for e in (0..ws.fns.len())
            .filter(|&id| r.reachable[id] && rule.crates.contains(&ws.item(id).krate.as_str()))
        {
            let f = finding_for(ws, &r, rule.rule, e, rule.what);
            match by_fact.entry((f.fact_fn.clone(), f.token.clone())) {
                Entry::Vacant(slot) => {
                    slot.insert(f);
                }
                Entry::Occupied(mut slot) => {
                    if f.chain.len() > slot.get().chain.len() {
                        slot.insert(f);
                    }
                }
            }
        }
        findings.extend(by_fact.into_values());
    }

    lock_then_send(ws, &mut findings);
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    findings
}

/// No lock taken before a channel send within one runtime function — a
/// guard held across `ShardInbox` sends can deadlock a worker against
/// the router. Purely local, so no graph walk.
fn lock_then_send(ws: &Workspace, findings: &mut Vec<AnalysisFinding>) {
    for id in 0..ws.fns.len() {
        let item = ws.item(id);
        if item.krate != "runtime" {
            continue;
        }
        let facts = &ws.facts[id];
        let first_lock = facts
            .iter()
            .filter(|f| f.kind == FactKind::Lock)
            .map(|f| f.line)
            .min();
        let Some(lock_line) = first_lock else { continue };
        if let Some(send) = facts
            .iter()
            .find(|f| f.kind == FactKind::ChannelSend && f.line >= lock_line)
        {
            findings.push(AnalysisFinding {
                rule: "shard-shape",
                entry: item.qual.clone(),
                fact_fn: item.qual.clone(),
                token: String::from("lock-then-send"),
                file: item.file.clone(),
                line: send.line,
                chain: vec![item.qual.clone()],
                message: format!(
                    "lock taken at line {lock_line} is still plausibly held \
                     across the channel send at line {} in `{}`; drop the \
                     guard before sending",
                    send.line, item.qual
                ),
            });
        }
    }
}

/// The enums a wire frame can carry; the round-trip property tests
/// must construct every variant.
const WIRE_ENUMS: &[&str] = &[
    "ClientMessage",
    "ServerMessage",
    "TransferEncoding",
    "UpdatePayload",
    "OutputPayload",
    "JobStatus",
];

/// Does the token stream contain the path `name::variant`?
fn mentions(src: &str, toks: &[Tok], name: &str, variant: &str) -> bool {
    toks.windows(3).any(|w| {
        w[0].kind == TokKind::Ident
            && w[1].kind == TokKind::PathSep
            && w[2].kind == TokKind::Ident
            && w[0].text(src) == name
            && w[2].text(src) == variant
    })
}

/// One coverage check: every variant of enum `name`, declared in
/// `decl`, must appear as `name::Variant` in one of `users`; an
/// uncovered variant is reported against file `at`.
struct Coverage<'a> {
    decl: &'a str,
    name: &'a str,
    users: Vec<(&'a str, &'a [Tok])>,
    at: &'a str,
    token: &'static str,
    what: &'static str,
}

/// Rule `variant-coverage`: every wire-visible variant appears in the
/// round-trip property tests, every `DriverEvent` is emitted by code in
/// `crates/runtime`, and every `ShardCommand` is matched in `shard.rs`
/// (a command nothing handles would sit in an inbox forever).
/// `round_trip_src` is the stripped text of [`ROUND_TRIP_TESTS`], which
/// lives outside the `src/` trees the workspace loads.
pub fn variant_coverage(ws: &Workspace, round_trip_src: &str) -> Vec<AnalysisFinding> {
    let round_trip_toks = lex(round_trip_src);
    let sources = |prefix: &str| -> Vec<(&str, &[Tok])> {
        ws.files
            .iter()
            .filter(|f| f.file.starts_with(prefix))
            .map(|f| (f.src.as_str(), f.toks.as_slice()))
            .collect()
    };
    let mut checks: Vec<Coverage> = WIRE_ENUMS
        .iter()
        .map(|name| Coverage {
            decl: "crates/proto/src/message.rs",
            name,
            users: vec![(round_trip_src, round_trip_toks.as_slice())],
            at: ROUND_TRIP_TESTS,
            token: "round-trip",
            what: "never appears in the round-trip property tests",
        })
        .collect();
    checks.push(Coverage {
        decl: "crates/obs/src/event.rs",
        name: "DriverEvent",
        users: sources("crates/runtime/"),
        at: "crates/obs/src/event.rs",
        token: "emitted",
        what: "is declared but no driver in crates/runtime emits it",
    });
    checks.push(Coverage {
        decl: "crates/runtime/src/shard.rs",
        name: "ShardCommand",
        users: sources("crates/runtime/src/shard.rs"),
        at: "crates/runtime/src/shard.rs",
        token: "matched",
        what: "is declared but never matched in the shard worker loop",
    });

    let mut findings = Vec::new();
    for c in checks {
        let variants = ws
            .files
            .iter()
            .find(|f| f.file == c.decl)
            .map(|f| enum_variants(&f.src, c.name))
            .unwrap_or_default();
        if variants.is_empty() {
            let message = format!("could not locate `enum {}` in {}", c.name, c.decl);
            findings.push(coverage_finding(c.name, "(none)", "missing-enum", c.decl, message));
        }
        for v in variants {
            if !c.users.iter().any(|(src, toks)| mentions(src, toks, c.name, &v)) {
                let variant = format!("{}::{v}", c.name);
                let message = format!("{variant} {}", c.what);
                findings.push(coverage_finding(c.name, &variant, c.token, c.at, message));
            }
        }
    }
    findings
}

fn coverage_finding(
    name: &str,
    variant: &str,
    token: &str,
    file: &str,
    message: String,
) -> AnalysisFinding {
    AnalysisFinding {
        rule: "variant-coverage",
        entry: name.to_string(),
        fact_fn: variant.to_string(),
        token: token.to_string(),
        file: file.to_string(),
        line: 0,
        chain: Vec::new(),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::super::graph::{build_graph, ws_from};
    use super::super::source::strip_code;

    fn rule_findings(ws: &Workspace, rule: &str) -> Vec<AnalysisFinding> {
        let g = build_graph(ws);
        run_rules(ws, &g)
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    #[test]
    fn panic_two_hops_below_decode_across_crates_is_found() {
        // The panic sits in another crate, two calls down.
        let ws = ws_from(&[
            (
                "proto",
                "src/wire.rs",
                "impl Frame { pub fn decode(b: &[u8]) { helper(b) } }\nfn helper(b: &[u8]) { shadow_util::deep(b) }",
            ),
            ("util", "src/lib.rs", "pub fn deep(b: &[u8]) { b.first().unwrap(); }"),
        ]);
        let f = rule_findings(&ws, "panic-reach");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry, "proto::wire::Frame::decode");
        assert_eq!(f[0].fact_fn, "util::deep");
        assert_eq!(f[0].token, ".unwrap(");
        assert_eq!(f[0].chain.len(), 3);
        assert!(f[0].file.contains("util"));
    }

    #[test]
    fn clean_decode_chain_passes() {
        let ws = ws_from(&[(
            "proto",
            "src/wire.rs",
            "impl Frame { pub fn decode(b: &[u8]) { helper(b) } }\nfn helper(b: &[u8]) -> Option<u8> { b.first().copied() }",
        )]);
        assert!(rule_findings(&ws, "panic-reach").is_empty());
    }

    #[test]
    fn alloc_below_diff_docs_is_found_but_shim_is_allowed() {
        let ws = ws_from(&[
            (
                "diff",
                "src/zerocopy.rs",
                "pub fn diff_docs() { inner() }\npub fn apply_delta() { crate::shim::convert() }\nfn inner() { let v = b.to_vec(); }",
            ),
            ("diff", "src/shim.rs", "pub fn convert() { let v = Vec::new(); }"),
        ]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "diff::zerocopy::diff_docs");
        assert_eq!(f[0].fact_fn, "diff::zerocopy::inner");
    }

    #[test]
    fn alloc_below_chunk_codec_entries_is_found() {
        // Both chunk-codec entry points are guarded: an allocation
        // injected into a shared helper is reported once per entry.
        let ws = ws_from(&[(
            "diff",
            "src/chunk.rs",
            "pub fn chunk_delta_into() { emit_span() }\n\
             pub fn apply_chunk_delta() { emit_span() }\n\
             fn emit_span() { let copy = span.to_vec(); }",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 2, "{f:?}");
        let entries: Vec<&str> = f.iter().map(|x| x.entry.as_str()).collect();
        assert!(entries.contains(&"diff::chunk::chunk_delta_into"));
        assert!(entries.contains(&"diff::chunk::apply_chunk_delta"));
        assert!(f.iter().all(|x| x.fact_fn == "diff::chunk::emit_span"));
    }

    #[test]
    fn alloc_reach_entries_cover_the_chunk_module() {
        // The chunk codec is part of the zero-copy hot path: both of its
        // entry points are guarded, and a span copy made directly in an
        // entry (no helper in between) is reported against that entry.
        let alloc = ENTRY_RULES.iter().find(|r| r.rule == "alloc-reach").unwrap();
        for name in ["chunk_delta_into", "apply_chunk_delta"] {
            assert!(alloc.entries.contains(&("diff", None, name)), "{name} unguarded");
        }
        let ws = ws_from(&[(
            "diff",
            "src/chunk.rs",
            "pub fn chunk_delta_into(span: &[u8]) { let copy = span.to_vec(); }",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "diff::chunk::chunk_delta_into");
        assert_eq!(f[0].token, ".to_vec(");
    }

    #[test]
    fn per_line_allocation_below_diff_docs_is_found_but_test_code_is_not() {
        // `Line::new` owning a copied line is the per-line allocation the
        // zero-copy rewrite removed; borrowing `doc.line(i)` is fine.
        let ws = ws_from(&[(
            "diff",
            "src/zerocopy.rs",
            "pub struct Line(Vec<u8>);\n\
             impl Line { fn new(v: Vec<u8>) -> Line { Line(v) } }\n\
             pub fn diff_docs(l: &[u8]) { let a = Line::new(l.to_vec()); }\n\
             pub fn apply_delta(doc: &DocBuf, i: usize) -> &[u8] { doc.line(i) }\n\
             #[cfg(test)]\nmod tests {\n    fn t() { let v = b\"x\".to_vec(); }\n}\n",
        )]);
        let f = rule_findings(&ws, "alloc-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "diff::zerocopy::diff_docs");
        assert_eq!(f[0].token, ".to_vec(");
        // Test code is blanked before extraction: it has no fn at all.
        assert!(ws.find("diff", None, "t").is_empty(), "test fn extracted");
        assert_eq!(ws.find("diff", Some("Line"), "new").len(), 1);
    }

    #[test]
    fn decode_entry_slice_types_attrs_and_macro_brackets_are_not_panics() {
        // `vec![` is macro-bang-bracket: '!' precedes '[', not a value.
        let ws = ws_from(&[(
            "proto",
            "src/wire.rs",
            "#[derive(Debug)]\npub struct Frame;\n\
             impl Frame { pub fn decode(b: &[u8], a: [u8; 4]) { let v = vec![1, 2]; } }",
        )]);
        assert!(!ws.find("proto", Some("Frame"), "decode").is_empty());
        assert!(rule_findings(&ws, "panic-reach").is_empty());
    }

    #[test]
    fn thread_reach_matches_whole_identifiers_only() {
        // Identifiers merely *containing* a forbidden token are fine.
        let ok = ws_from(&[(
            "server",
            "src/node.rs",
            "struct MutexLikeStats { held_ns: u64 }\nfn f(my_mpsc_queue: &MutexLikeStats) { let s = MutexLikeStats::default(); }\n",
        )]);
        assert!(rule_findings(&ok, "thread-reach").is_empty());
        // The real tokens still fire, including in qualified paths.
        let bad = ws_from(&[(
            "server",
            "src/node.rs",
            "fn f() { let m: Mutex<u8> = x; }\nfn g() { let (tx, rx) = mpsc::channel(); }",
        )]);
        let mut found: Vec<String> = rule_findings(&bad, "thread-reach")
            .into_iter()
            .map(|f| format!("{} {}", f.fact_fn, f.token))
            .collect();
        found.sort();
        assert_eq!(found, vec!["server::node::f Mutex", "server::node::g mpsc"]);
    }

    #[test]
    fn clock_read_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "client",
                "src/lib.rs",
                "pub fn tick() { stamp() }\nfn stamp() { let t = Instant::now(); }",
            ),
            ("runtime", "src/clock.rs", "pub fn now() { let t = Instant::now(); }"),
        ]);
        let f = rule_findings(&ws, "clock-reach");
        // `stamp` is an entry too; the fact is reported once, through
        // its outermost caller.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].entry, "client::tick");
        // runtime's clock.rs is barred: the one home of wall time.
    }

    #[test]
    fn clock_read_in_private_and_trait_impl_fns_is_found() {
        let ws = ws_from(&[
            (
                "server",
                "src/node.rs",
                "fn stamp() { let t = Instant::now(); }
\
                 impl Display for Node { fn fmt(&self) { let t = SystemTime::now(); } }",
            ),
            ("runtime", "src/shard.rs", "fn nap() { let t = Instant::now(); }"),
            ("runtime", "src/clock.rs", "fn now() { let t = Instant::now(); }"),
            ("obs", "src/metrics.rs", "fn sample() { let t = Instant::now(); }"),
            ("core", "src/live.rs", "fn wall() { let t = Instant::now(); }"),
        ]);
        let mut found: Vec<String> = rule_findings(&ws, "clock-reach")
            .into_iter()
            .map(|f| f.fact_fn)
            .collect();
        found.sort();
        assert_eq!(
            found,
            vec!["obs::metrics::sample", "runtime::shard::nap", "server::node::Node::fmt", "server::node::stamp"]
        );
    }

    #[test]
    fn thread_and_lock_in_pure_crates_are_found() {
        let ws = ws_from(&[
            (
                "server",
                "src/node.rs",
                "fn guard() { let m = Mutex::new(0); }\nfn spin() { thread::spawn(f); }\nfn chan() { let c = mpsc::channel(); }",
            ),
            ("runtime", "src/shard.rs", "fn worker() { std::thread::spawn(f); }"),
        ]);
        let mut found: Vec<String> = rule_findings(&ws, "thread-reach")
            .into_iter()
            .map(|f| format!("{} {}", f.fact_fn, f.token))
            .collect();
        found.sort();
        assert_eq!(
            found,
            vec![
                "server::node::chan mpsc",
                "server::node::guard Mutex",
                "server::node::spin thread::spawn",
            ]
        );
    }

    #[test]
    fn panic_and_indexing_in_obs_are_found() {
        let ws = ws_from(&[(
            "obs",
            "src/metrics.rs",
            "fn bucket(v: &[u64], i: usize) -> u64 { v[i] }\nfn strict() { panic!(); }\nfn safe(v: &[u64]) -> Option<&u64> { v.first() }",
        )]);
        let mut found: Vec<String> = rule_findings(&ws, "panic-reach")
            .into_iter()
            .filter(|f| f.token != "missing-entry")
            .map(|f| format!("{} {}", f.fact_fn, f.token))
            .collect();
        found.sort();
        assert_eq!(found, vec!["obs::metrics::bucket index-expr", "obs::metrics::strict panic!"]);
    }

    #[test]
    fn index_expression_below_decode_is_found() {
        let ws = ws_from(&[(
            "proto",
            "src/wire.rs",
            "impl Frame { pub fn decode(b: &[u8]) { header(b) } }\nfn header(b: &[u8]) -> u8 { b[0] }",
        )]);
        let f = rule_findings(&ws, "panic-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].fact_fn, "proto::wire::header");
        assert_eq!(f[0].token, "index-expr");
    }

    #[test]
    fn uncovered_variants_are_found() {
        let ws = ws_from(&[
            (
                "proto",
                "src/message.rs",
                "pub enum ClientMessage { Hello, Bye }\npub enum ServerMessage { Ok }\n\
                 pub enum TransferEncoding { Raw }\npub enum UpdatePayload { Full }\n\
                 pub enum OutputPayload { Full }\npub enum JobStatus { Done }",
            ),
            ("obs", "src/event.rs", "pub enum DriverEvent<'a> { Sent(&'a u8), Idle }"),
            (
                "runtime",
                "src/shard.rs",
                "pub enum ShardCommand<T> { Stop, Report }\n\
                 fn run() { match c { ShardCommand::Stop => {} _ => {} } }\n\
                 #[cfg(test)]\nmod tests { fn t() { let _ = ShardCommand::Report; } }",
            ),
            ("runtime", "src/driver.rs", "fn emit() { hook(DriverEvent::Sent(&1)); }"),
        ]);
        // `ClientMessage::HelloAgain` must not count as `Hello`.
        let tests = "fn all() { ClientMessage::HelloAgain; ClientMessage::Bye; ServerMessage::Ok; \
                     TransferEncoding::Raw; UpdatePayload::Full; OutputPayload::Full; JobStatus::Done; }";
        let keys: Vec<String> = variant_coverage(&ws, &strip_code(tests))
            .iter()
            .map(AnalysisFinding::key)
            .collect();
        assert_eq!(
            keys,
            vec![
                "variant-coverage|ClientMessage|ClientMessage::Hello|round-trip",
                "variant-coverage|DriverEvent|DriverEvent::Idle|emitted",
                // Matched only in test code, which is stripped.
                "variant-coverage|ShardCommand|ShardCommand::Report|matched",
            ]
        );
        let missing = variant_coverage(&ws_from(&[]), "");
        assert!(missing.iter().all(|f| f.token == "missing-enum"));
        assert_eq!(missing.len(), 8);
    }

    #[test]
    fn fs_access_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "server",
                "src/lib.rs",
                "pub fn submit() { spill() }\nfn spill() { let d = fs::read(p); }",
            ),
            ("store", "src/segment.rs", "pub fn append() { let d = fs::read(p); }"),
        ]);
        let f = rule_findings(&ws, "fs-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "server::submit");
        assert_eq!(f[0].fact_fn, "server::spill");
        assert_eq!(f[0].token, "fs::");
        // The store crate is the sanctioned home of disk I/O: not a
        // pure crate, so no entry and no finding.
    }

    #[test]
    fn net_access_below_pure_pub_fn_is_found() {
        let ws = ws_from(&[
            (
                "client",
                "src/lib.rs",
                "pub fn reconnect() { dial() }\nfn dial() { let s = TcpStream::connect(a); }",
            ),
            ("netsim", "src/tcp.rs", "pub fn connect() { let s = TcpStream::connect(a); }"),
        ]);
        let f = rule_findings(&ws, "net-reach");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].entry, "client::reconnect");
        assert_eq!(f[0].fact_fn, "client::dial");
        assert_eq!(f[0].token, "TcpStream");
        // netsim is a transport crate, not pure: no entry, no finding.
    }

    #[test]
    fn blocking_below_poll_once_is_found() {
        let ws = ws_from(&[(
            "runtime",
            "src/server_runtime.rs",
            "impl ServerRuntime { pub fn poll_once(&mut self) { self.pump() } fn pump(&mut self) { self.rx.recv(); } }",
        )]);
        let f = rule_findings(&ws, "shard-shape");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, ".recv()");
        assert_eq!(f[0].entry, "runtime::server_runtime::ServerRuntime::poll_once");
    }

    #[test]
    fn bounded_waits_in_poll_loop_are_fine() {
        let ws = ws_from(&[(
            "runtime",
            "src/server_runtime.rs",
            "impl ServerRuntime { pub fn poll_once(&mut self) { self.rx.recv_timeout(d); } }",
        )]);
        assert!(rule_findings(&ws, "shard-shape").is_empty());
    }

    #[test]
    fn lock_across_send_is_found_locally() {
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "fn route(&self) {\n let g = self.state.lock();\n self.tx.send(msg);\n}",
        )]);
        // Ignore the missing-poll-entry finding this tiny workspace
        // also produces; the local scan is what's under test.
        let f: Vec<AnalysisFinding> = rule_findings(&ws, "shard-shape")
            .into_iter()
            .filter(|f| f.token == "lock-then-send")
            .collect();
        assert_eq!(f.len(), 1);
        // Send before lock is fine.
        let ws = ws_from(&[(
            "runtime",
            "src/shard.rs",
            "fn route(&self) {\n self.tx.send(msg);\n let g = self.state.lock();\n}",
        )]);
        assert!(rule_findings(&ws, "shard-shape")
            .iter()
            .all(|f| f.token != "lock-then-send"));
    }

    #[test]
    fn missing_entries_are_reported() {
        let ws = ws_from(&[("misc", "src/lib.rs", "pub fn nothing() {}")]);
        let g = build_graph(&ws);
        let rules: Vec<&str> = run_rules(&ws, &g).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic-reach"));
        assert!(rules.contains(&"alloc-reach"));
        assert!(rules.contains(&"shard-shape"));
    }

    #[test]
    fn baseline_keys_are_line_stable() {
        let mk = |line| AnalysisFinding {
            rule: "panic-reach",
            entry: String::from("e"),
            fact_fn: String::from("f"),
            token: String::from(".unwrap("),
            file: String::from("x.rs"),
            line,
            chain: Vec::new(),
            message: String::new(),
        };
        assert_eq!(mk(3).key(), mk(400).key());
    }
}

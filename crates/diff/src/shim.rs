//! Compatibility shim between the zero-copy pipeline and the legacy
//! allocating API.
//!
//! This module is the *only* place in the diff crate allowed to build
//! per-line `Line(Vec<u8>)` allocations (`shadow-check analyze`'s
//! `alloc-reach` rule enforces that): it hosts the original allocating pipeline
//! ([`diff_legacy`]) kept as an equivalence oracle, and the conversions
//! from the zero-copy types back to the allocating ones.

use std::collections::HashMap;

use crate::algorithm::{matches_to_script, DiffAlgorithm, Match};
use crate::docbuf::DocBuf;
use crate::document::{Document, Line};
use crate::edscript::{EdCommand, EdScript, ParseError};
use crate::zerocopy::{DeltaCommand, DeltaScript};

/// The original allocating diff pipeline, retained verbatim as the
/// equivalence oracle for [`diff_docs`](crate::diff_docs).
///
/// Interns whole documents through a `HashMap<Vec<u8>, u32>`, trims
/// common affixes on the symbol sequences, and builds an [`EdScript`]
/// that copies every inserted line. [`diff`](crate::diff) no longer runs
/// this; the proptest suite asserts both pipelines emit byte-identical
/// scripts.
pub fn diff_legacy(algorithm: DiffAlgorithm, old: &Document, new: &Document) -> EdScript {
    let (old_syms, new_syms) = intern(old, new);
    let (prefix, suffix) = common_affixes(&old_syms, &new_syms);
    let old_mid = &old_syms[prefix..old_syms.len() - suffix];
    let new_mid = &new_syms[prefix..new_syms.len() - suffix];

    let mid_matches = match algorithm {
        DiffAlgorithm::HuntMcIlroy => crate::hunt_mcilroy::lcs_matches(old_mid, new_mid),
        DiffAlgorithm::Myers => crate::myers::lcs_matches(old_mid, new_mid),
    };

    let mut matches = Vec::with_capacity(prefix + mid_matches.len() + suffix);
    for i in 0..prefix {
        matches.push(Match {
            old_line: i,
            new_line: i,
        });
    }
    matches.extend(mid_matches.into_iter().map(|m| Match {
        old_line: m.old_line + prefix,
        new_line: m.new_line + prefix,
    }));
    for k in 0..suffix {
        matches.push(Match {
            old_line: old_syms.len() - suffix + k,
            new_line: new_syms.len() - suffix + k,
        });
    }

    debug_assert!(matches_are_valid(&matches, old, new));
    matches_to_script(&matches, old, new)
}

/// Maps each distinct line to a dense symbol so the LCS cores compare
/// `u32`s instead of byte strings.
fn intern(old: &Document, new: &Document) -> (Vec<u32>, Vec<u32>) {
    let mut table: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut intern_one = |bytes: &[u8]| -> u32 {
        if let Some(&s) = table.get(bytes) {
            s
        } else {
            let s = table.len() as u32;
            table.insert(bytes.to_vec(), s);
            s
        }
    };
    let old_syms = old
        .lines()
        .iter()
        .map(|l| intern_one(l.as_bytes()))
        .collect();
    let new_syms = new
        .lines()
        .iter()
        .map(|l| intern_one(l.as_bytes()))
        .collect();
    (old_syms, new_syms)
}

/// Length of the common prefix and suffix (non-overlapping).
fn common_affixes(a: &[u32], b: &[u32]) -> (usize, usize) {
    let max = a.len().min(b.len());
    let mut prefix = 0;
    while prefix < max && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < max - prefix && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix] {
        suffix += 1;
    }
    (prefix, suffix)
}

fn matches_are_valid(matches: &[Match], old: &Document, new: &Document) -> bool {
    let mut prev: Option<&Match> = None;
    for m in matches {
        if m.old_line >= old.line_count() || m.new_line >= new.line_count() {
            return false;
        }
        if old.lines()[m.old_line] != new.lines()[m.new_line] {
            return false;
        }
        if let Some(p) = prev {
            if m.old_line <= p.old_line || m.new_line <= p.new_line {
                return false;
            }
        }
        prev = Some(m);
    }
    true
}

impl DocBuf {
    /// Converts to an allocating [`Document`] (copies every line).
    pub fn to_document(&self) -> Document {
        let mut doc: Document = (0..self.line_count())
            .map(|i| Line::new(self.line(i).to_vec()))
            .collect();
        doc.set_trailing_newline(self.has_trailing_newline());
        doc
    }
}

impl DeltaScript {
    /// Converts to the allocating [`EdScript`] representation, copying
    /// each inserted line out of the target buffer.
    pub fn to_ed_script(&self) -> EdScript {
        let commands = self
            .commands
            .iter()
            .map(|cmd| match *cmd {
                DeltaCommand::Append {
                    after,
                    new_from,
                    new_to,
                } => EdCommand::Append {
                    after: after as usize,
                    lines: self.lines_vec(new_from, new_to),
                },
                DeltaCommand::Change {
                    from,
                    to,
                    new_from,
                    new_to,
                } => EdCommand::Change {
                    from: from as usize,
                    to: to as usize,
                    lines: self.lines_vec(new_from, new_to),
                },
                DeltaCommand::Delete { from, to } => EdCommand::Delete {
                    from: from as usize,
                    to: to as usize,
                },
            })
            .collect();
        EdScript::with_commands(commands, self.target_trailing_newline)
            .expect("zero-copy pipeline produces descending, non-overlapping commands")
    }

    fn lines_vec(&self, new_from: u32, new_to: u32) -> Vec<Line> {
        (new_from..new_to)
            .map(|i| Line::new(self.target.line(i as usize).to_vec()))
            .collect()
    }
}

// Cold-path error constructors for the zero-copy parser. Rendering the
// human-readable `reason` allocates, and the alloc-reach rule in
// `shadow-check analyze` bars every allocation reachable from
// `apply_delta` outside this shim — so malformed-input reporting lives
// here with the rest of the allocating code.

/// `ParseError` for a line that is neither a marker nor a command.
pub(crate) fn parse_unrecognized(line: usize, raw: &[u8]) -> ParseError {
    ParseError {
        line,
        reason: format!("unrecognized command {:?}", String::from_utf8_lossy(raw)),
    }
}

/// `ParseError` for a command with an unsupported opcode letter.
pub(crate) fn parse_unknown_op(line: usize, op: u8) -> ParseError {
    ParseError {
        line,
        reason: format!("unknown operation {:?}", op as char),
    }
}

/// `ParseError` for a script missing its trailing `w`/`W` marker.
pub(crate) fn parse_missing_marker() -> ParseError {
    ParseError {
        line: 0,
        reason: "missing trailing w/W marker".to_string(),
    }
}

/// `ParseError` for an insert block with no `.` terminator.
pub(crate) fn parse_unterminated_insert() -> ParseError {
    ParseError {
        line: 0,
        reason: "unterminated insert block".to_string(),
    }
}

/// `ParseError` for an address range that is empty or inverted.
pub(crate) fn parse_invalid_range(from: usize, to: usize) -> ParseError {
    ParseError {
        line: 0,
        reason: format!("invalid range {from},{to}"),
    }
}

/// `ParseError` for commands not in strictly descending order.
pub(crate) fn parse_out_of_order(last: usize, prev: usize) -> ParseError {
    ParseError {
        line: 0,
        reason: format!("commands out of order: line {last} not below {prev}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::DiffScratch;
    use crate::zerocopy::diff_docs;

    #[test]
    fn legacy_and_zerocopy_agree_on_fixed_cases() {
        let cases = [
            ("", ""),
            ("", "a\n"),
            ("a\nb\nc\n", "a\nX\nc\n"),
            ("a\nb", "a\nb\n"),
            (".\na\n", "..\na\n"),
            ("x\nx\nx\nx\n", "x\nx\n"),
        ];
        let mut scratch = DiffScratch::new();
        for algo in [DiffAlgorithm::HuntMcIlroy, DiffAlgorithm::Myers] {
            for (old, new) in cases {
                let old_doc = Document::from_text(old);
                let new_doc = Document::from_text(new);
                let legacy = diff_legacy(algo, &old_doc, &new_doc);
                let zc = diff_docs(
                    algo,
                    &DocBuf::from_text(old),
                    &DocBuf::from_text(new),
                    &mut scratch,
                );
                assert_eq!(
                    zc.to_text(),
                    legacy.to_text(),
                    "algo={algo} old={old:?} new={new:?}"
                );
                assert_eq!(zc.to_ed_script(), legacy, "algo={algo} old={old:?}");
            }
        }
    }

    #[test]
    fn docbuf_to_document_round_trips() {
        for text in [&b""[..], b"x", b"a\nb\n", b"a\nb"] {
            let buf = DocBuf::from_bytes(text.to_vec());
            assert_eq!(buf.to_document().to_bytes(), text);
        }
    }
}

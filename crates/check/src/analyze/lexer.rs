//! A minimal Rust token lexer for the analysis engine.
//!
//! Input is source that has already been comment/string/test-stripped by
//! [`strip_code`](super::source::strip_code) and
//! [`strip_cfg_test`](super::source::strip_cfg_test), so the lexer only has
//! to recognize identifiers, numbers, lifetimes, and punctuation — and
//! can do so with exact line numbers, which is all the call-graph and
//! fact-inference passes need. It is deliberately *not* a full Rust
//! lexer: everything it cannot classify becomes a one-character
//! punctuation token, which downstream passes simply skip.

/// The coarse token classes the analyzer distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `Frame`, `unwrap`, …).
    Ident,
    /// A numeric literal (including suffixed forms like `0u32`).
    Num,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// The path separator `::`.
    PathSep,
    /// The thin arrow `->` (kept whole so `>` never miscounts generics).
    Arrow,
    /// The fat arrow `=>`.
    FatArrow,
    /// Any single punctuation character (`(`, `{`, `.`, `!`, …).
    Punct(char),
}

/// One token: byte span into the stripped source plus its line number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Byte offset of the token start in the stripped source.
    pub start: u32,
    /// Byte length of the token.
    pub len: u32,
    /// 1-based line number.
    pub line: u32,
    /// Token class.
    pub kind: TokKind,
}

impl Tok {
    /// The token's text within its source.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..(self.start + self.len) as usize]
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lexes stripped source into tokens with line numbers.
///
/// Guarantees: every identifier in the input appears as exactly one
/// [`TokKind::Ident`] token (no substring confusion — `MutexLikeStats`
/// is one token, not `Mutex` plus trailing noise), `::` and `->`/`=>`
/// are single tokens, and line numbers match the original source
/// because stripping preserves line structure.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    start: start as u32,
                    len: (i - start) as u32,
                    line,
                    kind: TokKind::Ident,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                // Numeric literal with suffix/underscores/hex chars; a
                // trailing `.` of a float is consumed only when followed
                // by a digit so method calls on integers stay separate.
                while i < b.len()
                    && (is_ident_continue(b[i])
                        || (b[i] == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                toks.push(Tok {
                    start: start as u32,
                    len: (i - start) as u32,
                    line,
                    kind: TokKind::Num,
                });
            }
            b'\'' => {
                // Char literals were stripped, so a quote here starts a
                // lifetime (or is stray punctuation).
                if i + 1 < b.len() && is_ident_start(b[i + 1]) {
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        start: start as u32,
                        len: (i - start) as u32,
                        line,
                        kind: TokKind::Lifetime,
                    });
                } else {
                    toks.push(Tok {
                        start: i as u32,
                        len: 1,
                        line,
                        kind: TokKind::Punct('\''),
                    });
                    i += 1;
                }
            }
            b':' if i + 1 < b.len() && b[i + 1] == b':' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::PathSep,
                });
                i += 2;
            }
            b'-' if i + 1 < b.len() && b[i + 1] == b'>' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::Arrow,
                });
                i += 2;
            }
            b'=' if i + 1 < b.len() && b[i + 1] == b'>' => {
                toks.push(Tok {
                    start: i as u32,
                    len: 2,
                    line,
                    kind: TokKind::FatArrow,
                });
                i += 2;
            }
            c => {
                toks.push(Tok {
                    start: i as u32,
                    len: 1,
                    line,
                    kind: TokKind::Punct(c as char),
                });
                i += 1;
            }
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(&str, TokKind)> {
        lex(src).iter().map(|t| (t.text(src), t.kind)).collect()
    }

    #[test]
    fn idents_and_paths() {
        let src = "std::thread::spawn";
        let got = texts(src);
        assert_eq!(
            got,
            vec![
                ("std", TokKind::Ident),
                ("::", TokKind::PathSep),
                ("thread", TokKind::Ident),
                ("::", TokKind::PathSep),
                ("spawn", TokKind::Ident),
            ]
        );
    }

    #[test]
    fn identifiers_are_atomic() {
        // `MutexLikeStats` must be one token, never a `Mutex` prefix.
        let got = texts("MutexLikeStats my_mpsc_queue");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, "MutexLikeStats");
        assert_eq!(got[1].0, "my_mpsc_queue");
    }

    #[test]
    fn arrows_stay_whole_so_generics_balance() {
        let src = "fn f<F: Fn(u8) -> u8>(g: F) -> Vec<Vec<u8>> {}";
        let toks = lex(src);
        let arrows = toks.iter().filter(|t| t.kind == TokKind::Arrow).count();
        assert_eq!(arrows, 2);
        // `>>` is two distinct `>` tokens so nested generics close twice.
        let gts = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct('>'))
            .count();
        assert_eq!(gts, 3); // fn-generics closer + two Vec closers
    }

    #[test]
    fn lifetimes_are_not_idents() {
        let src = "fn f<'a>(x: &'a str) {}";
        let toks = lex(src);
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n\nc";
        let toks = lex(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn numeric_literals_swallow_suffixes_not_method_calls() {
        let src = "1u32 0x7f 1_000 3.5 7.max(2)";
        let toks = lex(src);
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["1u32", "0x7f", "1_000", "3.5", "7", "2"]);
        // `.max` survives as a method call.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text(src) == "max"));
    }
}

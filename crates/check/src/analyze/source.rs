//! Source preparation shared by every analysis pass.
//!
//! The analyzer is textual (no rustc, no syn): before lexing, each file
//! has its comments, string and char literals blanked by [`strip_code`]
//! and its `#[cfg(test)]` items blanked by [`strip_cfg_test`], both
//! preserving line structure so findings keep their line numbers. This
//! module also owns the workspace file walker and the enum-variant
//! extractor the `variant-coverage` rule uses.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Replaces comments, string literals, and char literals with spaces,
/// preserving line structure so findings keep their line numbers.
/// String *delimiters* are kept (`"x y"` becomes `"   "`) so downstream
/// token scans can still tell `.join(" ")` — a non-empty argument list —
/// from a genuinely blocking `.join()`.
pub fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < b.len() {
        match b[i] {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string r"…" / r#"…"# (any hash count).
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    out.push(' ');
                    out.extend(std::iter::repeat_n(' ', hashes));
                    out.push('"');
                    i = j + 1;
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut h = 0;
                            while k < b.len() && b[k] == '#' && h < hashes {
                                h += 1;
                                k += 1;
                            }
                            if h == hashes {
                                out.push('"');
                                out.extend(std::iter::repeat_n(' ', hashes));
                                i = k;
                                break 'raw;
                            }
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    out.push(b[start]);
                    i = start + 1;
                }
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push(' ');
                        out.push(blank(b[i + 1]));
                        i += 2;
                    } else if b[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal vs. lifetime: a literal closes with a
                // quote after one (possibly escaped) character.
                let is_char = if i + 2 < b.len() && b[i + 1] == '\\' {
                    true
                } else {
                    i + 2 < b.len() && b[i + 2] == '\''
                };
                if is_char {
                    out.push(' ');
                    i += 1;
                    if i < b.len() && b[i] == '\\' {
                        out.push(' ');
                        i += 1;
                        // Escapes like \n, \x7f, \u{..}: skip to quote.
                        while i < b.len() && b[i] != '\'' {
                            out.push(blank(b[i]));
                            i += 1;
                        }
                    } else if i < b.len() {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    if i < b.len() && b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out.into_iter().collect()
}

/// Matches a `#[cfg(test)]` attribute starting at `start` (which must
/// be a `#`), tolerating whitespace between every token — rustfmt and
/// humans both produce variants like `#[cfg( test )]` or `#[ cfg(test) ]`.
/// Returns the index just past the closing `]`. Does not match compound
/// predicates (`#[cfg(not(test))]`, `#[cfg(test, feature = ..)]`).
fn match_cfg_test(chars: &[char], start: usize) -> Option<usize> {
    fn eat(chars: &[char], i: &mut usize, tok: &str) -> bool {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
        let t: Vec<char> = tok.chars().collect();
        if *i + t.len() <= chars.len() && chars[*i..*i + t.len()] == t[..] {
            *i += t.len();
            true
        } else {
            false
        }
    }
    let mut i = start;
    for tok in ["#", "[", "cfg", "(", "test", ")", "]"] {
        if !eat(chars, &mut i, tok) {
            return None;
        }
        // Identifier tokens must end at a word boundary: `test` must
        // not match the prefix of `testing`.
        if matches!(tok, "cfg" | "test")
            && chars.get(i).is_some_and(|c| c.is_alphanumeric() || *c == '_')
        {
            return None;
        }
    }
    Some(i)
}

/// Blanks every `#[cfg(test)]` item (attribute through the matching
/// close brace, or the terminating `;`), preserving line structure.
/// Input should already be comment/string-stripped.
pub fn strip_cfg_test(stripped: &str) -> String {
    let mut out: Vec<char> = stripped.chars().collect();
    let mut i = 0;
    while i < out.len() {
        if out[i] != '#' {
            i += 1;
            continue;
        }
        let Some(after) = match_cfg_test(&out, i) else {
            i += 1;
            continue;
        };
        let start = i;
        let mut j = after;
        // Skip further attributes and the item header to the first `{`
        // or a `;` at zero brace depth (e.g. `#[cfg(test)] mod t;`).
        let mut end = None;
        while j < out.len() {
            match out[j] {
                '{' => {
                    let mut depth = 0usize;
                    while j < out.len() {
                        match out[j] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    end = Some(j + 1);
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    break;
                }
                ';' => {
                    end = Some(j + 1);
                    break;
                }
                _ => j += 1,
            }
        }
        let end = end.unwrap_or(out.len());
        for c in out.iter_mut().take(end).skip(start) {
            if *c != '\n' {
                *c = ' ';
            }
        }
        i = end;
    }
    out.into_iter().collect()
}

/// Extracts the variant names of `enum <name>` from stripped source.
pub fn enum_variants(stripped: &str, name: &str) -> Vec<String> {
    let header = format!("enum {name}");
    let Some(pos) = stripped.find(&header) else {
        return Vec::new();
    };
    let body_start = match stripped[pos..].find('{') {
        Some(off) => pos + off + 1,
        None => return Vec::new(),
    };
    let mut variants = Vec::new();
    let mut depth = 1usize;
    let mut chars = stripped[body_start..].char_indices().peekable();
    let mut at_variant_start = true;
    while let Some((_, c)) = chars.next() {
        match c {
            '{' | '(' => depth += 1,
            '}' | ')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                if depth == 1 {
                    at_variant_start = true;
                }
            }
            ',' if depth == 1 => at_variant_start = true,
            '#' if depth == 1 => {
                // Attribute: skip the bracketed group.
                if let Some((_, '[')) = chars.peek().copied() {
                    let mut d = 0;
                    for (_, c2) in chars.by_ref() {
                        match c2 {
                            '[' => d += 1,
                            ']' => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            c if depth == 1 && at_variant_start && c.is_ascii_uppercase() => {
                let mut ident = String::new();
                ident.push(c);
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_alphanumeric() || c2 == '_' {
                        ident.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                variants.push(ident);
                at_variant_start = false;
            }
            _ => {}
        }
    }
    variants
}

/// Appends every `.rs` file under `dir` (recursively) to `out`; a
/// missing directory contributes nothing.
pub(crate) fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with `/` separators.
pub(crate) fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Walks upward from `start` to the workspace root (the directory
/// containing `crates/proto`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates/proto").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_and_strings_but_keeps_lines() {
        let src = "let a = \"Instant::now()\"; // SystemTime\nlet b = 1;\n";
        let out = strip_code(src);
        assert!(!out.contains("Instant"));
        assert!(!out.contains("SystemTime"));
        assert!(out.contains("let b = 1;"));
        assert_eq!(src.matches('\n').count(), out.matches('\n').count());
    }

    #[test]
    fn strip_handles_raw_strings_and_chars() {
        let src = "let s = r#\"panic!(\"x\")\"#; let c = '\"'; let l: &'static str = s;";
        let out = strip_code(src);
        assert!(!out.contains("panic!"));
        assert!(out.contains("&'static str"));
    }

    #[test]
    fn cfg_test_blocks_are_blanked() {
        let src = "fn live() { now() }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let out = strip_cfg_test(&strip_code(src));
        assert!(out.contains("fn live"));
        assert!(out.contains("fn after"));
        assert!(!out.contains("unwrap"));
        assert_eq!(src.matches('\n').count(), out.matches('\n').count());
    }

    #[test]
    fn cfg_test_spacing_variants_are_blanked() {
        // Spaced attribute tokens, as rustfmt or a human might write.
        let spaced = "fn live() {}\n#[cfg( test )]\nmod tests { fn t() { x.unwrap(); } }\n";
        let out = strip_cfg_test(&strip_code(spaced));
        assert!(out.contains("fn live"));
        assert!(!out.contains("unwrap"));
        // One-line out-of-line test module declaration.
        let one_line = "#[cfg(test)] mod t;\nfn live() { now() }\n";
        let out = strip_cfg_test(&strip_code(one_line));
        assert!(!out.contains("mod t"));
        assert!(out.contains("fn live"));
        // Near-misses must be left alone: compound predicates and
        // longer identifiers are not test-only code.
        let near = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n#[cfg(testing)]\nfn odd() {}\n";
        let out = strip_cfg_test(&strip_code(near));
        assert!(out.contains("unwrap"));
        assert!(out.contains("fn odd"));
    }

    #[test]
    fn enum_variants_are_extracted_with_fields_and_attrs() {
        let src = "
            pub enum Msg {
                /// doc
                Plain,
                #[allow(dead_code)]
                WithFields { a: u32, b: Vec<Inner> },
                Tuple(u8, String),
            }
            pub enum Other { NotMe }
        ";
        let v = enum_variants(&strip_code(src), "Msg");
        assert_eq!(v, vec!["Plain", "WithFields", "Tuple"]);
        assert_eq!(enum_variants(&strip_code(src), "Other"), vec!["NotMe"]);
        assert!(enum_variants(&strip_code(src), "Absent").is_empty());
    }
}

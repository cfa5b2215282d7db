//! The masking lexer under the static analyzer.
//!
//! We cannot depend on `syn` (the workspace builds offline, without a
//! registry), so the analyzer tokenizes a *masked* copy of each source
//! file: comments, string/char literal contents, and raw strings are
//! replaced by spaces, byte-for-byte, preserving every line/column
//! position. Nothing downstream can then be fooled by `"a.unwrap()"`
//! inside a string or a doc comment.

/// Replaces comment and literal contents with spaces, preserving length and
/// newlines exactly.
pub fn mask_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment (incl. doc comments): blank to end of line.
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment, possibly nested.
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                i = mask_raw_string(b, i, &mut out);
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                out.push(b' ');
                i += 1;
                i = mask_plain_string(b, i, &mut out);
            }
            b'"' => {
                i = mask_plain_string(b, i, &mut out);
            }
            b'\'' => {
                i = mask_char_or_lifetime(b, i, &mut out);
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("mask preserves ASCII structure")
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn mask_raw_string(b: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    // Copy the prefix (b, r, #s) as spaces, count the #s.
    if b[i] == b'b' {
        out.push(b' ');
        i += 1;
    }
    out.push(b' '); // 'r'
    i += 1;
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        out.push(b' ');
        i += 1;
        hashes += 1;
    }
    out.push(b' '); // opening quote
    i += 1;
    // Scan for `"` followed by `hashes` `#`s.
    while i < b.len() {
        if b[i] == b'"' {
            let close = (1..=hashes).all(|k| b.get(i + k) == Some(&b'#'));
            if close {
                out.push(b' ');
                i += 1;
                for _ in 0..hashes {
                    out.push(b' ');
                    i += 1;
                }
                return i;
            }
        }
        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
        i += 1;
    }
    i
}

fn mask_plain_string(b: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    out.push(b' '); // opening quote
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' if i + 1 < b.len() => {
                // Keep the newline of a line-continuation escape so line
                // numbers stay aligned with the original source.
                out.push(b' ');
                out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                i += 2;
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                return i;
            }
            b'\n' => {
                out.push(b'\n');
                i += 1;
            }
            _ => {
                out.push(b' ');
                i += 1;
            }
        }
    }
    i
}

fn mask_char_or_lifetime(b: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    // `'a` (lifetime) vs `'x'` / `'\n'` (char literal). A char literal
    // closes within a few bytes; a lifetime never has a closing quote.
    if i + 1 < b.len() && b[i + 1] == b'\\' {
        // Escaped char literal: mask until the closing quote.
        out.push(b' ');
        i += 1;
        while i < b.len() && b[i] != b'\'' {
            out.push(b' ');
            i += 1;
        }
        if i < b.len() {
            out.push(b' ');
            i += 1;
        }
        return i;
    }
    if i + 2 < b.len() && b[i + 2] == b'\'' {
        // Simple char literal 'x'.
        out.extend_from_slice(b"   ");
        return i + 3;
    }
    // Lifetime: keep as-is.
    out.push(b'\'');
    i + 1
}

/// Returns, for each line (0-based), whether it lies inside test-only code:
/// an item annotated `#[cfg(test)]` or `#[test]` (the whole brace-balanced
/// block that follows the attribute). Works on the *masked* source so brace
/// counting cannot be confused by literals.
pub fn test_line_mask(masked: &str) -> Vec<bool> {
    let num_lines = masked.lines().count();
    let mut is_test = vec![false; num_lines];
    let b = masked.as_bytes();
    let mut line_of = Vec::with_capacity(b.len());
    let mut ln = 0usize;
    for &c in b {
        line_of.push(ln);
        if c == b'\n' {
            ln += 1;
        }
    }
    let mut search = 0usize;
    while let Some(found) = find_test_attr(masked, search) {
        // Find the opening brace of the annotated item, then its match.
        let Some(open_rel) = masked[found..].find('{') else {
            break;
        };
        let open = found + open_rel;
        let mut depth = 0usize;
        let mut end = b.len();
        for (k, &c) in b.iter().enumerate().skip(open) {
            if c == b'{' {
                depth += 1;
            } else if c == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        let lo = line_of[found.min(b.len() - 1)];
        let hi = line_of[end.min(b.len() - 1)];
        for flag in is_test.iter_mut().take((hi + 1).min(num_lines)).skip(lo) {
            *flag = true;
        }
        search = end.max(found + 1);
    }
    is_test
}

fn find_test_attr(masked: &str, from: usize) -> Option<usize> {
    let cfg = masked[from..].find("#[cfg(test)]").map(|p| from + p);
    let tst = masked[from..].find("#[test]").map(|p| from + p);
    match (cfg, tst) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\nlet b = 1; /* .unwrap() */\n";
        let m = mask_code(src);
        assert!(!m.contains("unwrap"));
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let s = r#\"a.unwrap()\"#; let c = 'u'; let l: &'static str = \"\";\n";
        let m = mask_code(src);
        assert!(!m.contains("unwrap"));
        assert!(m.contains("'static"), "lifetimes survive: {m}");
        assert_eq!(m.len(), src.len());
    }

    #[test]
    fn string_line_continuation_keeps_newline() {
        let src = "let s = \"a \\\n   b\";\nlet x = 1;\n";
        let m = mask_code(src);
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let m = mask_code(src);
        let t = test_line_mask(&m);
        assert_eq!(t, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn raw_string_with_multiple_hashes_masks_embedded_terminators() {
        // The `"#` inside must not close an `r##"…"##` string.
        let src = "let s = r##\"inner \"# quote .unwrap()\"##; x.unwrap();\n";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches("unwrap").count(), 1, "only the code unwrap: {m}");
        assert!(m.contains("x.unwrap()"));
    }

    #[test]
    fn nested_block_comments_unmask_at_outer_close_only() {
        let src = "a /* one /* two */ still.unwrap() */ b.unwrap()\n";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert!(!m.contains("still"), "inner close must not end outer: {m}");
        assert!(m.contains("b.unwrap()"));
    }

    #[test]
    fn block_comment_newlines_preserved_for_line_numbers() {
        let src = "x /* a\n/* b\n*/ c\n*/ y.unwrap()\n";
        let m = mask_code(src);
        assert_eq!(m.lines().count(), src.lines().count());
        assert!(m.lines().nth(3).unwrap().contains("y.unwrap()"));
    }

    #[test]
    fn byte_string_literals_are_masked() {
        let src = "let a = b\"x.unwrap()\"; let b = br#\"y.unwrap()\"#; z.unwrap();\n";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches("unwrap").count(), 1, "{m}");
        assert!(m.contains("z.unwrap()"));
    }

    #[test]
    fn cfg_test_mod_boundary_excludes_following_items() {
        // Braces inside strings within the test mod must not shift the
        // boundary; `fn after` sits on the first non-test line again.
        let src = "#[cfg(test)]\nmod tests {\n  fn b() { let s = \"}{\"; }\n}\nfn after() {}\n";
        let m = mask_code(src);
        let t = test_line_mask(&m);
        assert_eq!(t, vec![true, true, true, true, false]);
    }

    #[test]
    fn multiple_test_attrs_each_get_their_own_region() {
        let src = "#[test]\nfn t1() {}\nfn mid() {}\n#[test]\nfn t2() {}\n";
        let m = mask_code(src);
        let t = test_line_mask(&m);
        assert_eq!(t, vec![true, true, false, true, true]);
    }

    #[test]
    fn unterminated_block_comment_masks_to_eof_without_panic() {
        let src = "a /* open forever\nstill comment .unwrap()\n";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert!(!m.contains("unwrap"));
    }

    #[test]
    fn escaped_char_literal_masks_fully() {
        let src = "let c = '\\n'; let q = '\\''; d.unwrap();\n";
        let m = mask_code(src);
        assert_eq!(m.len(), src.len());
        assert!(m.contains("d.unwrap()"));
        assert!(!m.contains('\\'));
    }
}

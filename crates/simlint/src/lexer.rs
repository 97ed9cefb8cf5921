//! A minimal Rust lexer: just enough to separate *code* from *comments*
//! and *literal contents* so the rule engine never fires on a `HashMap`
//! mentioned in a doc comment or an `unsafe` inside a raw string.
//!
//! The lexer produces a `MaskedFile`: two same-shaped views of the source
//! where every character is either kept or blanked to a space depending on
//! its class, plus a per-line flag marking `#[cfg(test)]` module spans.
//! Downstream rules do plain substring scanning on the masked views, which
//! keeps them simple without being fooled by:
//!
//! * line comments (`//`, `///`, `//!`),
//! * block comments, **nested** (`/* /* */ */`), including doc blocks,
//! * string literals with escapes (`"…\"…"`),
//! * raw strings with any hash depth (`r"…"`, `r##"…"##`),
//! * byte and raw-byte strings (`b"…"`, `br#"…"#`), C strings (`c"…"`),
//! * char and byte-char literals (`'x'`, `'\''`, `b'\n'`) vs. lifetimes
//!   (`'static`).

/// A source file split into per-character classes, line by line.
#[derive(Debug)]
pub(crate) struct MaskedFile {
    /// Source lines with comment text and literal *contents* blanked to
    /// spaces.  Literal delimiters (quotes, prefixes, hashes) survive so
    /// the code structure stays readable; braces inside strings do not.
    pub code: Vec<String>,
    /// Source lines with everything *but* comment text blanked.  Comment
    /// markers (`//`, `/*`, `*/`) survive, so `// SAFETY: …` and
    /// `// simlint: …` markers can be found verbatim.
    pub comments: Vec<String>,
    /// True for every line inside a `#[cfg(test)]`-attributed item's brace
    /// span (the attribute line itself included).
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Code,
    Comment,
    /// Inside a string/char literal's contents (delimiters are `Code`).
    Literal,
}

/// Lexes `source` into masked per-line views.
pub(crate) fn lex(source: &str) -> MaskedFile {
    let bytes = source.as_bytes();
    let mut classes = vec![Class::Code; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        let rest = &bytes[i..];
        if rest.starts_with(b"//") {
            let end = line_end(bytes, i);
            mark(&mut classes, i, end, Class::Comment);
            i = end;
        } else if rest.starts_with(b"/*") {
            let end = block_comment_end(bytes, i);
            mark(&mut classes, i, end, Class::Comment);
            i = end;
        } else if let Some((prefix_len, hashes)) = raw_string_start(bytes, i) {
            let open = i + prefix_len; // index of the opening quote
            let end = raw_string_end(bytes, open + 1, hashes);
            // Contents only; the prefix, quotes and hashes stay Code.
            mark(&mut classes, open + 1, end, Class::Literal);
            i = if end < bytes.len() {
                end + 1 + hashes // closing quote + hashes
            } else {
                end
            };
        } else if let Some(prefix_len) = plain_string_start(bytes, i) {
            let open = i + prefix_len;
            let end = escaped_end(bytes, open + 1, b'"');
            mark(&mut classes, open + 1, end, Class::Literal);
            i = end.saturating_add(1).min(bytes.len());
        } else if let Some(prefix_len) = char_literal_start(bytes, i) {
            let open = i + prefix_len;
            let end = escaped_end(bytes, open + 1, b'\'');
            mark(&mut classes, open + 1, end, Class::Literal);
            i = end.saturating_add(1).min(bytes.len());
        } else {
            i += 1;
        }
    }

    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut line_code = String::new();
    let mut line_comment = String::new();
    for (idx, &b) in bytes.iter().enumerate() {
        let c = b as char;
        if c == '\n' {
            code.push(std::mem::take(&mut line_code));
            comments.push(std::mem::take(&mut line_comment));
            continue;
        }
        match classes[idx] {
            Class::Code => {
                line_code.push(c);
                line_comment.push(' ');
            }
            Class::Comment => {
                line_code.push(' ');
                line_comment.push(c);
            }
            Class::Literal => {
                line_code.push(' ');
                line_comment.push(' ');
            }
        }
    }
    if !line_code.is_empty() || !line_comment.is_empty() || source.ends_with('\n') {
        code.push(line_code);
        comments.push(line_comment);
    }
    if code.is_empty() {
        code.push(String::new());
        comments.push(String::new());
    }

    let in_test = test_spans(&code);
    MaskedFile {
        code,
        comments,
        in_test,
    }
}

fn mark(classes: &mut [Class], from: usize, to: usize, class: Class) {
    for c in classes.iter_mut().take(to).skip(from) {
        *c = class;
    }
}

fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|p| from + p)
        .unwrap_or(bytes.len())
}

/// End of a (nested) block comment opened at `from`; returns the index one
/// past the final `*/` (or EOF for an unterminated comment).
fn block_comment_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut i = from;
    while i < bytes.len() {
        if bytes[i..].starts_with(b"/*") {
            depth += 1;
            i += 2;
        } else if bytes[i..].starts_with(b"*/") {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return i;
            }
        } else {
            i += 1;
        }
    }
    bytes.len()
}

/// True when the byte before `i` could continue an identifier, meaning a
/// letter at `i` is part of a longer name rather than a literal prefix.
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Detects `r"`, `r#"`, `br"`, `br##"`, `cr"` … at `i`.  Returns the prefix
/// length up to and including the opening quote's position offset (i.e. the
/// opening quote sits at `i + prefix_len`) and the hash count.
fn raw_string_start(bytes: &[u8], i: usize) -> Option<(usize, usize)> {
    if prev_is_ident(bytes, i) {
        return None;
    }
    let mut j = i;
    match bytes.get(j) {
        Some(b'r') => j += 1,
        Some(b'b') | Some(b'c') if bytes.get(j + 1) == Some(&b'r') => j += 2,
        _ => return None,
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&b'"') {
        Some((j - i, hashes))
    } else {
        None
    }
}

/// Index of the closing quote of a raw string whose contents start at
/// `from` (quote must be followed by `hashes` `#`s), or EOF.
fn raw_string_end(bytes: &[u8], from: usize, hashes: usize) -> usize {
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// Detects `"`, `b"` or `c"` at `i`; returns the offset of the opening quote.
fn plain_string_start(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i) {
        Some(b'"') => Some(0),
        Some(b'b') | Some(b'c') if bytes.get(i + 1) == Some(&b'"') && !prev_is_ident(bytes, i) => {
            Some(1)
        }
        _ => None,
    }
}

/// Detects a char/byte-char literal at `i` (as opposed to a lifetime).
/// Returns the offset of the opening quote.
fn char_literal_start(bytes: &[u8], i: usize) -> Option<usize> {
    let quote_at = match bytes.get(i) {
        Some(b'\'') => 0,
        Some(b'b') if bytes.get(i + 1) == Some(&b'\'') && !prev_is_ident(bytes, i) => 1,
        _ => return None,
    };
    let open = i + quote_at;
    // `'\…'` is always a char literal; `'x'` needs the closing quote right
    // after one character; anything else (`'static`, `'a,`) is a lifetime.
    match bytes.get(open + 1) {
        Some(b'\\') => Some(quote_at),
        Some(_) if bytes.get(open + 2) == Some(&b'\'') => Some(quote_at),
        _ => None,
    }
}

/// Index of the unescaped `delim` closing a literal whose contents start at
/// `from`, or EOF.
fn escaped_end(bytes: &[u8], from: usize, delim: u8) -> usize {
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b if b == delim => return i,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// Marks every line covered by a `#[cfg(test)]`-attributed item's braces.
///
/// After the attribute, any further attributes are skipped; the item's span
/// runs from the attribute line to the brace that balances the first `{`
/// encountered (a `;` before any `{` — e.g. `mod tests;` — ends the search
/// with only the attribute lines marked).
fn test_spans(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let flat: Vec<(usize, char)> = code
        .iter()
        .enumerate()
        .flat_map(|(ln, l)| {
            l.chars()
                .map(move |c| (ln, c))
                .chain(std::iter::once((ln, '\n')))
        })
        .collect();
    let text: String = flat.iter().map(|&(_, c)| c).collect();
    let mut search = 0usize;
    while let Some(found) = find_cfg_test(&text[search..]) {
        let attr_start = search + found.0;
        let mut pos = search + found.1; // one past the attribute's `]`
                                        // Skip whitespace and further attributes.
        loop {
            while text[pos..].starts_with(|c: char| c.is_whitespace()) {
                pos += 1;
            }
            if text[pos..].starts_with('#') {
                match text[pos..].find(']') {
                    Some(close) => pos += close + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        // Find the item's opening brace (bail at `;` or EOF).
        let mut open = None;
        for (off, c) in text[pos..].char_indices() {
            match c {
                '{' => {
                    open = Some(pos + off);
                    break;
                }
                ';' => break,
                _ => {}
            }
        }
        let end = match open {
            Some(open_at) => {
                let mut depth = 0usize;
                let mut end_at = text.len();
                for (off, c) in text[open_at..].char_indices() {
                    match c {
                        '{' => depth += 1,
                        '}' => {
                            depth -= 1;
                            if depth == 0 {
                                end_at = open_at + off;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                end_at
            }
            None => pos,
        };
        let first_line = flat[attr_start.min(flat.len() - 1)].0;
        let last_line = flat[end.min(flat.len() - 1)].0;
        for flag in in_test.iter_mut().take(last_line + 1).skip(first_line) {
            *flag = true;
        }
        search = end.max(search + found.1);
    }
    in_test
}

/// Finds `#[cfg(test)]` (whitespace-tolerant) in `text`; returns the byte
/// range (start, one-past-`]`).
fn find_cfg_test(text: &str) -> Option<(usize, usize)> {
    let mut from = 0usize;
    while let Some(hash) = text[from..].find('#') {
        let start = from + hash;
        let rest = &text[start..];
        if let Some(close) = rest.find(']') {
            if rest[1..].trim_start().starts_with('[') {
                let inner: String = rest[..close]
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .collect();
                if inner == "#[cfg(test)" {
                    return Some((start, start + close + 1));
                }
            }
            from = start + 1;
        } else {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masked(src: &str) -> MaskedFile {
        lex(src)
    }

    #[test]
    fn line_comments_are_separated_from_code() {
        let m = masked("let x = 1; // trailing HashMap note\n");
        assert!(m.code[0].contains("let x = 1;"));
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.comments[0].contains("HashMap note"));
    }

    #[test]
    fn nested_block_comments_close_at_the_outermost_level() {
        let src = "a(); /* outer /* inner */ still comment */ b();\n";
        let m = masked(src);
        assert!(m.code[0].contains("a();"));
        assert!(
            m.code[0].contains("b();"),
            "code after the nested close was eaten: {:?}",
            m.code[0]
        );
        assert!(!m.code[0].contains("still"));
        assert!(m.comments[0].contains("inner"));
        assert!(m.comments[0].contains("still comment"));
    }

    #[test]
    fn multi_line_nested_block_comment_spans_lines() {
        let src = "/* l1 /* l2\n l3 */ l4\n*/ code();\n";
        let m = masked(src);
        assert!(m.code[0].trim().is_empty());
        assert!(m.code[1].trim().is_empty());
        assert!(m.code[2].contains("code();"));
    }

    #[test]
    fn raw_strings_containing_keywords_are_masked() {
        let src = r####"let s = r#"unsafe { HashMap::new() } Instant::now()"#; touch();"####;
        let m = masked(src);
        assert!(!m.code[0].contains("unsafe"));
        assert!(!m.code[0].contains("HashMap"));
        assert!(!m.code[0].contains("Instant"));
        assert!(m.code[0].contains("let s = r#\""));
        assert!(m.code[0].contains("touch();"));
    }

    #[test]
    fn raw_string_hash_depth_is_respected() {
        // A `"#` inside an `r##"…"##` string must not close it.
        let src = "let s = r##\"inner \"# not closed HashMap\"##; after();\n";
        let m = masked(src);
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.code[0].contains("after();"));
    }

    #[test]
    fn plain_strings_with_escaped_quotes_stay_closed_correctly() {
        let src = "let s = \"a \\\" unsafe b\"; after();\n";
        let m = masked(src);
        assert!(!m.code[0].contains("unsafe"));
        assert!(m.code[0].contains("after();"));
    }

    #[test]
    fn byte_strings_and_byte_chars_are_literals() {
        let src = "let b = b\"unsafe\"; let c = b'u'; let r = br#\"HashMap\"#; x();\n";
        let m = masked(src);
        assert!(!m.code[0].contains("unsafe"));
        assert!(!m.code[0].contains("HashMap"));
        assert!(m.code[0].contains("x();"));
    }

    #[test]
    fn char_literals_do_not_swallow_code_but_lifetimes_are_code() {
        let src = "let q = '\\''; let l: &'static str = x; fn f<'a>(v: &'a u8) {}\n";
        let m = masked(src);
        assert!(
            m.code[0].contains("'static"),
            "lifetime mangled: {:?}",
            m.code[0]
        );
        assert!(m.code[0].contains("&'a u8"));
        // The escaped quote char's contents are masked.
        assert!(m.code[0].contains("let q ="));
    }

    #[test]
    fn char_literal_containing_quote_does_not_open_a_string() {
        let src = "let c = '\"'; let s = \"text unsafe\"; after();\n";
        let m = masked(src);
        assert!(!m.code[0].contains("text unsafe"));
        assert!(m.code[0].contains("after();"));
    }

    #[test]
    fn cfg_test_module_span_is_marked_to_its_closing_brace() {
        let src = "\
fn library() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    fn helper() {}\n\
    mod nested { fn deeper() {} }\n\
}\n\
fn also_library() {}\n";
        let m = masked(src);
        assert!(!m.in_test[0], "library line marked as test");
        assert!(m.in_test[1], "attribute line not marked");
        assert!(
            m.in_test[2] && m.in_test[3] && m.in_test[4],
            "module body not marked"
        );
        assert!(m.in_test[5], "closing brace not marked");
        assert!(!m.in_test[6], "code after the module leaked into the span");
    }

    #[test]
    fn cfg_test_span_ignores_braces_in_strings_and_comments() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    const S: &str = \"}\"; // a } in a comment\n\
    fn f() {}\n\
}\n\
fn library() {}\n";
        let m = masked(src);
        assert!(m.in_test[3], "string brace closed the span early");
        assert!(m.in_test[4]);
        assert!(!m.in_test[5]);
    }

    #[test]
    fn cfg_test_with_stacked_attributes_still_finds_the_item() {
        let src = "\
#[cfg(test)]\n\
#[allow(dead_code)]\n\
mod tests {\n\
    fn f() {}\n\
}\n\
fn lib() {}\n";
        let m = masked(src);
        assert!(m.in_test[2] && m.in_test[3] && m.in_test[4]);
        assert!(!m.in_test[5]);
    }

    #[test]
    fn cfg_test_on_outline_module_marks_only_the_declaration() {
        let src = "#[cfg(test)]\nmod tests;\nfn lib() {}\n";
        let m = masked(src);
        assert!(!m.in_test[2]);
    }

    #[test]
    fn non_test_cfg_attributes_are_not_test_spans() {
        let src = "#[cfg(feature = \"x\")]\nmod gated {\n    fn f() {}\n}\n";
        let m = masked(src);
        assert!(m.in_test.iter().all(|&t| !t));
    }
}

//! A minimal Rust lexer for lint matching.
//!
//! The build environment vendors no `syn`, so tt-lint works the way
//! rustc's own `tidy` tool does: it strips comments, string literals,
//! and char literals out of the source (preserving line structure),
//! then pattern-matches the remaining *code* text. Along the way it
//! records the three pieces of structure the lints need:
//!
//! - `// tt-lint: allow(<lint>) — <why>` directives and which code line
//!   each one governs,
//! - the line spans of `#[cfg(test)]`-gated items (skipped by every
//!   lint — tests may use wall clocks, files, and `unwrap` freely),
//! - the line spans of `impl Machine for …` blocks (the effect-boundary
//!   lint only fires inside them).

/// One source line with literals and comments blanked out.
#[derive(Debug, Clone)]
pub struct CodeLine {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The line's code text; every comment/string/char byte is a space.
    pub code: String,
}

/// An inline `// tt-lint: allow(...)` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line the directive governs (its own line when trailing
    /// code, otherwise the next code-bearing line).
    pub line: usize,
    /// The lint name inside `allow(...)`.
    pub lint: String,
    /// The justification text after the closing paren (may be empty —
    /// the checker rejects empty justifications).
    pub justification: String,
    /// Whether this was `allow-file(...)`, covering the whole file.
    pub whole_file: bool,
    /// Line the directive itself appears on (for diagnostics).
    pub at: usize,
}

/// The lexed view of one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code lines in order (all lines appear, possibly blank).
    pub lines: Vec<CodeLine>,
    /// Inline allow directives.
    pub directives: Vec<Directive>,
}

impl Lexed {
    /// 1-based line spans (inclusive) of `#[cfg(test)]`-gated items.
    pub fn test_spans(&self) -> Vec<(usize, usize)> {
        self.attribute_spans("#[cfg(test)]")
    }

    /// 1-based line spans (inclusive) of `impl … Machine for …` blocks.
    pub fn machine_impl_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let flat = self.flatten();
        let mut from = 0;
        while let Some(pos) = find_from(&flat.text, "impl", from) {
            from = pos + 4;
            if !is_word_boundary(&flat.text, pos, 4) {
                continue;
            }
            // Look at the text between `impl` and its opening brace: a
            // machine impl reads `impl [proto::]Machine for Type {`.
            let Some(brace) = flat.text[pos..].find('{').map(|i| pos + i) else {
                continue;
            };
            let header = &flat.text[pos..brace];
            let is_machine = header.contains(" Machine for ")
                || header.contains(" proto::Machine for ")
                || header.contains("\u{20}Machine for");
            if !is_machine {
                continue;
            }
            if let Some(close) = matching_brace(&flat.text, brace) {
                spans.push((flat.line_of(pos), flat.line_of(close)));
                from = close;
            }
        }
        spans
    }

    fn attribute_spans(&self, attr: &str) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let flat = self.flatten();
        let mut from = 0;
        while let Some(pos) = find_from(&flat.text, attr, from) {
            from = pos + attr.len();
            // The attribute gates the next item: skip any further
            // attributes, then brace-match the item's block. An item
            // without one (`use …;`, `const X: u8 = 1;`) ends at its `;`.
            let Some(end) = item_body_or_end(&flat.text, from) else {
                continue;
            };
            if flat.text.as_bytes()[end] == b';' {
                spans.push((flat.line_of(pos), flat.line_of(end)));
                from = end;
            } else if let Some(close) = matching_brace(&flat.text, end) {
                spans.push((flat.line_of(pos), flat.line_of(close)));
                from = close;
            }
        }
        spans
    }

    fn flatten(&self) -> Flat {
        let mut text = String::new();
        let mut starts = Vec::with_capacity(self.lines.len());
        for line in &self.lines {
            starts.push((text.len(), line.number));
            text.push_str(&line.code);
            text.push('\n');
        }
        Flat { text, starts }
    }
}

/// One identifier or punctuation character of the code text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The identifier, or a single punctuation character.
    pub text: &'a str,
    /// 1-based line.
    pub line: usize,
}

impl Token<'_> {
    /// True for an identifier or keyword (not punctuation).
    pub fn is_ident(&self) -> bool {
        self.text.starts_with(|c: char| c.is_alphabetic() || c == '_')
    }
}

impl Lexed {
    /// The code's identifiers and punctuation in order. Numbers and
    /// whitespace are dropped; `::` is two `:` tokens.
    pub fn tokens(&self) -> Vec<Token<'_>> {
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        let mut out = Vec::new();
        for line in &self.lines {
            let code = line.code.as_str();
            let mut chars = code.char_indices().peekable();
            while let Some((i, c)) = chars.next() {
                let mut end = i + c.len_utf8();
                if is_ident(c) {
                    while let Some((j, d)) = chars.next_if(|&(_, d)| is_ident(d)) {
                        end = j + d.len_utf8();
                    }
                    if c.is_ascii_digit() {
                        continue;
                    }
                } else if c.is_whitespace() {
                    continue;
                }
                out.push(Token { text: &code[i..end], line: line.number });
            }
        }
        out
    }
}

struct Flat {
    text: String,
    /// (byte offset of line start, 1-based line number)
    starts: Vec<(usize, usize)>,
}

impl Flat {
    fn line_of(&self, offset: usize) -> usize {
        match self.starts.binary_search_by_key(&offset, |&(o, _)| o) {
            Ok(i) => self.starts[i].1,
            Err(0) => 1,
            Err(i) => self.starts[i - 1].1,
        }
    }
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..)?.find(needle).map(|i| from + i)
}

/// True when `text[pos..pos + len]` is not embedded in a larger identifier.
pub fn is_word_boundary(text: &str, pos: usize, len: usize) -> bool {
    let before = text[..pos].chars().next_back();
    let after = text[pos + len..].chars().next();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    before.is_none_or(|c| !is_ident(c)) && after.is_none_or(|c| !is_ident(c))
}

/// Byte offset of the first `{` or `;` at or after `from` that sits
/// outside any `(…)` or `[…]` (so `[u8; 4]` in a signature is skipped).
fn item_body_or_end(text: &str, from: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate().skip(from) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'{' | b';' if depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// Byte offset of the `}` matching the `{` at `open`, if balanced.
fn matching_brace(text: &str, open: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Lexes `source` into blanked code lines plus directives.
pub fn lex(source: &str) -> Lexed {
    let mut lines: Vec<CodeLine> = Vec::new();
    let mut directives: Vec<Directive> = Vec::new();
    // Directives written on their own line govern the next code line;
    // park them here until that line shows up.
    let mut pending: Vec<Directive> = Vec::new();

    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line_no = 1usize;
    let mut code = String::new();
    let mut line_had_code = false;

    macro_rules! finish_line {
        () => {{
            if line_had_code {
                for mut d in pending.drain(..) {
                    d.line = line_no;
                    directives.push(d);
                }
            }
            lines.push(CodeLine { number: line_no, code: std::mem::take(&mut code) });
            line_had_code = false;
            line_no += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                finish_line!();
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment: capture a directive if present, then blank
                // out to end of line.
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let comment: String = chars[start..i].iter().collect();
                if let Some(mut d) = parse_directive(&comment, line_no) {
                    if line_had_code {
                        d.line = line_no;
                        directives.push(d);
                    } else {
                        pending.push(d);
                    }
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment (nesting, multi-line).
                let mut depth = 1;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        finish_line!();
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                line_had_code = true;
                code.push(' ');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            finish_line!();
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            'r' | 'b' if starts_raw_string(&chars, i) => {
                line_had_code = true;
                code.push(' ');
                // Skip the prefix up to and including the opening quote,
                // counting `#`s.
                let mut j = i + 1;
                if chars.get(j) == Some(&'"') || chars.get(j) == Some(&'#') {
                } else {
                    j += 1; // the `r` of a `br` prefix
                }
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                debug_assert_eq!(chars.get(j), Some(&'"'));
                i = j + 1;
                // Scan for `"` followed by `hashes` × `#`.
                'raw: while i < chars.len() {
                    if chars[i] == '\n' {
                        finish_line!();
                        i += 1;
                        continue;
                    }
                    if chars[i] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. A char literal is `'\…'` or
                // `'x'`; anything else (`'a`, `'static`) is a lifetime.
                line_had_code = true;
                if chars.get(i + 1) == Some(&'\\') {
                    code.push(' ');
                    i += 2;
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if chars.get(i + 2) == Some(&'\'') {
                    code.push(' ');
                    i += 3;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            _ => {
                if !c.is_whitespace() {
                    line_had_code = true;
                }
                code.push(c);
                i += 1;
            }
        }
    }
    if !code.is_empty() || line_had_code {
        if line_had_code {
            for mut d in pending.drain(..) {
                d.line = line_no;
                directives.push(d);
            }
        }
        lines.push(CodeLine { number: line_no, code });
    }
    Lexed { lines, directives }
}

fn starts_raw_string(chars: &[char], i: usize) -> bool {
    // r"…", r#"…"#, br"…", br#"…"# — but not an identifier like `radius`.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    if chars[i] == 'b' {
        if chars.get(j) != Some(&'r') {
            return false;
        }
        j += 1;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

pub(crate) fn parse_directive(comment: &str, at: usize) -> Option<Directive> {
    let body = comment.trim_start_matches(['/', '#']).trim();
    let rest = body.strip_prefix("tt-lint:")?.trim();
    let (whole_file, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        return None;
    };
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim();
    let justification = tail.trim_start_matches(['—', '-', ':', ' ']).trim().to_string();
    Some(Directive { line: at, lint, justification, whole_file, at })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lexed = lex("let x = \"HashMap\"; // HashMap in a comment\nlet y = HashMap::new();\n");
        assert!(!lexed.lines[0].code.contains("HashMap"));
        assert!(lexed.lines[1].code.contains("HashMap"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let lexed = lex("let x = r#\"Instant::now()\"#;\nInstant::now();\n");
        assert!(!lexed.lines[0].code.contains("Instant"));
        assert!(lexed.lines[1].code.contains("Instant"));
    }

    #[test]
    fn lifetimes_survive_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        assert!(lexed.lines[0].code.contains("'a"));
        assert!(!lexed.lines[0].code.contains("'x'"));
    }

    #[test]
    fn trailing_directive_governs_its_own_line() {
        let lexed =
            lex("let m = HashMap::new(); // tt-lint: allow(hash-collections) — lookups only\n");
        assert_eq!(lexed.directives.len(), 1);
        assert_eq!(lexed.directives[0].line, 1);
        assert_eq!(lexed.directives[0].lint, "hash-collections");
        assert_eq!(lexed.directives[0].justification, "lookups only");
    }

    #[test]
    fn standalone_directive_governs_next_code_line() {
        let src = "// tt-lint: allow(wall-clock) — bench harness timing\n// another comment\nlet t = Instant::now();\n";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 1);
        assert_eq!(lexed.directives[0].line, 3);
    }

    #[test]
    fn cfg_test_spans_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.test_spans(), vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_spans_end_at_a_bodiless_item() {
        let src =
            "#[cfg(test)]\nmod hex;\nfn live(x: [u8; 2]) {}\n#[cfg(test)]\nfn t(x: [u8; 2]) {\n}\n";
        assert_eq!(lex(src).test_spans(), vec![(1, 2), (4, 6)]);
    }

    #[test]
    fn machine_impl_spans_found() {
        let src = "struct M;\nimpl Machine for M {\n    fn f() {}\n}\nimpl Other for M {\n}\n";
        let lexed = lex(src);
        assert_eq!(lexed.machine_impl_spans(), vec![(2, 4)]);
    }

    #[test]
    fn block_comments_span_lines() {
        let lexed = lex("/* HashMap\nHashMap */ let x = 1;\n");
        assert!(!lexed.lines[0].code.contains("HashMap"));
        assert!(!lexed.lines[1].code.contains("HashMap"));
        assert!(lexed.lines[1].code.contains("let x"));
    }
}

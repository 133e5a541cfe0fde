//! Dependency-free Rust lexer producing a token stream with line/column
//! spans — the foundation the token rules and the call-graph hot-path
//! propagation are built on.
//!
//! The lexer is deliberately smaller than `rustc`'s: it distinguishes
//! exactly the categories the lint rules care about — identifiers,
//! lifetimes, literals (string / raw string / byte string / char / byte /
//! number), and single-character punctuation — and it gets the hard
//! tokenization cases right so no rule can false-positive on text inside a
//! literal or comment:
//!
//! - line comments and **nested** block comments (`/* /* */ */`);
//! - string literals with escapes, spanning lines;
//! - raw strings `r"…"` / `r#"…"#` / `r##"…"##` (contents may contain
//!   `//`, braces, and quotes without ending the literal);
//! - byte strings `b"…"`, raw byte strings `br#"…"#`;
//! - char literals vs. lifetimes (`'{'` is a char, `'static` a lifetime);
//! - raw identifiers (`r#match`).
//!
//! Multi-character operators are emitted as adjacent single-character
//! `Punct` tokens (`::` is `:` `:`); pattern matchers in the rule passes
//! match token *sequences*, so this costs nothing and keeps the lexer
//! trivial to verify.

/// Token categories. Comments and whitespace are not emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#match` → `match`).
    Ident,
    /// Lifetime (`'static` → text `static`, without the quote).
    Lifetime,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `br"…"`).
    /// `text` is empty — contents never participate in lint matching.
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`). `text` is empty.
    Char,
    /// Numeric literal (`1_000u64`, `0xff`). `text` is the literal.
    Num,
    /// Single punctuation character (`{`, `:`, `!`, …).
    Punct,
}

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Identifier/lifetime/number text; the character for `Punct`; empty
    /// for string/char literals.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 0-based column (in chars) of the token's first character.
    pub col: usize,
}

impl Token {
    /// Shorthand: is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Shorthand: is this a punctuation token with exactly this character?
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes() == [ch as u8]
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into a token stream. Never fails: unterminated literals and
/// comments extend to end-of-input (the analyzer lints work-in-progress
/// code, so resilience beats strictness).
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 0usize;

    // Advance one char, maintaining line/col.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 0;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tl, tc) = (line, col);

        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                while i < chars.len() && chars[i] != '\n' {
                    bump!();
                }
                continue;
            }
            if chars[i + 1] == '*' {
                bump!();
                bump!();
                let mut depth = 1u32;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        bump!();
                        bump!();
                    } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        bump!();
                        bump!();
                    } else {
                        bump!();
                    }
                }
                continue;
            }
        }

        // Identifier-led forms: plain idents, raw idents, and the string /
        // char prefixes (`r"`, `r#"`, `b"`, `br#"`, `b'`).
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                bump!();
            }
            let word: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();

            // Raw identifier r#name (but NOT a raw string r#"…").
            if word == "r" && next == Some('#') {
                let after = chars.get(i + 1).copied();
                if after.is_some_and(is_ident_start) {
                    bump!(); // '#'
                    let ns = i;
                    while i < chars.len() && is_ident_char(chars[i]) {
                        bump!();
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: chars[ns..i].iter().collect(),
                        line: tl,
                        col: tc,
                    });
                    continue;
                }
            }

            // String/char literal prefixes.
            let raw_prefix = word == "r" || word == "br" || word == "rb";
            let byte_str = word == "b" && next == Some('"');
            let byte_char = word == "b" && next == Some('\'');
            if raw_prefix && (next == Some('"') || next == Some('#')) {
                // Raw (byte) string: count hashes, then scan to `"` + hashes.
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    bump!();
                }
                if chars.get(i) == Some(&'"') {
                    bump!(); // opening quote
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut ok = true;
                            for k in 0..hashes {
                                if chars.get(i + 1 + k) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                    tokens.push(Token {
                        kind: TokenKind::Str,
                        text: String::new(),
                        line: tl,
                        col: tc,
                    });
                    continue;
                }
                // `r#` not followed by a quote: fall through as ident
                // (the consumed hashes become punct on the next loop).
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: word,
                    line: tl,
                    col: tc,
                });
                for _ in 0..hashes {
                    tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: "#".to_string(),
                        line: tl,
                        col: tc,
                    });
                }
                continue;
            }
            if byte_str {
                bump!(); // opening quote
                scan_string_body(&chars, &mut i, &mut line, &mut col);
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: String::new(),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            if byte_char {
                bump!(); // opening quote
                scan_char_body(&chars, &mut i, &mut line, &mut col);
                tokens.push(Token {
                    kind: TokenKind::Char,
                    text: String::new(),
                    line: tl,
                    col: tc,
                });
                continue;
            }

            tokens.push(Token {
                kind: TokenKind::Ident,
                text: word,
                line: tl,
                col: tc,
            });
            continue;
        }

        // Numbers (suffixes and `_` separators fold into the token; a
        // trailing fractional part after `.` is left to punct+num, which is
        // fine for lint purposes).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                bump!();
            }
            tokens.push(Token {
                kind: TokenKind::Num,
                text: chars[start..i].iter().collect(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // Strings.
        if c == '"' {
            bump!();
            scan_string_body(&chars, &mut i, &mut line, &mut col);
            tokens.push(Token {
                kind: TokenKind::Str,
                text: String::new(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // `'`: char literal or lifetime. A quote followed by an ident char
        // is a char literal only if a closing quote follows the (possibly
        // escaped) content — `'{'`, `'a'`, `'\n'` are chars; `'static` is a
        // lifetime. A quote followed by non-ident punctuation (`'{'`) is
        // always a char literal.
        if c == '\'' {
            let n1 = chars.get(i + 1).copied();
            let is_lifetime = match n1 {
                Some(n) if is_ident_start(n) => {
                    // Lifetime unless the ident is one char followed by `'`.
                    chars.get(i + 2) != Some(&'\'')
                }
                _ => false,
            };
            if is_lifetime {
                bump!(); // quote
                let ns = i;
                while i < chars.len() && is_ident_char(chars[i]) {
                    bump!();
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: chars[ns..i].iter().collect(),
                    line: tl,
                    col: tc,
                });
                continue;
            }
            bump!(); // opening quote
            scan_char_body(&chars, &mut i, &mut line, &mut col);
            tokens.push(Token {
                kind: TokenKind::Char,
                text: String::new(),
                line: tl,
                col: tc,
            });
            continue;
        }

        // Everything else: one punct char per token.
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line: tl,
            col: tc,
        });
        bump!();
    }
    tokens
}

/// Consume a (byte) string body after the opening quote, through the
/// closing quote, honoring `\"` escapes.
fn scan_string_body(chars: &[char], i: &mut usize, line: &mut usize, col: &mut usize) {
    let bump = |i: &mut usize, line: &mut usize, col: &mut usize| {
        if chars[*i] == '\n' {
            *line += 1;
            *col = 0;
        } else {
            *col += 1;
        }
        *i += 1;
    };
    while *i < chars.len() {
        match chars[*i] {
            '\\' => {
                bump(i, line, col);
                if *i < chars.len() {
                    bump(i, line, col);
                }
            }
            '"' => {
                bump(i, line, col);
                return;
            }
            _ => bump(i, line, col),
        }
    }
}

/// Consume a char/byte-literal body after the opening quote, through the
/// closing quote, honoring escapes (`'\''`, `'\u{7f}'`).
fn scan_char_body(chars: &[char], i: &mut usize, line: &mut usize, col: &mut usize) {
    let bump = |i: &mut usize, line: &mut usize, col: &mut usize| {
        if chars[*i] == '\n' {
            *line += 1;
            *col = 0;
        } else {
            *col += 1;
        }
        *i += 1;
    };
    if *i < chars.len() && chars[*i] == '\\' {
        bump(i, line, col);
        if *i < chars.len() {
            bump(i, line, col);
        }
    } else if *i < chars.len() && chars[*i] != '\'' {
        bump(i, line, col);
    }
    while *i < chars.len() && chars[*i] != '\'' {
        bump(i, line, col);
    }
    if *i < chars.len() {
        bump(i, line, col); // closing quote
    }
}

/// Render the token stream back into per-line code text with comments and
/// literal *contents* removed: each token is placed at its original column
/// (string literals become `""`, char literals vanish, lifetimes keep
/// their name), so line numbers AND columns of surviving code are exact.
/// This is the v2 replacement for the v1 line-oriented `strip_code` scan —
/// same signature, but derived from the span-accurate token stream.
pub fn strip_code(src: &str) -> Vec<String> {
    let n_lines = src.lines().count().max(if src.is_empty() { 0 } else { 1 });
    let mut lines: Vec<Vec<char>> = vec![Vec::new(); n_lines];
    let mut place = |line: usize, col: usize, text: &str| {
        let Some(buf) = lines.get_mut(line.saturating_sub(1)) else {
            return;
        };
        let end = col + text.chars().count();
        if buf.len() < end {
            buf.resize(end, ' ');
        }
        for (k, ch) in text.chars().enumerate() {
            buf[col + k] = ch;
        }
    };
    for t in lex(src) {
        match t.kind {
            TokenKind::Str => place(t.line, t.col, "\"\""),
            TokenKind::Char => {}
            TokenKind::Lifetime => place(t.line, t.col + 1, &t.text),
            _ => place(t.line, t.col, &t.text),
        }
    }
    lines
        .into_iter()
        .map(|b| {
            let s: String = b.into_iter().collect();
            s.trim_end().to_string()
        })
        .collect()
}

//! A small comment-, string- and char-literal-aware Rust lexer.
//!
//! The rule engine in this crate works on token streams, not on raw text:
//! a `HashMap` mentioned in a doc comment, a `panic!` inside a string
//! literal, or an `unwrap()` in an example embedded in `//!` docs must not
//! trip a lint. This lexer produces exactly the token classes the rules
//! need — identifiers, punctuation, literals and (crucially, for waiver
//! parsing) comments — with line numbers, and nothing more. It is not a
//! full Rust lexer: it does not distinguish keywords from identifiers and
//! it folds all bracket kinds into plain punctuation tokens, leaving
//! structure recovery (brace matching, attribute scanning) to the callers
//! in `source.rs` and `rules.rs`.

/// The class of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers, with the
    /// `r#` prefix stripped).
    Ident,
    /// A lifetime such as `'a` (the quote is not part of the text).
    Lifetime,
    /// An integer or float literal, including suffixes.
    Number,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`). The text
    /// is the raw source slice including delimiters.
    Str,
    /// A character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A `//` comment (the text includes the slashes, excludes the
    /// newline). Doc comments (`///`, `//!`) are also this kind.
    LineComment,
    /// A `/* … */` comment, nesting handled.
    BlockComment,
    /// A single punctuation character (`.`, `:`, `!`, `{`, …). Multi-char
    /// operators appear as consecutive tokens.
    Punct,
}

/// One token: kind, source text and 1-based line of its first character.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Source text of the token (see [`TokenKind`] for per-kind details).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// True when the token is an identifier with exactly this text.
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True when the token is a punctuation character equal to `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }

    /// True for either comment kind.
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lex `source` into a token stream.
///
/// The lexer never fails: malformed input (an unterminated string, a stray
/// control character) degrades to best-effort tokens rather than an error,
/// because lint tools must keep going on code that `rustc` itself would
/// reject.
pub(crate) fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.char_indices().collect(),
        source,
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    chars: Vec<(usize, char)>,
    source: &'a str,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn byte_at(&self, index: usize) -> usize {
        self.chars
            .get(index)
            .map(|&(b, _)| b)
            .unwrap_or(self.source.len())
    }

    fn slice(&self, from: usize, to: usize) -> String {
        self.source[self.byte_at(from)..self.byte_at(to)].to_string()
    }

    /// Advance one char, keeping the line counter honest.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        if c == '\n' {
            self.line += 1;
        }
        self.pos += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            let start = self.pos;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(start, line),
                '/' if self.peek(1) == Some('*') => self.block_comment(start, line),
                '"' => self.string_literal(start, line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string_literal(start, line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(start, line);
                }
                'b' if self.peek(1) == Some('r') && matches!(self.peek(2), Some('"' | '#')) => {
                    self.bump();
                    self.bump();
                    self.raw_string(start, line);
                }
                'r' if matches!(self.peek(1), Some('"' | '#')) => {
                    // `r"…"`, `r#"…"#` or a raw identifier `r#ident`.
                    if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) {
                        self.bump();
                        self.bump();
                        self.ident(self.pos, line);
                    } else {
                        self.bump();
                        self.raw_string(start, line);
                    }
                }
                '\'' => self.quote(start, line),
                c if is_ident_start(c) => self.ident(start, line),
                c if c.is_ascii_digit() => self.number(start, line),
                _ => {
                    self.bump();
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.tokens
    }

    fn line_comment(&mut self, start: usize, line: u32) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::LineComment, text, line);
    }

    fn block_comment(&mut self, start: usize, line: u32) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: degrade gracefully
            }
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::BlockComment, text, line);
    }

    fn string_literal(&mut self, start: usize, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::Str, text, line);
    }

    fn raw_string(&mut self, start: usize, line: u32) {
        // Cursor is on the first `#` or the opening quote.
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::Str, text, line);
    }

    fn char_literal(&mut self, start: usize, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::Char, text, line);
    }

    /// A `'` is either a char literal or a lifetime. `'a'` is a char;
    /// `'a` followed by anything but `'` is a lifetime.
    fn quote(&mut self, start: usize, line: u32) {
        let next = self.peek(1);
        if next.is_some_and(is_ident_start) {
            // Find where the identifier run ends.
            let mut ahead = 2;
            while self.peek(ahead).is_some_and(is_ident_continue) {
                ahead += 1;
            }
            if self.peek(ahead) == Some('\'') {
                self.char_literal(start, line); // 'x' (single-char ident run)
            } else {
                self.bump(); // quote
                let ident_start = self.pos;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                let text = self.slice(ident_start, self.pos);
                self.push(TokenKind::Lifetime, text, line);
            }
        } else {
            self.char_literal(start, line); // '\n', '(', …
        }
    }

    fn ident(&mut self, start: usize, line: u32) {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self, start: usize, line: u32) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        // A float's fractional part: `.` followed by a digit. `1..n` (range)
        // and `1.max(2)` (method call) keep the dot as punctuation.
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
        }
        let text = self.slice(start, self.pos);
        self.push(TokenKind::Number, text, line);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = 1.5 + a..b;");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["let", "x", "=", "1.5", "+", "a", ".", ".", "b", ";"]
        );
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = lex("// has unwrap() inside\nfoo /* and panic! */ bar");
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert!(toks[0].text.contains("unwrap"));
        assert!(toks[1].is_ident("foo"));
        assert_eq!(toks[2].kind, TokenKind::BlockComment);
        assert!(toks[3].is_ident("bar"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn strings_swallow_code_like_text() {
        let toks = lex(r#"let s = "HashMap::new() // not a comment"; y"#);
        assert_eq!(toks[3].kind, TokenKind::Str);
        assert!(toks.iter().all(|t| !t.is_ident("HashMap")));
        assert!(toks.last().unwrap().is_ident("y"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = lex(r###"r#"quote " inside"# tail"###);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert!(toks[1].is_ident("tail"));
        let toks = lex(r#"br"bytes" tail"#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert!(toks[1].is_ident("tail"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn raw_identifiers() {
        let toks = lex("r#type x");
        assert!(toks[0].is_ident("type"));
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn byte_string_char_and_unterminated_input_degrade() {
        let toks = lex("b'x' b\"bs\" \"unterminated");
        assert_eq!(toks[0].kind, TokenKind::Char);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[2].kind, TokenKind::Str);
    }
}

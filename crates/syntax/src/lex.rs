//! The ENT lexer: source text to a token stream.

use std::collections::HashSet;
use std::sync::Arc;

use crate::error::SyntaxError;
use crate::token::{keyword, Token, TokenKind};
use crate::Span;

/// Lexes an entire source buffer into tokens (terminated by `Eof`).
///
/// Identifiers are interned: every token that spells the same name shares
/// one `Arc<str>`, allocated once per call.
///
/// # Errors
///
/// Returns a [`SyntaxError`] for unterminated strings, malformed numbers, or
/// characters outside the language's alphabet.
///
/// # Example
///
/// ```
/// use ent_syntax::lex;
///
/// let tokens = lex("class Main { }")?;
/// assert_eq!(tokens.len(), 5); // class, Main, {, }, eof
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
pub fn lex(src: &str) -> Result<Vec<Token>, SyntaxError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The identifiers seen so far, one shared allocation each.
    names: HashSet<Arc<str>>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            names: HashSet::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, SyntaxError> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32),
                });
                return Ok(tokens);
            };
            let kind = match b {
                b'a'..=b'z' | b'A'..=b'Z' => self.word(),
                b'_' => {
                    // `_` alone is a hole; `_foo` is an identifier.
                    if self
                        .bytes
                        .get(self.pos + 1)
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                    {
                        self.word()
                    } else {
                        self.pos += 1;
                        TokenKind::Underscore
                    }
                }
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                _ => self.operator(start)?,
            };
            tokens.push(Token {
                kind,
                span: Span::new(start as u32, self.pos as u32),
            });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) -> Result<(), SyntaxError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.bytes.get(self.pos + 1)) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(SyntaxError::new(
                                    "unterminated block comment",
                                    Span::new(start as u32, self.pos as u32),
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn word(&mut self) -> TokenKind {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if let Some(kw) = keyword(text) {
            return kw;
        }
        let name = match self.names.get(text) {
            Some(name) => Arc::clone(name),
            None => {
                let name: Arc<str> = Arc::from(text);
                self.names.insert(Arc::clone(&name));
                name
            }
        };
        TokenKind::Ident(name)
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, SyntaxError> {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_double = false;
        if self.peek() == Some(b'.')
            && self
                .bytes
                .get(self.pos + 1)
                .is_some_and(|b| b.is_ascii_digit())
        {
            is_double = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                is_double = true;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save;
            }
        }
        let text = &self.src[start..self.pos];
        let span = Span::new(start as u32, self.pos as u32);
        if is_double {
            text.parse::<f64>()
                .map(TokenKind::Double)
                .map_err(|_| SyntaxError::new(format!("malformed double `{text}`"), span))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| SyntaxError::new(format!("integer `{text}` is out of range"), span))
        }
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, SyntaxError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(TokenKind::Str(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| {
                        SyntaxError::new(
                            "unterminated string literal",
                            Span::new(start as u32, self.pos as u32),
                        )
                    })?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'\\' => '\\',
                        b'"' => '"',
                        other => {
                            return Err(SyntaxError::new(
                                format!("unknown escape `\\{}`", other as char),
                                Span::new(self.pos as u32 - 1, self.pos as u32 + 1),
                            ))
                        }
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    // Strings are UTF-8; step over a full scalar value.
                    let rest = &self.src[self.pos..];
                    let ch = rest.chars().next().expect("peeked byte implies a char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => {
                    return Err(SyntaxError::new(
                        "unterminated string literal",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
            }
        }
    }

    fn operator(&mut self, start: usize) -> Result<TokenKind, SyntaxError> {
        let b = self.bytes[self.pos];
        let two = self.bytes.get(self.pos + 1).copied();
        let (kind, width) = match (b, two) {
            (b'=', Some(b'=')) => (TokenKind::EqEq, 2),
            (b'!', Some(b'=')) => (TokenKind::NotEq, 2),
            (b'<', Some(b'=')) => (TokenKind::Le, 2),
            (b'<', Some(b'|')) => (TokenKind::TriangleLeft, 2),
            (b'>', Some(b'=')) => (TokenKind::Ge, 2),
            (b'&', Some(b'&')) => (TokenKind::AndAnd, 2),
            (b'|', Some(b'|')) => (TokenKind::OrOr, 2),
            (b'(', _) => (TokenKind::LParen, 1),
            (b')', _) => (TokenKind::RParen, 1),
            (b'{', _) => (TokenKind::LBrace, 1),
            (b'}', _) => (TokenKind::RBrace, 1),
            (b'[', _) => (TokenKind::LBracket, 1),
            (b']', _) => (TokenKind::RBracket, 1),
            (b',', _) => (TokenKind::Comma, 1),
            (b';', _) => (TokenKind::Semi, 1),
            (b':', _) => (TokenKind::Colon, 1),
            (b'.', _) => (TokenKind::Dot, 1),
            (b'@', _) => (TokenKind::At, 1),
            (b'=', _) => (TokenKind::Eq, 1),
            (b'<', _) => (TokenKind::Lt, 1),
            (b'>', _) => (TokenKind::Gt, 1),
            (b'+', _) => (TokenKind::Plus, 1),
            (b'-', _) => (TokenKind::Minus, 1),
            (b'*', _) => (TokenKind::Star, 1),
            (b'/', _) => (TokenKind::Slash, 1),
            (b'%', _) => (TokenKind::Percent, 1),
            (b'!', _) => (TokenKind::Bang, 1),
            (b'?', _) => (TokenKind::Question, 1),
            _ => {
                return Err(SyntaxError::new(
                    format!("unexpected character `{}`", b as char),
                    Span::new(start as u32, start as u32 + 1),
                ))
            }
        };
        self.pos += width;
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("class Agent extends Object"),
            vec![
                TokenKind::Class,
                TokenKind::Ident("Agent".into()),
                TokenKind::Extends,
                TokenKind::Ident("Object".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_mode_annotation_sequence() {
        assert_eq!(
            kinds("@mode<? <= X>"),
            vec![
                TokenKind::At,
                TokenKind::Mode,
                TokenKind::Lt,
                TokenKind::Question,
                TokenKind::Le,
                TokenKind::Ident("X".into()),
                TokenKind::Gt,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 3.25 1e3 7"),
            vec![
                TokenKind::Int(42),
                TokenKind::Double(3.25),
                TokenKind::Double(1000.0),
                TokenKind::Int(7),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dot_after_int_is_field_access_not_double() {
        // `2.foo` must lex as Int, Dot, Ident.
        assert_eq!(
            kinds("2.x"),
            vec![
                TokenKind::Int(2),
                TokenKind::Dot,
                TokenKind::Ident("x".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#""hi\n\"there\"""#),
            vec![TokenKind::Str("hi\n\"there\"".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n b /* block\n more */ c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn triangle_left_vs_lt() {
        assert_eq!(
            kinds("a <| b < c <= d"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::TriangleLeft,
                TokenKind::Ident("b".into()),
                TokenKind::Lt,
                TokenKind::Ident("c".into()),
                TokenKind::Le,
                TokenKind::Ident("d".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn underscore_hole_vs_identifier() {
        assert_eq!(
            kinds("_ _x"),
            vec![
                TokenKind::Underscore,
                TokenKind::Ident("_x".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn identifiers_share_one_name_per_spelling() {
        let tokens = lex("a b a").unwrap();
        let name = |i: usize| match &tokens[i].kind {
            TokenKind::Ident(s) => Arc::clone(s),
            other => panic!("expected an identifier, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&name(0), &name(2)));
        assert!(!Arc::ptr_eq(&name(0), &name(1)));
    }

    #[test]
    fn spans_cover_token_text() {
        let tokens = lex("let xy = 5;").unwrap();
        assert_eq!(tokens[1].span, Span::new(4, 6));
        assert_eq!(tokens[3].span, Span::new(9, 10));
    }

    #[test]
    fn unexpected_character_reports_error() {
        let err = lex("a # b").unwrap_err();
        assert!(err.to_string().contains('#'));
    }
}

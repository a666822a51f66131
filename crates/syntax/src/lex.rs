//! The ENT lexer: source text to a token stream.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::SyntaxError;
use crate::token::{keyword, Token, TokenKind};
use crate::Span;

/// A lexed source buffer: its tokens (terminated by `Eof`) and the tables
/// their ids index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Lexed {
    /// The token stream, ending with one `Eof`.
    pub tokens: Vec<Token>,
    /// Each distinct identifier spelling, by [`TokenKind::Ident`] id, in
    /// order of first appearance.
    pub names: Vec<Arc<str>>,
    /// Each string literal's unescaped contents, by [`TokenKind::Str`] id.
    pub strings: Vec<String>,
}

/// Lexes an entire source buffer into tokens (terminated by `Eof`).
///
/// Identifiers are interned: every token that spells the same name
/// carries the same id, and each distinct name is allocated once per
/// call.
///
/// # Errors
///
/// Returns a [`SyntaxError`] for unterminated strings, malformed numbers, or
/// characters outside the language's alphabet.
///
/// # Example
///
/// ```
/// use ent_syntax::{lex, TokenKind};
///
/// let lexed = lex("class Main { }")?;
/// assert_eq!(lexed.tokens.len(), 5); // class, Main, {, }, eof
/// assert_eq!(lexed.tokens[1].kind, TokenKind::Ident(0));
/// assert_eq!(&*lexed.names[0], "Main");
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
pub fn lex(src: &str) -> Result<Lexed, SyntaxError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The id of each identifier spelling seen so far.
    ids: HashMap<&'a str, u32>,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            ids: HashMap::new(),
            out: Lexed {
                // Generated programs average a token per three source
                // bytes, so one allocation usually holds them all.
                tokens: Vec::with_capacity(src.len() / 3 + 1),
                ..Lexed::default()
            },
        }
    }

    fn run(mut self) -> Result<Lexed, SyntaxError> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                self.out.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32),
                });
                return Ok(self.out);
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
            self.out.tokens.push(Token {
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
        let names = &mut self.out.names;
        let id = *self.ids.entry(text).or_insert_with(|| {
            names.push(Arc::from(text));
            (names.len() - 1) as u32
        });
        TokenKind::Ident(id)
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
                    self.out.strings.push(out);
                    return Ok(TokenKind::Str((self.out.strings.len() - 1) as u32));
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

    /// A token kind with its name or string literal resolved.
    #[derive(Debug, PartialEq)]
    enum Kind {
        Ident(String),
        Str(String),
        Other(TokenKind),
    }

    fn kinds(src: &str) -> Vec<Kind> {
        let lexed = lex(src).unwrap();
        lexed
            .tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Ident(id) => Kind::Ident(lexed.names[id as usize].to_string()),
                TokenKind::Str(id) => Kind::Str(lexed.strings[id as usize].clone()),
                other => Kind::Other(other),
            })
            .collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("class Agent extends Object"),
            vec![
                Kind::Other(TokenKind::Class),
                Kind::Ident("Agent".into()),
                Kind::Other(TokenKind::Extends),
                Kind::Ident("Object".into()),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn lexes_mode_annotation_sequence() {
        assert_eq!(
            kinds("@mode<? <= X>"),
            vec![
                Kind::Other(TokenKind::At),
                Kind::Other(TokenKind::Mode),
                Kind::Other(TokenKind::Lt),
                Kind::Other(TokenKind::Question),
                Kind::Other(TokenKind::Le),
                Kind::Ident("X".into()),
                Kind::Other(TokenKind::Gt),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 3.25 1e3 7"),
            vec![
                Kind::Other(TokenKind::Int(42)),
                Kind::Other(TokenKind::Double(3.25)),
                Kind::Other(TokenKind::Double(1000.0)),
                Kind::Other(TokenKind::Int(7)),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn dot_after_int_is_field_access_not_double() {
        // `2.foo` must lex as Int, Dot, Ident.
        assert_eq!(
            kinds("2.x"),
            vec![
                Kind::Other(TokenKind::Int(2)),
                Kind::Other(TokenKind::Dot),
                Kind::Ident("x".into()),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#""hi\n\"there\"""#),
            vec![
                Kind::Str("hi\n\"there\"".into()),
                Kind::Other(TokenKind::Eof)
            ]
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
                Kind::Ident("a".into()),
                Kind::Ident("b".into()),
                Kind::Ident("c".into()),
                Kind::Other(TokenKind::Eof),
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
                Kind::Ident("a".into()),
                Kind::Other(TokenKind::TriangleLeft),
                Kind::Ident("b".into()),
                Kind::Other(TokenKind::Lt),
                Kind::Ident("c".into()),
                Kind::Other(TokenKind::Le),
                Kind::Ident("d".into()),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn underscore_hole_vs_identifier() {
        assert_eq!(
            kinds("_ _x"),
            vec![
                Kind::Other(TokenKind::Underscore),
                Kind::Ident("_x".into()),
                Kind::Other(TokenKind::Eof),
            ]
        );
    }

    #[test]
    fn identifiers_share_one_name_per_spelling() {
        let lexed = lex("a b a").unwrap();
        let name = |i: usize| match lexed.tokens[i].kind {
            TokenKind::Ident(id) => id,
            other => panic!("expected an identifier, got {other:?}"),
        };
        assert_eq!(name(0), name(2));
        assert_ne!(name(0), name(1));
        assert_eq!(lexed.names.len(), 2, "one name per spelling");
    }

    #[test]
    fn spans_cover_token_text() {
        let tokens = lex("let xy = 5;").unwrap().tokens;
        assert_eq!(tokens[1].span, Span::new(4, 6));
        assert_eq!(tokens[3].span, Span::new(9, 10));
    }

    #[test]
    fn unexpected_character_reports_error() {
        let err = lex("a # b").unwrap_err();
        assert!(err.to_string().contains('#'));
    }
}

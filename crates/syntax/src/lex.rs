//! The ENT lexer: source text to a token stream.

use std::hash::BuildHasher;
use std::sync::LazyLock;

use ent_modes::{Names, MAX_NAMES};

use crate::ast::{PrimType, PREDECLARED, PRIMS, SPELLABLE};
use crate::error::{Fallible, SyntaxError};
use crate::token::{Token, TokenKind, KEYWORDS};
use crate::Span;

/// A lexed source buffer: its tokens (terminated by `Eof`) and the tables
/// their ids index.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// The token stream, ending with one `Eof`.
    pub tokens: Vec<Token>,
    /// Each name's spelling, by [`TokenKind::Ident`] id: the names the
    /// language predeclares at their fixed ids, then each distinct
    /// identifier of the source in order of first appearance. It becomes
    /// the parsed program's name table.
    pub names: Names,
    /// Each string literal's unescaped contents, by [`TokenKind::Str`] id.
    pub strings: Vec<String>,
    /// Whether the `modes` block declares each name id (set by the
    /// parser).
    pub(crate) is_mode: Vec<bool>,
}

impl Lexed {
    /// The primitive type name id `id` spells, if any.
    pub(crate) fn prim(id: u32) -> Option<PrimType> {
        PRIMS.get(id as usize).copied()
    }
}

/// Lexes an entire source buffer into tokens (terminated by `Eof`).
///
/// Identifiers are interned: every token that spells the same name
/// carries the same id, and each distinct name is allocated at most once
/// per call. A name the language predeclares, such as `int` or `Math`,
/// has the same id in every source and is not copied at all.
///
/// # Errors
///
/// Returns a [`SyntaxError`] for unterminated strings, malformed numbers,
/// characters outside the language's alphabet, or more than
/// [`MAX_NAMES`] distinct names.
///
/// # Example
///
/// ```
/// use ent_syntax::{lex, TokenKind};
///
/// let lexed = lex("class Main { }")?;
/// assert_eq!(lexed.tokens.len(), 5); // class, Main, {, }, eof
/// let TokenKind::Ident(id) = lexed.tokens[1].kind else { panic!() };
/// assert_eq!(lexed.names.get(ent_modes::Symbol::from_raw(id)), "Main");
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
pub fn lex(src: &str) -> Result<Lexed, SyntaxError> {
    Lexer::new(src).run().map_err(|e| *e)
}

/// Whether each byte may continue an identifier.
const IDENT: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).is_ascii_alphanumeric() || b as u8 == b'_';
        b += 1;
    }
    table
};

/// The table every lex starts from: the keywords and the predeclared
/// names, under this process's hash key.
static SEEDED: LazyLock<Words<'static>> = LazyLock::new(Words::seeded);

/// One word of the table: its spelling, its [`short_key`] and its token:
/// a keyword, or a name's [`TokenKind::Ident`].
#[derive(Clone, Copy, Debug)]
struct Word<'a> {
    key: (u64, u64),
    text: &'a str,
    kind: TokenKind,
}

/// Every keyword and every name seen so far, found with one lookup per
/// identifier: an open-addressing table (linear probing, at most half
/// full) keyed by the word's spelling. The hash is keyed per process,
/// with keys drawn from [`std::hash::RandomState`], so which names
/// collide depends on a key no source can see.
#[derive(Debug)]
struct Words<'a> {
    /// The hash key.
    key: [u64; 2],
    /// Indices into `words`; [`EMPTY`] marks a free slot. A power of two
    /// long.
    slots: Vec<u32>,
    words: Vec<Word<'a>>,
}

/// A free slot of [`Words::slots`].
const EMPTY: u32 = u32::MAX;

/// A word being looked up: its spelling, its hash, and the
/// [`short_key`] of its last 16-byte block (of the whole word when it is
/// no longer than that).
struct Probe<'t> {
    text: &'t str,
    hash: u64,
    key: (u64, u64),
}

impl Probe<'_> {
    /// Whether `word` is the probed spelling. A word of at most 16 bytes
    /// compares as its length and key, without reading its text.
    fn spells(&self, word: &Word) -> bool {
        word.key == self.key
            && word.text.len() == self.text.len()
            && (word.text.len() <= 16 || word.text == self.text)
    }
}

impl Words<'static> {
    /// The keywords and the predeclared names (at their fixed ids) under
    /// a fresh key, in a table with room for as many words again.
    fn seeded() -> Self {
        let keys = std::hash::RandomState::new();
        let mut words = Words {
            key: [keys.hash_one(0u64), keys.hash_one(1u64)],
            slots: vec![EMPTY; 256],
            words: Vec::with_capacity(KEYWORDS.len() + PREDECLARED.len()),
        };
        let names = (0u32..)
            .zip(&PREDECLARED[..SPELLABLE])
            .map(|(id, &name)| (name, TokenKind::Ident(id)));
        for (text, kind) in KEYWORDS.iter().copied().chain(names) {
            let probe = words.probe(text);
            let slot = words.find(&probe).expect_err("each word is seeded once");
            words.insert(slot, probe, kind);
        }
        words
    }
}

impl<'a> Words<'a> {
    /// A copy of [`SEEDED`] with room for `names` more words.
    fn with_room(names: usize) -> Self {
        let mut words = Vec::with_capacity(SEEDED.words.len() + names);
        words.extend_from_slice(&SEEDED.words);
        Words {
            key: SEEDED.key,
            slots: SEEDED.slots.clone(),
            words,
        }
    }

    /// `text` with its keyed hash: each 16-byte block but the last is
    /// mixed in with a folded 64×64→128-bit multiply, then the last
    /// block's [`short_key`].
    fn probe<'t>(&self, text: &'t str) -> Probe<'t> {
        let [mut a, mut b] = self.key;
        b ^= text.len() as u64;
        let mut rest = text.as_bytes();
        while rest.len() > 16 {
            let (block, tail) = rest.split_at(16);
            a = fold(a ^ le_u64(&block[..8]), b ^ le_u64(&block[8..]));
            b = b.rotate_left(23) ^ a;
            rest = tail;
        }
        let key = short_key(rest);
        Probe {
            text,
            hash: fold(a ^ key.0, b ^ key.1),
            key,
        }
    }

    /// The index in `words` of the probed word, or else the free slot
    /// where it belongs.
    fn find(&self, probe: &Probe) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = probe.hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                i => {
                    if probe.spells(&self.words[i as usize]) {
                        return Ok(i as usize);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Adds the probed word at the free `slot` [`Words::find`] gave,
    /// doubling the table when it passes half full.
    fn insert(&mut self, slot: usize, probe: Probe<'a>, kind: TokenKind) {
        let i = u32::try_from(self.words.len()).expect("fewer than u32::MAX words");
        self.words.push(Word {
            key: probe.key,
            text: probe.text,
            kind,
        });
        self.slots[slot] = i;
        if self.words.len() * 2 > self.slots.len() {
            let mut slots = vec![EMPTY; self.slots.len() * 2];
            let mask = slots.len() - 1;
            for (i, w) in self.words.iter().enumerate() {
                let mut slot = self.probe(w.text).hash as usize & mask;
                while slots[slot] != EMPTY {
                    slot = (slot + 1) & mask;
                }
                slots[slot] = i as u32;
            }
            self.slots = slots;
        }
    }
}

/// A word of at most 16 bytes as two integers. Two overlapping reads
/// cover every byte, so two words of one length differ exactly when
/// their keys do.
fn short_key(bytes: &[u8]) -> (u64, u64) {
    let n = bytes.len();
    if n >= 8 {
        (le_u64(&bytes[..8]), le_u64(&bytes[n - 8..]))
    } else if n >= 4 {
        (le_u32(&bytes[..4]), le_u32(&bytes[n - 4..]))
    } else if n > 0 {
        let x = u64::from(bytes[0]) | u64::from(bytes[n / 2]) << 8 | u64::from(bytes[n - 1]) << 16;
        (x, 0)
    } else {
        (0, 0)
    }
}

/// The high and low halves of the 128-bit product `a * b`, xor-ed.
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ (p >> 64) as u64
}

/// The little-endian `u64` in `bytes`, which holds exactly eight.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The little-endian `u32` in `bytes`, which holds exactly four.
fn le_u32(bytes: &[u8]) -> u64 {
    u64::from(u32::from_le_bytes(bytes.try_into().expect("four bytes")))
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The keywords and every identifier spelling seen so far.
    words: Words<'a>,
    tokens: Vec<Token>,
    /// The predeclared names, then each of the source's own so far.
    names: Names,
    strings: Vec<String>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        // Generated programs average a token per three source bytes and a
        // distinct name per 40, so one allocation usually holds each
        // table. The name tables start with room for at most about a
        // thousand names, however large the source.
        let names = (src.len() / 32).min(1 << 10) + 1;
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            words: Words::with_room(names),
            tokens: Vec::with_capacity(src.len() / 3 + 1),
            // Names average about eight bytes.
            names: Names::with_capacity(&PREDECLARED, names, names * 8),
            strings: Vec::new(),
        }
    }

    fn run(mut self) -> Fallible<Lexed> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32),
                });
                return Ok(Lexed {
                    tokens: self.tokens,
                    is_mode: vec![false; self.names.len()],
                    names: self.names,
                    strings: self.strings,
                });
            };
            let kind = match b {
                b'a'..=b'z' | b'A'..=b'Z' => self.word(start)?,
                b'_' => {
                    // `_` alone is a hole; `_foo` is an identifier.
                    if self
                        .bytes
                        .get(self.pos + 1)
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                    {
                        self.word(start)?
                    } else {
                        self.pos += 1;
                        TokenKind::Underscore
                    }
                }
                b'0'..=b'9' => self.number(start)?,
                b'"' => self.string(start)?,
                _ => self.operator(start)?,
            };
            self.tokens.push(Token {
                kind,
                span: Span::new(start as u32, self.pos as u32),
            });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) -> Fallible<()> {
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
                                return Err(SyntaxError::boxed(
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

    fn word(&mut self, start: usize) -> Fallible<TokenKind> {
        let rest = &self.bytes[start..];
        self.pos += rest
            .iter()
            .position(|&b| !IDENT[usize::from(b)])
            .unwrap_or(rest.len());
        let text = &self.src[start..self.pos];
        let probe = self.words.probe(text);
        match self.words.find(&probe) {
            Ok(i) => Ok(self.words.words[i].kind),
            Err(slot) => {
                if self.names.len() >= MAX_NAMES {
                    return Err(SyntaxError::boxed(
                        format!("a source may spell at most {MAX_NAMES} distinct names"),
                        Span::new(start as u32, self.pos as u32),
                    ));
                }
                let kind = TokenKind::Ident(self.names.push(text).raw());
                self.words.insert(slot, probe, kind);
                Ok(kind)
            }
        }
    }

    fn number(&mut self, start: usize) -> Fallible<TokenKind> {
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
                .map_err(|_| SyntaxError::boxed(format!("malformed double `{text}`"), span))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| SyntaxError::boxed(format!("integer `{text}` is out of range"), span))
        }
    }

    fn string(&mut self, start: usize) -> Fallible<TokenKind> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece.
            // Both are ASCII, so the run ends on a character boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    self.strings.push(out);
                    return Ok(TokenKind::Str((self.strings.len() - 1) as u32));
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| {
                        SyntaxError::boxed(
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
                            return Err(SyntaxError::boxed(
                                format!("unknown escape `\\{}`", other as char),
                                Span::new(self.pos as u32 - 1, self.pos as u32 + 1),
                            ))
                        }
                    });
                    self.pos += 1;
                }
                None => {
                    return Err(SyntaxError::boxed(
                        "unterminated string literal",
                        Span::new(start as u32, self.pos as u32),
                    ))
                }
            }
        }
    }

    fn operator(&mut self, start: usize) -> Fallible<TokenKind> {
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
                return Err(SyntaxError::boxed(
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
    use ent_modes::Symbol;

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
                TokenKind::Ident(id) => {
                    Kind::Ident(lexed.names.get(Symbol::from_raw(id)).to_string())
                }
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
        assert_eq!(
            lexed.names.len(),
            PREDECLARED.len() + 2,
            "one name per spelling"
        );
    }

    #[test]
    fn predeclared_names_are_shared_across_sources() {
        let a = lex("Math int x").unwrap();
        let b = lex("x int Math").unwrap();
        let ids = |lexed: &Lexed| -> Vec<u32> {
            lexed.tokens[..3]
                .iter()
                .map(|t| match t.kind {
                    TokenKind::Ident(id) => id,
                    other => panic!("expected an identifier, got {other:?}"),
                })
                .collect()
        };
        let (ia, ib) = (ids(&a), ids(&b));
        assert_eq!(ia[0], ib[2], "`Math`");
        assert_eq!(ia[1], ib[1], "`int`");
        assert_eq!(a.names.get(Symbol::from_raw(ia[0])), "Math");
        // A source's own names follow the predeclared ones.
        assert_eq!(ia[2] as usize, PREDECLARED.len());
        assert_eq!(ib[0] as usize, PREDECLARED.len());
        assert_eq!(Lexed::prim(ia[1]), Some(PrimType::Int));
        assert_eq!(Lexed::prim(ia[0]), None);
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

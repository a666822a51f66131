//! Tokens produced by the ENT lexer.

use std::fmt;

use crate::Span;

/// A lexed token: a [`TokenKind`] plus its source [`Span`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from in the source buffer.
    pub span: Span,
}

/// The kinds of tokens in ENT's concrete syntax. Names and string
/// literals are ids into the tables of the [`crate::Lexed`] that holds the
/// token, so every kind is `Copy`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TokenKind {
    // Literals and names
    /// An identifier or non-keyword name: its id in
    /// [`crate::Lexed::names`], one per distinct spelling.
    Ident(u32),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Double(f64),
    /// A string literal: its index in [`crate::Lexed::strings`].
    Str(u32),

    // Keywords
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `modes`
    Modes,
    /// `mode` (only inside `@mode<...>`)
    Mode,
    /// `attributor`
    Attributor,
    /// `snapshot`
    Snapshot,
    /// `mcase`
    MCase,
    /// `new`
    New,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `return`
    Return,
    /// `try`
    Try,
    /// `catch`
    Catch,
    /// `this`
    This,
    /// `true`
    True,
    /// `false`
    False,
    /// `bot` — the lattice bottom `⊥` in mode positions.
    Bot,
    /// `top` — the lattice top `⊤` in mode positions.
    Top,

    // Punctuation and operators
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `@`
    At,
    /// `=`
    Eq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `<|` — mode case elimination.
    TriangleLeft,
    /// `_` — an unconstrained snapshot bound / implicit elimination mode.
    Underscore,
    /// `?` — the dynamic mode.
    Question,

    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human-readable description used in parse errors. An
    /// identifier is described by its spelling, looked up in `names`
    /// ([`crate::Lexed::names`]).
    pub fn describe(&self, names: &ent_modes::Names) -> String {
        match self {
            TokenKind::Ident(id) => format!(
                "identifier `{}`",
                names.get(ent_modes::Symbol::from_raw(*id))
            ),
            TokenKind::Int(n) => format!("integer `{n}`"),
            TokenKind::Double(x) => format!("double `{x}`"),
            TokenKind::Str(_) => "string literal".to_string(),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{other}`"),
        }
    }
}

/// Keywords and punctuation print as written; a name or string literal,
/// whose text lives in its [`crate::Lexed`], prints as its table id.
impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::Ident(id) => return write!(f, "name#{id}"),
            TokenKind::Int(n) => return write!(f, "{n}"),
            TokenKind::Double(x) => return write!(f, "{x}"),
            TokenKind::Str(id) => return write!(f, "string#{id}"),
            TokenKind::Class => "class",
            TokenKind::Extends => "extends",
            TokenKind::Modes => "modes",
            TokenKind::Mode => "mode",
            TokenKind::Attributor => "attributor",
            TokenKind::Snapshot => "snapshot",
            TokenKind::MCase => "mcase",
            TokenKind::New => "new",
            TokenKind::Let => "let",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::Return => "return",
            TokenKind::Try => "try",
            TokenKind::Catch => "catch",
            TokenKind::This => "this",
            TokenKind::True => "true",
            TokenKind::False => "false",
            TokenKind::Bot => "bot",
            TokenKind::Top => "top",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Comma => ",",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::Dot => ".",
            TokenKind::At => "@",
            TokenKind::Eq => "=",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Gt => ">",
            TokenKind::Le => "<=",
            TokenKind::Ge => ">=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Bang => "!",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::TriangleLeft => "<|",
            TokenKind::Underscore => "_",
            TokenKind::Question => "?",
            TokenKind::Eof => "<eof>",
        };
        f.write_str(s)
    }
}

/// Every keyword with its token. The lexer's name table is seeded with
/// these, so telling a keyword from a name is the same lookup that
/// interns the name.
pub(crate) const KEYWORDS: &[(&str, TokenKind)] = &[
    ("class", TokenKind::Class),
    ("extends", TokenKind::Extends),
    ("modes", TokenKind::Modes),
    ("mode", TokenKind::Mode),
    ("attributor", TokenKind::Attributor),
    ("snapshot", TokenKind::Snapshot),
    ("mcase", TokenKind::MCase),
    ("new", TokenKind::New),
    ("let", TokenKind::Let),
    ("if", TokenKind::If),
    ("else", TokenKind::Else),
    ("return", TokenKind::Return),
    ("try", TokenKind::Try),
    ("catch", TokenKind::Catch),
    ("this", TokenKind::This),
    ("true", TokenKind::True),
    ("false", TokenKind::False),
    ("bot", TokenKind::Bot),
    ("top", TokenKind::Top),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        // The lexer's word table is seeded with `KEYWORDS`.
        for (word, kind) in KEYWORDS {
            assert_eq!(crate::lex(word).unwrap().tokens[0].kind, *kind);
            assert_eq!(kind.to_string(), *word);
        }
        let agent = crate::lex("agent").unwrap().tokens[0].kind;
        assert_eq!(
            agent,
            TokenKind::Ident(crate::ast::PREDECLARED.len() as u32)
        );
    }

    #[test]
    fn tokens_are_small_copies() {
        // A name or string is a table id, so a token carries at most an
        // 8-byte literal beside its span.
        assert_eq!(std::mem::size_of::<Token>(), 24);
    }

    #[test]
    fn display_for_operators() {
        assert_eq!(TokenKind::TriangleLeft.to_string(), "<|");
        assert_eq!(TokenKind::Le.to_string(), "<=");
        assert_eq!(TokenKind::Question.to_string(), "?");
    }

    #[test]
    fn describe_wraps_punctuation_in_backticks() {
        let names = ent_modes::Names::new(&[], &["x"]);
        assert_eq!(TokenKind::Comma.describe(&names), "`,`");
        assert_eq!(TokenKind::Ident(0).describe(&names), "identifier `x`");
    }
}

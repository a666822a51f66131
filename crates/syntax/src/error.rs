//! Syntax errors with source locations.

use std::error::Error;
use std::fmt;

use crate::{LineMap, Span};

/// A lexing or parsing error, with the span where it occurred.
///
/// # Example
///
/// ```
/// use ent_syntax::parse_program;
///
/// let err = parse_program("modes { a <= }").unwrap_err();
/// assert!(err.to_string().contains("expected"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntaxError {
    message: String,
    span: Span,
}

impl SyntaxError {
    /// Creates a new error at `span`.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        SyntaxError {
            message: message.into(),
            span,
        }
    }

    /// A new error at `span`, boxed: the lexer and the parser carry errors
    /// boxed, so each successful step returns its result in registers.
    pub(crate) fn boxed(message: impl Into<String>, span: Span) -> Box<Self> {
        Box::new(SyntaxError::new(message, span))
    }

    /// The error message (no location).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source span of the error.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Renders the error with `line:col` resolved against the given source.
    pub fn render(&self, src: &str) -> String {
        let map = LineMap::new(src);
        format!("{}: {}", map.describe(self.span), self.message)
    }
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at bytes {}", self.message, self.span)
    }
}

impl Error for SyntaxError {}

/// The result of one lexing or parsing step.
pub(crate) type Fallible<T> = Result<T, Box<SyntaxError>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_resolves_line_and_column() {
        let err = SyntaxError::new("boom", Span::new(2, 3));
        assert_eq!(err.render("a\nb"), "2:1: boom");
    }

    #[test]
    fn display_is_nonempty() {
        let err = SyntaxError::new("boom", Span::new(0, 1));
        assert!(err.to_string().contains("boom"));
    }
}

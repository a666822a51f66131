//! Recursive-descent parser for ENT's concrete syntax.
//!
//! The surface language is the Java-like notation of the paper's listings:
//! a leading `modes { ... }` block, class declarations with `@mode<...>`
//! qualifiers, attributors, `snapshot e [lo, hi]`, `mcase` literals, and the
//! elimination operator `<|`. See the crate docs for a grammar sketch.

use std::sync::Arc;

use ent_modes::{
    Bounded, ClassModeParams, Mode, ModeArgs, ModeName, ModeTable, ModeVar, Names, StaticMode,
    Symbol,
};

use crate::ast::*;
use crate::error::{Fallible, SyntaxError};
use crate::lex::{lex, Lexed};
use crate::token::TokenKind;
use crate::Span;

/// Parses a complete ENT program.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered, a `modes` block
/// with more than [`MAX_MODES`] modes or a class or method with more than
/// [`MAX_MODE_PARAMS`] mode parameters, or a mode-table validation error
/// (cyclic or non-lattice `modes` block) re-wrapped as a [`SyntaxError`].
///
/// # Example
///
/// ```
/// use ent_syntax::parse_program;
///
/// let program = parse_program(
///     "modes { low <= high; }
///      class Main { unit main() { return {}; } }",
/// )?;
/// assert_eq!(program.classes.len(), 1);
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
pub fn parse_program(src: &str) -> Result<Program, SyntaxError> {
    Parser::new(lex(src)?).program().map_err(|e| *e)
}

/// Parses a single expression (useful in tests and the REPL-style
/// examples) into a tree of its own, and returns the tree with the
/// expression's id and the table its names are ids into.
///
/// Mode-name resolution uses the given mode names as constants.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered.
pub fn parse_expr(src: &str, mode_names: &[&str]) -> Result<(Ast, ExprId, Names), SyntaxError> {
    let mut parser = Parser::new(lex(src)?);
    for name in mode_names {
        parser.mark_mode(name);
    }
    let expr = parser.expr().and_then(|expr| {
        parser.expect(TokenKind::Eof)?;
        Ok(expr)
    });
    let expr = expr.map_err(|e| *e)?;
    Ok((parser.ast, expr, parser.lexed.names))
}

/// The most distinct modes a `modes { ... }` block may declare. The
/// mode table's construction and its lattice check grow with the cube of
/// the mode count, so the parser refuses a larger block.
pub const MAX_MODES: usize = 64;

/// The most mode parameters one class or method may declare.
pub const MAX_MODE_PARAMS: usize = 64;

/// The mode of a program without a `modes { ... }` block.
const IMPLICIT_MODE: &str = "default";

struct Parser {
    /// The tokens and the tables their ids index. Each string literal is
    /// moved into the one literal node that spells it; `info` records
    /// which names are declared mode constants.
    lexed: Lexed,
    pos: usize,
    /// Distinct modes the `modes` block has declared so far.
    n_modes: usize,
    /// The tree the parsed expressions go into.
    ast: Ast,
    /// List items parsed but not yet moved into `ast`: a list pushes its
    /// items above a mark and moves them as one run when it closes, so
    /// nested lists share this one stack.
    items: Vec<ExprId>,
    /// Statements of the open blocks, likewise.
    stmts: Vec<Stmt>,
    /// Arms of the open mode cases, likewise.
    arms: Vec<Arm>,
    /// Each declared mode's name id and its one [`ModeName`], which every
    /// use of the mode shares.
    modes: Vec<(u32, ModeName)>,
}

impl Parser {
    fn new(lexed: Lexed) -> Self {
        Parser {
            ast: Ast::for_tokens(lexed.tokens.len()),
            lexed,
            pos: 0,
            n_modes: 0,
            items: Vec::with_capacity(16),
            stmts: Vec::with_capacity(16),
            arms: Vec::new(),
            modes: Vec::new(),
        }
    }

    /// Adds an expression node to the tree.
    fn push(&mut self, kind: ExprKind, span: Span) -> ExprId {
        self.ast.push(Expr::new(kind, span))
    }

    /// The span of node `id`.
    fn span_of(&self, id: ExprId) -> Span {
        self.ast[id].span
    }

    /// Marks `name` as a mode constant, if the source spells it at all.
    fn mark_mode(&mut self, name: &str) {
        if let Some(id) = self.lexed.names.find(name) {
            self.lexed.is_mode[id.index()] = true;
            self.modes.push((id.raw(), ModeName::new(name)));
        }
    }

    /// Declares the mode named by `id` in the `modes` block, refusing a
    /// block with more than [`MAX_MODES`] distinct modes.
    fn declare_mode(&mut self, id: u32, span: Span) -> Fallible<ModeName> {
        if !self.lexed.is_mode[id as usize] {
            self.lexed.is_mode[id as usize] = true;
            self.n_modes += 1;
            if self.n_modes > MAX_MODES {
                return Err(SyntaxError::boxed(
                    format!("the `modes` block declares more than {MAX_MODES} modes"),
                    span,
                ));
            }
            let name = ModeName::new(self.text(Symbol::from_raw(id)));
            self.modes.push((id, name));
        }
        Ok(self.mode_name(id))
    }

    /// The name of declared mode `id`, shared.
    fn mode_name(&self, id: u32) -> ModeName {
        let (_, name) = self
            .modes
            .iter()
            .find(|&&(mode, _)| mode == id)
            .expect("a mode constant is declared");
        name.clone()
    }

    // ---- token plumbing -------------------------------------------------

    fn peek(&self) -> TokenKind {
        self.lexed.tokens[self.pos].kind
    }

    fn peek2(&self) -> TokenKind {
        self.lexed.tokens[(self.pos + 1).min(self.lexed.tokens.len() - 1)].kind
    }

    /// The spelling of name `sym`.
    fn text(&self, sym: Symbol) -> &str {
        self.lexed.names.get(sym)
    }

    fn describe(&self, kind: TokenKind) -> String {
        kind.describe(&self.lexed.names)
    }

    fn span(&self) -> Span {
        self.lexed.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.lexed.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.lexed.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Fallible<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(SyntaxError::boxed(
                format!(
                    "expected {}, found {}",
                    self.describe(kind),
                    self.describe(self.peek())
                ),
                self.span(),
            ))
        }
    }

    /// The next identifier's name id.
    fn ident_id(&mut self) -> Fallible<(u32, Span)> {
        let span = self.span();
        match self.peek() {
            TokenKind::Ident(id) => {
                self.bump();
                Ok((id, span))
            }
            other => Err(SyntaxError::boxed(
                format!("expected identifier, found {}", self.describe(other)),
                span,
            )),
        }
    }

    /// The next identifier's name.
    fn ident(&mut self) -> Fallible<(Symbol, Span)> {
        let (id, span) = self.ident_id()?;
        Ok((Symbol::from_raw(id), span))
    }

    // ---- program structure ----------------------------------------------

    fn program(&mut self) -> Fallible<Program> {
        let mode_table = if self.peek() == TokenKind::Modes {
            self.modes_block()?
        } else {
            // Programs that never mention modes still need a lattice; give
            // them a single implicit mode.
            self.mark_mode(IMPLICIT_MODE);
            ModeTable::linear([IMPLICIT_MODE]).expect("singleton lattice is valid")
        };

        let mut classes = Vec::new();
        while self.peek() != TokenKind::Eof {
            classes.push(self.class_decl()?);
        }
        let ast = std::mem::take(&mut self.ast);
        let names = self.lexed.names.clone();
        Ok(Program {
            mode_table,
            classes: Arc::new(Classes::new(classes, ast, names)),
        })
    }

    /// Parses the `modes { ... }` block, marking every mode it names in
    /// `is_mode`.
    fn modes_block(&mut self) -> Fallible<ModeTable> {
        let start = self.span();
        self.expect(TokenKind::Modes)?;
        self.expect(TokenKind::LBrace)?;
        let mut builder = ModeTable::builder();
        while self.peek() != TokenKind::RBrace {
            let (lo, span) = self.ident_id()?;
            let lo = self.declare_mode(lo, span)?;
            if self.eat(TokenKind::Le) {
                let (hi, span) = self.ident_id()?;
                let hi = self.declare_mode(hi, span)?;
                builder = builder.le(lo, hi);
            } else {
                builder = builder.mode(lo);
            }
            self.expect(TokenKind::Semi)?;
        }
        self.expect(TokenKind::RBrace)?;
        builder
            .build()
            .map_err(|e| SyntaxError::boxed(e.to_string(), start.join(self.prev_span())))
    }

    fn class_decl(&mut self) -> Fallible<ClassDecl> {
        let start = self.span();
        self.expect(TokenKind::Class)?;
        let (name, _) = self.ident()?;
        let mode_params = if self.peek() == TokenKind::At {
            self.class_mode_params(name)?
        } else {
            ClassModeParams::neutral()
        };

        let (superclass, super_args) = if self.eat(TokenKind::Extends) {
            let (sup, _) = self.ident()?;
            let args = if self.peek() == TokenKind::At {
                self.at_mode_open()?;
                let mut args = vec![self.static_mode()?];
                while self.eat(TokenKind::Comma) {
                    args.push(self.static_mode()?);
                }
                self.expect(TokenKind::Gt)?;
                args
            } else {
                Vec::new()
            };
            (ClassName::new(sup), args)
        } else {
            (ClassName::OBJECT, Vec::new())
        };

        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        let mut attributor = None;
        while self.peek() != TokenKind::RBrace {
            if self.peek() == TokenKind::Attributor {
                let a = self.attributor()?;
                if attributor.replace(a).is_some() {
                    return Err(SyntaxError::boxed(
                        "class has more than one attributor",
                        self.prev_span(),
                    ));
                }
            } else {
                self.member(&mut fields, &mut methods)?;
            }
        }
        self.expect(TokenKind::RBrace)?;

        Ok(ClassDecl {
            name: ClassName::new(name),
            mode_params,
            superclass,
            super_args,
            fields,
            methods,
            attributor,
            span: start.join(self.prev_span()),
        })
    }

    /// Parses `@mode<...>` after a class name into a `ClassModeParams`.
    fn class_mode_params(&mut self, class: Symbol) -> Fallible<ClassModeParams> {
        let start = self.span();
        self.at_mode_open()?;
        let mut dynamic = false;
        let mut bounds: Vec<Bounded> = Vec::new();

        // First parameter: may be `?`, `? <= X`, a constant, a var, or a
        // bounded var.
        if self.eat(TokenKind::Question) {
            dynamic = true;
            if self.eat(TokenKind::Le) {
                let (var, _) = self.ident()?;
                let hi = if self.eat(TokenKind::Le) {
                    self.static_mode()?
                } else {
                    StaticMode::Top
                };
                bounds.push(Bounded::new(StaticMode::Bot, ModeVar::named(var), hi));
            } else {
                bounds.push(Bounded::unconstrained(ModeVar::own_mode(class)));
            }
        } else {
            bounds.push(self.bounded_param(class)?);
        }
        while self.eat(TokenKind::Comma) {
            bounds.push(self.bounded_param(class)?);
        }
        self.expect(TokenKind::Gt)?;
        self.check_mode_params("class", class, bounds.len(), start)?;
        Ok(if dynamic {
            ClassModeParams::dynamic(bounds)
        } else {
            ClassModeParams::with_bounds(bounds)
        })
    }

    /// Refuses a class or method that declares more than
    /// [`MAX_MODE_PARAMS`] mode parameters in the list that began at
    /// `start`.
    fn check_mode_params(
        &self,
        what: &str,
        owner: Symbol,
        count: usize,
        start: Span,
    ) -> Fallible<()> {
        if count > MAX_MODE_PARAMS {
            let owner = self.text(owner);
            return Err(SyntaxError::boxed(
                format!("{what} `{owner}` declares more than {MAX_MODE_PARAMS} mode parameters"),
                start.join(self.prev_span()),
            ));
        }
        Ok(())
    }

    /// One static mode parameter: `X`, `m` (pinned), or `lo <= X <= hi`.
    fn bounded_param(&mut self, class: Symbol) -> Fallible<Bounded> {
        let first = self.static_mode()?;
        if self.eat(TokenKind::Le) {
            let (var, span) = self.ident()?;
            if self.lexed.is_mode[var.index()] {
                return Err(SyntaxError::boxed(
                    format!(
                        "`{}` is a mode constant, not a parameter name",
                        self.text(var)
                    ),
                    span,
                ));
            }
            self.expect(TokenKind::Le)?;
            let hi = self.static_mode()?;
            Ok(Bounded::new(first, ModeVar::named(var), hi))
        } else {
            match first {
                StaticMode::Var(v) => Ok(Bounded::unconstrained(v)),
                pinned => {
                    // A pinned mode: objects of the class always have this
                    // mode. Modeled as `m ≤ Self ≤ m`.
                    Ok(Bounded::new(
                        pinned.clone(),
                        ModeVar::own_mode(class),
                        pinned,
                    ))
                }
            }
        }
    }

    /// Consumes the tokens `@ mode <`.
    fn at_mode_open(&mut self) -> Fallible<()> {
        self.expect(TokenKind::At)?;
        self.expect(TokenKind::Mode)?;
        self.expect(TokenKind::Lt)?;
        Ok(())
    }

    /// A static mode: `bot`, `top`, a declared constant, or a variable.
    fn static_mode(&mut self) -> Fallible<StaticMode> {
        let mode = match self.peek() {
            TokenKind::Bot => StaticMode::Bot,
            TokenKind::Top => StaticMode::Top,
            TokenKind::Ident(id) if self.lexed.is_mode[id as usize] => {
                StaticMode::Const(self.mode_name(id))
            }
            TokenKind::Ident(id) => StaticMode::Var(ModeVar::named(Symbol::from_raw(id))),
            other => {
                return Err(SyntaxError::boxed(
                    format!("expected a mode, found {}", self.describe(other)),
                    self.span(),
                ))
            }
        };
        self.bump();
        Ok(mode)
    }

    fn attributor(&mut self) -> Fallible<Attributor> {
        let start = self.span();
        self.expect(TokenKind::Attributor)?;
        let body = self.block()?;
        Ok(Attributor {
            body,
            span: start.join(self.prev_span()),
        })
    }

    /// A field or method member.
    fn member(
        &mut self,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Fallible<()> {
        let start = self.span();

        // Optional method-level mode override `@mode<η>`.
        let method_mode = if self.peek() == TokenKind::At {
            self.at_mode_open()?;
            let m = self.static_mode()?;
            self.expect(TokenKind::Gt)?;
            Some(m)
        } else {
            None
        };

        let ty = self.ty()?;
        let (name, _) = self.ident()?;

        // Generic method-mode parameters `<X, lo <= Y <= hi>`.
        let mut mode_params = Vec::new();
        if self.peek() == TokenKind::Lt {
            let start = self.span();
            self.bump();
            loop {
                mode_params.push(self.bounded_param(name)?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::Gt)?;
            self.check_mode_params("method", name, mode_params.len(), start)?;
        }

        if self.peek() == TokenKind::LParen {
            // Method.
            self.bump();
            let mut params = Vec::new();
            if self.peek() != TokenKind::RParen {
                loop {
                    let pty = self.ty()?;
                    let (pname, _) = self.ident()?;
                    params.push((pty, Ident::new(pname)));
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
            let attributor = if self.peek() == TokenKind::Attributor {
                Some(self.attributor()?)
            } else {
                None
            };
            let body = self.block()?;
            methods.push(MethodDecl {
                mode: method_mode,
                mode_params,
                ret: ty,
                name: Ident::new(name),
                params,
                attributor,
                body,
                span: start.join(self.prev_span()),
            });
        } else {
            // Field.
            if method_mode.is_some() || !mode_params.is_empty() {
                return Err(SyntaxError::boxed(
                    "mode annotations are not allowed on fields",
                    start,
                ));
            }
            let init = if self.eat(TokenKind::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            fields.push(FieldDecl {
                ty,
                name: Ident::new(name),
                init,
                span: start.join(self.prev_span()),
            });
        }
        Ok(())
    }

    // ---- types ------------------------------------------------------------

    fn ty(&mut self) -> Fallible<Type> {
        let mut base = self.base_ty()?;
        while self.peek() == TokenKind::LBracket && self.peek2() == TokenKind::RBracket {
            self.bump();
            self.bump();
            base = Type::Array(Box::new(base));
        }
        Ok(base)
    }

    fn base_ty(&mut self) -> Fallible<Type> {
        if self.peek() == TokenKind::MCase {
            self.bump();
            self.expect(TokenKind::Lt)?;
            let inner = self.ty()?;
            self.expect(TokenKind::Gt)?;
            return Ok(Type::MCase(Box::new(inner)));
        }
        let (id, span) = self.ident_id()?;
        if let Some(prim) = Lexed::prim(id) {
            return Ok(Type::Prim(prim));
        }
        let class = ClassName::new(Symbol::from_raw(id));
        let name = self.text(class.symbol());
        if !name.chars().next().is_some_and(char::is_uppercase) {
            return Err(SyntaxError::boxed(
                format!("class names must start uppercase: `{name}`"),
                span,
            ));
        }
        let args = if self.peek() == TokenKind::At {
            self.at_mode_open()?;
            let mode = if self.eat(TokenKind::Question) {
                Mode::Dynamic
            } else {
                Mode::Static(self.static_mode()?)
            };
            let mut rest = Vec::new();
            while self.eat(TokenKind::Comma) {
                rest.push(self.static_mode()?);
            }
            self.expect(TokenKind::Gt)?;
            ModeArgs::new(mode, rest)
        } else {
            // Mode-neutral reference: the typechecker validates that the
            // class is actually neutral (or pins the mode itself).
            ModeArgs::of_static(StaticMode::Bot)
        };
        Ok(Type::Object { class, args })
    }

    // ---- statements and blocks ---------------------------------------------

    fn block(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::LBrace)?;
        let mark = self.stmts.len();
        while self.peek() != TokenKind::RBrace {
            let stmt = self.stmt()?;
            self.stmts.push(stmt);
        }
        self.expect(TokenKind::RBrace)?;
        let stmts = self.ast.push_stmts(self.stmts.drain(mark..));
        Ok(self.push(ExprKind::Block(stmts), start.join(self.prev_span())))
    }

    fn stmt(&mut self) -> Fallible<Stmt> {
        match self.peek() {
            TokenKind::Let => {
                self.bump();
                // `let x = e;` or `let T x = e;`
                let (ty, name) = if matches!(self.peek(), TokenKind::Ident(_))
                    && self.peek2() == TokenKind::Eq
                {
                    let (name, _) = self.ident()?;
                    (None, name)
                } else {
                    let ty = self.ty()?;
                    let (name, _) = self.ident()?;
                    (Some(ty), name)
                };
                self.expect(TokenKind::Eq)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                let ty = ty.map(|t| self.ast.push_type(t));
                Ok(Stmt::Let {
                    ty,
                    name: Ident::new(name),
                    value,
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == TokenKind::Semi {
                    self.push(ExprKind::Lit(Lit::Unit), self.span())
                } else {
                    self.expr()?
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::Return(value))
            }
            TokenKind::If | TokenKind::Try => {
                // Statement-style `if`/`try` do not require a trailing `;`.
                let e = self.expr()?;
                self.eat(TokenKind::Semi);
                Ok(Stmt::Expr(e))
            }
            _ => {
                let e = self.expr()?;
                self.eat(TokenKind::Semi);
                Ok(Stmt::Expr(e))
            }
        }
    }

    // ---- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Fallible<ExprId> {
        self.binary_expr(0)
    }

    /// Precedence climbing over the binary operators: parses an operand,
    /// then every operator that binds at least as tightly as `min`, each
    /// with a right operand of strictly tighter operators. Every level is
    /// left-associative.
    fn binary_expr(&mut self, min: u8) -> Fallible<ExprId> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = self.span_of(lhs).join(self.span_of(rhs));
            lhs = self.push(ExprKind::Binary { op, lhs, rhs }, span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        let op = if self.eat(TokenKind::Bang) {
            UnOp::Not
        } else if self.eat(TokenKind::Minus) {
            UnOp::Neg
        } else {
            return self.postfix_expr();
        };
        let expr = self.unary_expr()?;
        let span = start.join(self.span_of(expr));
        Ok(self.push(ExprKind::Unary { op, expr }, span))
    }

    fn postfix_expr(&mut self) -> Fallible<ExprId> {
        let mut e = self.primary_expr()?;
        loop {
            if self.eat(TokenKind::Dot) {
                let (name, nspan) = self.ident()?;
                // Method-mode instantiation `.md@mode<η, ...>(args)`.
                let mode_args = if self.peek() == TokenKind::At {
                    self.at_mode_open()?;
                    let mut args = vec![self.static_mode()?];
                    while self.eat(TokenKind::Comma) {
                        args.push(self.static_mode()?);
                    }
                    self.expect(TokenKind::Gt)?;
                    args
                } else {
                    Vec::new()
                };
                if self.peek() == TokenKind::LParen {
                    // A call on a builtin namespace's name is a builtin
                    // call: the name's `Var` node, the last one pushed,
                    // gives way to it.
                    let ns = match self.ast[e].kind {
                        ExprKind::Var(ns) if is_builtin_ns(self.text(ns.symbol())) => Some(ns),
                        _ => None,
                    };
                    let start = self.span_of(e);
                    if ns.is_some() {
                        self.ast.pop(e);
                    }
                    let args = self.call_args()?;
                    let span = start.join(self.prev_span());
                    let name = Ident::new(name);
                    let kind = match ns {
                        Some(ns) => ExprKind::Builtin { ns, name, args },
                        None => ExprKind::Call {
                            recv: e,
                            method: name,
                            mode_args,
                            args,
                        },
                    };
                    e = self.push(kind, span);
                } else {
                    if !mode_args.is_empty() {
                        return Err(SyntaxError::boxed("mode arguments require a call", nspan));
                    }
                    let span = self.span_of(e).join(nspan);
                    let name = Ident::new(name);
                    e = self.push(ExprKind::Field { recv: e, name }, span);
                }
            } else if self.eat(TokenKind::TriangleLeft) {
                let mode = if self.eat(TokenKind::Underscore) {
                    None
                } else {
                    Some(self.static_mode()?)
                };
                let span = self.span_of(e).join(self.prev_span());
                e = self.push(ExprKind::Elim { expr: e, mode }, span);
            } else {
                return Ok(e);
            }
        }
    }

    fn call_args(&mut self) -> Fallible<ExprList> {
        self.expect(TokenKind::LParen)?;
        let list = self.expr_list(TokenKind::RParen)?;
        self.expect(TokenKind::RParen)?;
        Ok(list)
    }

    /// Comma-separated expressions up to (not including) `close`.
    fn expr_list(&mut self, close: TokenKind) -> Fallible<ExprList> {
        let mark = self.items.len();
        if self.peek() != close {
            loop {
                let item = self.expr()?;
                self.items.push(item);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(self.ast.push_exprs(self.items.drain(mark..)))
    }

    fn primary_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        // Single-token expressions fall through to one `bump`.
        let kind = match self.peek() {
            TokenKind::Int(n) => ExprKind::Lit(Lit::Int(n)),
            TokenKind::Double(x) => ExprKind::Lit(Lit::Double(x)),
            // The cast lookahead never reaches a string literal, so each
            // is parsed exactly once.
            TokenKind::Str(id) => ExprKind::Lit(Lit::Str(std::mem::take(
                &mut self.lexed.strings[id as usize],
            ))),
            TokenKind::True => ExprKind::Lit(Lit::Bool(true)),
            TokenKind::False => ExprKind::Lit(Lit::Bool(false)),
            TokenKind::This => ExprKind::This,
            TokenKind::Ident(id) if self.lexed.is_mode[id as usize] => {
                ExprKind::ModeConst(self.mode_name(id))
            }
            TokenKind::Ident(id) => ExprKind::Var(Ident::new(Symbol::from_raw(id))),
            TokenKind::New => return self.new_expr(),
            TokenKind::Snapshot => return self.snapshot_expr(),
            TokenKind::MCase => return self.mcase_expr(),
            TokenKind::If => return self.if_expr(),
            TokenKind::Try => return self.try_expr(),
            TokenKind::LBrace => return self.block(),
            TokenKind::LBracket => {
                self.bump();
                let items = self.expr_list(TokenKind::RBracket)?;
                self.expect(TokenKind::RBracket)?;
                let span = start.join(self.prev_span());
                return Ok(self.push(ExprKind::ArrayLit(items), span));
            }
            TokenKind::LParen => return self.paren_or_cast(),
            other => {
                return Err(SyntaxError::boxed(
                    format!("expected an expression, found {}", self.describe(other)),
                    start,
                ))
            }
        };
        self.bump();
        Ok(self.push(kind, start))
    }

    fn new_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::New)?;
        let (class, _) = self.ident()?;
        let args = if self.peek() == TokenKind::At {
            self.at_mode_open()?;
            let mode = if self.eat(TokenKind::Question) {
                Mode::Dynamic
            } else {
                Mode::Static(self.static_mode()?)
            };
            let mut rest = Vec::new();
            while self.eat(TokenKind::Comma) {
                rest.push(self.static_mode()?);
            }
            self.expect(TokenKind::Gt)?;
            Some(self.ast.push_mode_args(ModeArgs::new(mode, rest)))
        } else {
            None
        };
        let ctor_args = self.call_args()?;
        let new = ExprKind::New {
            class: ClassName::new(class),
            args,
            ctor_args,
        };
        Ok(self.push(new, start.join(self.prev_span())))
    }

    fn snapshot_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::Snapshot)?;
        let expr = self.postfix_expr()?;
        let (lo, hi) = if self.eat(TokenKind::LBracket) {
            let lo = if self.eat(TokenKind::Underscore) {
                StaticMode::Bot
            } else {
                self.static_mode()?
            };
            self.expect(TokenKind::Comma)?;
            let hi = if self.eat(TokenKind::Underscore) {
                StaticMode::Top
            } else {
                self.static_mode()?
            };
            self.expect(TokenKind::RBracket)?;
            (lo, hi)
        } else {
            (StaticMode::Bot, StaticMode::Top)
        };
        let span = start.join(self.prev_span());
        Ok(self.push(ExprKind::Snapshot { expr, lo, hi }, span))
    }

    fn mcase_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::MCase)?;
        let ty = if self.peek() == TokenKind::Lt {
            self.bump();
            let t = self.ty()?;
            self.expect(TokenKind::Gt)?;
            Some(self.ast.push_type(t))
        } else {
            None
        };
        self.expect(TokenKind::LBrace)?;
        let mark = self.arms.len();
        while self.peek() != TokenKind::RBrace {
            let (mode, mspan) = self.ident_id()?;
            if !self.lexed.is_mode[mode as usize] {
                return Err(SyntaxError::boxed(
                    format!(
                        "`{}` is not a declared mode",
                        self.text(Symbol::from_raw(mode))
                    ),
                    mspan,
                ));
            }
            self.expect(TokenKind::Colon)?;
            let value = self.expr()?;
            self.expect(TokenKind::Semi)?;
            let name = self.mode_name(mode);
            self.arms.push((name, value));
        }
        self.expect(TokenKind::RBrace)?;
        let arms = self.ast.push_arms(self.arms.drain(mark..));
        Ok(self.push(ExprKind::MCase { ty, arms }, start.join(self.prev_span())))
    }

    fn if_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::If)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let then = self.block()?;
        let els = if self.eat(TokenKind::Else) {
            if self.peek() == TokenKind::If {
                Some(self.if_expr()?)
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        let span = start.join(self.prev_span());
        Ok(self.push(ExprKind::If { cond, then, els }, span))
    }

    fn try_expr(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        self.expect(TokenKind::Try)?;
        let body = self.block()?;
        self.expect(TokenKind::Catch)?;
        let handler = self.block()?;
        let span = start.join(self.prev_span());
        Ok(self.push(ExprKind::Try { body, handler }, span))
    }

    /// Disambiguates `(expr)` from a cast `(T)e`.
    ///
    /// A parenthesized prefix is a cast when its content parses as a type
    /// that is not a bare lowercase identifier, and the token after `)`
    /// starts an expression. Class names are uppercase by convention, which
    /// is what makes `(Rule)r` parse as a cast but `(x) + 1` as grouping.
    fn paren_or_cast(&mut self) -> Fallible<ExprId> {
        let start = self.span();
        let save = self.pos;
        self.expect(TokenKind::LParen)?;

        // Attempt a cast parse.
        let looks_like_type = match self.peek() {
            TokenKind::MCase => true,
            TokenKind::Ident(id) => {
                let name = self.text(Symbol::from_raw(id));
                name.chars().next().is_some_and(char::is_uppercase) || Lexed::prim(id).is_some()
            }
            _ => false,
        };
        if looks_like_type {
            if let Ok(ty) = self.ty() {
                if self.eat(TokenKind::RParen) && starts_expression(self.peek()) {
                    let expr = self.unary_expr()?;
                    let span = start.join(self.span_of(expr));
                    let ty = self.ast.push_type(ty);
                    return Ok(self.push(ExprKind::Cast { ty, expr }, span));
                }
            }
            self.pos = save;
            self.expect(TokenKind::LParen)?;
        }

        let inner = self.expr()?;
        self.expect(TokenKind::RParen)?;
        Ok(inner)
    }
}

/// A binary operator token's operator and precedence, loosest first:
/// `||`, `&&`, equality, comparison, additive, multiplicative.
fn binary_op(kind: TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, 2),
        TokenKind::NotEq => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

fn is_builtin_ns(name: &str) -> bool {
    matches!(name, "Ext" | "Sim" | "IO" | "Arr" | "Str" | "Math")
}

fn starts_expression(kind: TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::Ident(_)
            | TokenKind::Int(_)
            | TokenKind::Double(_)
            | TokenKind::Str(_)
            | TokenKind::True
            | TokenKind::False
            | TokenKind::This
            | TokenKind::New
            | TokenKind::Snapshot
            | TokenKind::MCase
            | TokenKind::LParen
            | TokenKind::LBracket
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tree of `src` and the kind of its root.
    fn expr(src: &str) -> (Ast, ExprKind) {
        let (ast, kind, _) = expr_names(src);
        (ast, kind)
    }

    /// The tree of `src`, the kind of its root and the name table.
    fn expr_names(src: &str) -> (Ast, ExprKind, Names) {
        let modes = ["energy_saver", "managed", "full_throttle"];
        let (ast, root, names) = parse_expr(src, &modes).unwrap();
        let kind = ast[root].kind.clone();
        (ast, kind, names)
    }

    /// The id `name` has in `names`.
    fn sym(names: &Names, name: &str) -> Symbol {
        names.find(name).unwrap()
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let (ast, e) = expr("1 + 2 * 3");
        match e {
            ExprKind::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    ast[rhs].kind,
                    ExprKind::Binary { op: BinOp::Mul, .. }
                ));
            }
            other => panic!("expected addition, got {other:?}"),
        }
    }

    #[test]
    fn parses_snapshot_with_bounds() {
        let (_, e, names) = expr_names("snapshot ds [_, X]");
        match e {
            ExprKind::Snapshot { lo, hi, .. } => {
                assert_eq!(lo, StaticMode::Bot);
                assert_eq!(hi, StaticMode::Var(ModeVar::named(sym(&names, "X"))));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn parses_snapshot_without_bounds() {
        let (_, e) = expr("snapshot da");
        match e {
            ExprKind::Snapshot { lo, hi, .. } => {
                assert_eq!(lo, StaticMode::Bot);
                assert_eq!(hi, StaticMode::Top);
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn parses_mcase_literal() {
        let (ast, e) = expr("mcase<int>{ energy_saver: 1; managed: 2; full_throttle: 3; }");
        match e {
            ExprKind::MCase { ty, arms } => {
                assert_eq!(ty.map(|t| &ast[t]), Some(&Type::INT));
                assert_eq!(arms.len(), 3);
                assert_eq!(ast[arms][1].0, ModeName::new("managed"));
            }
            other => panic!("expected mcase, got {other:?}"),
        }
    }

    #[test]
    fn mcase_arm_requires_declared_mode() {
        let err = parse_expr("mcase<int>{ bogus: 1; }", &["managed"]).unwrap_err();
        assert!(err.message().contains("not a declared mode"));
    }

    #[test]
    fn parses_elimination_operator() {
        let (_, e) = expr("this.depth <| managed");
        match e {
            ExprKind::Elim { mode, .. } => {
                assert_eq!(mode, Some(StaticMode::Const(ModeName::new("managed"))));
            }
            other => panic!("expected elim, got {other:?}"),
        }
        let (_, e) = expr("this.depth <| _");
        assert!(matches!(e, ExprKind::Elim { mode: None, .. }));
    }

    #[test]
    fn mode_constants_resolve_in_expressions() {
        let (_, e) = expr("managed");
        assert!(matches!(e, ExprKind::ModeConst(_)));
        let (_, e) = expr("notamode");
        assert!(matches!(e, ExprKind::Var(_)));
    }

    #[test]
    fn builtin_namespaces_become_builtin_calls() {
        let (_, e) = expr("Ext.battery()");
        assert!(matches!(e, ExprKind::Builtin { .. }));
        let (_, e) = expr("foo.bar()");
        assert!(matches!(e, ExprKind::Call { .. }));
    }

    #[test]
    fn cast_vs_grouping() {
        let (_, e) = expr("(Site)s");
        assert!(matches!(e, ExprKind::Cast { .. }));
        let (_, e) = expr("(x)");
        assert!(matches!(e, ExprKind::Var(_)));
        let (_, e) = expr("(1 + 2) * 3");
        assert!(matches!(e, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_new_with_mode_instantiation() {
        let (ast, e, names) = expr_names("new Site@mode<full_throttle>(url)");
        match e {
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                assert_eq!(class, ClassName::new(sym(&names, "Site")));
                let args = &ast[args.unwrap()];
                assert_eq!(
                    args.mode,
                    Mode::Static(StaticMode::Const(ModeName::new("full_throttle")))
                );
                assert_eq!(ctor_args.len(), 1);
            }
            other => panic!("expected new, got {other:?}"),
        }
    }

    #[test]
    fn parses_new_without_mode() {
        let (_, e) = expr("new Rule()");
        assert!(matches!(e, ExprKind::New { args: None, .. }));
    }

    #[test]
    fn parses_program_with_modes_and_class() {
        let p = parse_program(
            "modes { low <= high; }
             class Agent@mode<? <= X> {
               attributor { return high; }
               int work(int n) { return n + 1; }
             }",
        )
        .unwrap();
        assert_eq!(p.mode_table.modes().len(), 2);
        let agent = &p.classes[0];
        assert!(agent.mode_params.dynamic);
        assert!(agent.attributor.is_some());
        assert_eq!(agent.methods.len(), 1);
    }

    #[test]
    fn debug_renders_bodies_as_nested_trees() {
        let p = parse_program("class M { int f(int x) { return -x + 1; } }").unwrap();
        let text = format!("{:?}", p.classes);
        let body = "body: Expr { kind: Block([Return(Expr { kind: Binary { op: Add, \
            lhs: Expr { kind: Unary { op: Neg, expr: Expr { kind: Var(Ident(x)), \
            span: Span { lo: 33, hi: 34 } } }, span: Span { lo: 32, hi: 34 } }, \
            rhs: Expr { kind: Lit(Int(1)), span: Span { lo: 37, hi: 38 } } }, \
            span: Span { lo: 32, hi: 38 } })]), span: Span { lo: 23, hi: 41 } }";
        assert!(
            text.starts_with("[ClassDecl { name: ClassName(M), "),
            "{text}"
        );
        assert!(text.contains(body), "{text}");
    }

    #[test]
    fn program_without_modes_block_gets_default_mode() {
        let p = parse_program("class Main { unit main() { return {}; } }").unwrap();
        assert_eq!(p.mode_table.modes().len(), 1);
    }

    #[test]
    fn parses_class_with_pinned_mode() {
        let p = parse_program(
            "modes { low <= high; }
             class Worker@mode<high> { }",
        )
        .unwrap();
        let worker = &p.classes[0];
        assert!(!worker.mode_params.dynamic);
        assert_eq!(worker.mode_params.bounds.len(), 1);
        let b = &worker.mode_params.bounds[0];
        assert_eq!(b.lo, b.hi);
    }

    #[test]
    fn parses_generic_class_and_method() {
        let p = parse_program(
            "modes { low <= high; }
             class Helper@mode<X> {
               @mode<high> int heavy(int n) { return n; }
               int id<s>(int n) { return n; }
             }",
        )
        .unwrap();
        let helper = &p.classes[0];
        let x = sym(p.names(), "X");
        assert_eq!(helper.mode_params.bounds[0].var, ModeVar::named(x));
        assert_eq!(
            helper.methods[0].mode,
            Some(StaticMode::Const(ModeName::new("high")))
        );
        assert_eq!(helper.methods[1].mode_params.len(), 1);
    }

    #[test]
    fn parses_method_level_attributor() {
        let p = parse_program(
            "modes { low <= high; }
             class C {
               int f(int n) attributor { return high; } { return n; }
             }",
        )
        .unwrap();
        assert!(p.classes[0].methods[0].attributor.is_some());
    }

    #[test]
    fn parses_field_with_mcase_initializer() {
        let p = parse_program(
            "modes { low <= high; }
             class C {
               mcase<int> depth = mcase{ low: 1; high: 3; };
             }",
        )
        .unwrap();
        let field = &p.classes[0].fields[0];
        assert_eq!(field.ty, Type::MCase(Box::new(Type::INT)));
        assert!(field.init.is_some());
    }

    #[test]
    fn parses_try_catch_and_if_else_chain() {
        let (_, e) = expr(
            "try { if (Ext.battery() >= 0.75) { 1 } else if (x) { 2 } else { 3 } } catch { 0 }",
        );
        assert!(matches!(e, ExprKind::Try { .. }));
    }

    #[test]
    fn parses_array_types_and_literals() {
        let p = parse_program(
            "class C {
               int[] xs = [1, 2, 3];
               string[][] grid = [];
             }",
        )
        .unwrap();
        let c = &p.classes[0];
        assert_eq!(c.fields[0].ty, Type::Array(Box::new(Type::INT)));
        assert_eq!(
            c.fields[1].ty,
            Type::Array(Box::new(Type::Array(Box::new(Type::STR))))
        );
    }

    #[test]
    fn parses_extends_with_super_args() {
        let p = parse_program(
            "modes { low <= high; }
             class Base@mode<X> { }
             class Derived@mode<Y> extends Base@mode<Y> { }",
        )
        .unwrap();
        let d = &p.classes[1];
        assert_eq!(d.superclass, ClassName::new(sym(p.names(), "Base")));
        let y = ModeVar::named(sym(p.names(), "Y"));
        assert_eq!(d.super_args, vec![StaticMode::Var(y)]);
    }

    #[test]
    fn rejects_two_attributors() {
        let err = parse_program(
            "modes { low <= high; }
             class C@mode<?> {
               attributor { return low; }
               attributor { return high; }
             }",
        )
        .unwrap_err();
        assert!(err.message().contains("more than one attributor"));
    }

    #[test]
    fn rejects_lowercase_class_name_in_type_position() {
        let err = parse_program("class C { foo x; }").unwrap_err();
        assert!(err.message().contains("uppercase"));
    }

    #[test]
    fn let_with_and_without_annotation() {
        let (ast, e) = expr("{ let x = 1; let int y = 2; x + y }");
        match e {
            ExprKind::Block(stmts) => {
                let stmts = &ast[stmts];
                assert!(matches!(&stmts[0], Stmt::Let { ty: None, .. }));
                let Stmt::Let { ty: Some(ty), .. } = stmts[1] else {
                    panic!("an annotated let, got {:?}", stmts[1]);
                };
                assert_eq!(ast[ty], Type::Prim(PrimType::Int));
                assert!(matches!(&stmts[2], Stmt::Expr(_)));
            }
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn return_without_value_is_unit() {
        let (ast, e) = expr("{ return; }");
        match e {
            ExprKind::Block(stmts) => {
                assert!(
                    matches!(ast[stmts][0], Stmt::Return(e) if matches!(ast[e].kind, ExprKind::Lit(Lit::Unit)))
                );
            }
            other => panic!("expected block, got {other:?}"),
        }
    }
}

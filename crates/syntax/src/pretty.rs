//! Pretty-printing of ENT programs back to concrete syntax.
//!
//! The printer produces text the parser accepts, which the round-trip
//! property tests rely on: `parse(print(ast)) == ast` (up to spans).

use std::fmt::Write as _;

use ent_modes::{Mode, Names, StaticMode};

use crate::ast::*;

/// Renders a static mode in *source* form: the lattice ends print as the
/// keywords `bot`/`top` (their `Display` forms `⊥`/`⊤` are not lexable).
fn src_mode(m: &StaticMode) -> String {
    match m {
        StaticMode::Bot => "bot".to_string(),
        StaticMode::Top => "top".to_string(),
        other => other.to_string(),
    }
}

/// Renders mode arguments in source form.
fn src_margs(args: &ent_modes::ModeArgs) -> String {
    let mut parts = vec![match &args.mode {
        Mode::Dynamic => "?".to_string(),
        Mode::Static(m) => src_mode(m),
    }];
    parts.extend(args.rest.iter().map(src_mode));
    parts.join(", ")
}

/// Renders a type in source form (see [`src_mode`]).
fn src_type(t: &ent_syntax_types::Type) -> String {
    match t {
        ent_syntax_types::Type::Object { class, args } => {
            if args.rest.is_empty() && args.mode == Mode::Static(StaticMode::Bot) {
                class.to_string()
            } else {
                format!("{class}@mode<{}>", src_margs(args))
            }
        }
        ent_syntax_types::Type::MCase(inner) => format!("mcase<{}>", src_type(inner)),
        ent_syntax_types::Type::Array(inner) => format!("{}[]", src_type(inner)),
        other => other.to_string(),
    }
}

mod ent_syntax_types {
    pub use crate::ast::Type;
}

/// Pretty-prints a program to parseable concrete syntax.
///
/// # Example
///
/// ```
/// use ent_syntax::{parse_program, print_program};
///
/// let src = "modes { low <= high; } class Main { unit main() { return {}; } }";
/// let p = parse_program(src)?;
/// let printed = print_program(&p);
/// assert!(printed.contains("class Main"));
/// // And the printed text parses again:
/// parse_program(&printed)?;
/// # Ok::<(), ent_syntax::SyntaxError>(())
/// ```
pub fn print_program(p: &Program) -> String {
    p.names().enter(|| print_program_names(p))
}

/// [`print_program`], under the program's names.
fn print_program_names(p: &Program) -> String {
    let mut out = Printer {
        ast: p.ast(),
        out: String::new(),
    };
    out.push_str("modes {\n");
    // Print the full declared order (covering edges via Display plus
    // isolated modes); simplest faithful encoding: every ordered pair.
    let modes = p.mode_table.modes();
    let mut printed_any = vec![false; modes.len()];
    for (i, a) in modes.iter().enumerate() {
        for (j, b) in modes.iter().enumerate() {
            if i != j && p.mode_table.le_const(a, b) {
                let _ = writeln!(out, "  {a} <= {b};");
                printed_any[i] = true;
                printed_any[j] = true;
            }
        }
    }
    for (i, a) in modes.iter().enumerate() {
        if !printed_any[i] {
            let _ = writeln!(out, "  {a};");
        }
    }
    out.push_str("}\n\n");
    for c in p.classes.iter() {
        out.class(c);
        out.push('\n');
    }
    out.out
}

/// Pretty-prints expression `e` of tree `ast`, whose names are ids into
/// `names`.
pub fn print_expr_string(names: &Names, ast: &Ast, e: ExprId) -> String {
    let mut out = Printer {
        ast,
        out: String::new(),
    };
    names.enter(|| out.expr(e, 0));
    out.out
}

fn print_bounded(b: &ent_modes::Bounded) -> String {
    if b.lo == b.hi {
        // Pinned mode.
        src_mode(&b.lo)
    } else if b.lo == StaticMode::Bot && b.hi == StaticMode::Top {
        b.var.to_string()
    } else {
        format!("{} <= {} <= {}", src_mode(&b.lo), b.var, src_mode(&b.hi))
    }
}

/// The text printed so far, and the tree it prints from.
struct Printer<'a> {
    ast: &'a Ast,
    out: String,
}

impl std::ops::Deref for Printer<'_> {
    type Target = String;

    fn deref(&self) -> &String {
        &self.out
    }
}

impl std::ops::DerefMut for Printer<'_> {
    fn deref_mut(&mut self) -> &mut String {
        &mut self.out
    }
}

impl Printer<'_> {
    fn class(&mut self, c: &ClassDecl) {
        let _ = write!(self, "class {}", c.name);
        self.class_mode_params(c);
        if c.superclass != ClassName::OBJECT {
            let _ = write!(self, " extends {}", c.superclass);
            if !c.super_args.is_empty() {
                let args: Vec<String> = c.super_args.iter().map(src_mode).collect();
                let _ = write!(self, "@mode<{}>", args.join(", "));
            }
        }
        self.push_str(" {\n");
        if let Some(a) = &c.attributor {
            self.push_str("  attributor ");
            self.expr(a.body, 1);
            self.push('\n');
        }
        for f in &c.fields {
            let _ = write!(self, "  {} {}", src_type(&f.ty), f.name);
            if let Some(init) = f.init {
                self.push_str(" = ");
                self.expr(init, 1);
            }
            self.push_str(";\n");
        }
        for m in &c.methods {
            self.method(m);
        }
        self.push_str("}\n");
    }

    fn class_mode_params(&mut self, c: &ClassDecl) {
        let mp = &c.mode_params;
        if !mp.dynamic && mp.bounds.is_empty() {
            return;
        }
        self.push_str("@mode<");
        let mut parts = Vec::new();
        let mut bounds = mp.bounds.iter();
        if mp.dynamic {
            let first = bounds
                .next()
                .expect("dynamic class has an internal parameter");
            if first.var.name().is_none() {
                parts.push("?".to_string());
            } else if first.hi == StaticMode::Top {
                parts.push(format!("? <= {}", first.var));
            } else {
                parts.push(format!("? <= {} <= {}", first.var, src_mode(&first.hi)));
            }
        }
        for b in bounds {
            parts.push(print_bounded(b));
        }
        let _ = write!(self, "{}>", parts.join(", "));
    }

    fn method(&mut self, m: &MethodDecl) {
        self.push_str("  ");
        if let Some(mode) = &m.mode {
            let _ = write!(self, "@mode<{}> ", src_mode(mode));
        }
        let _ = write!(self, "{} {}", src_type(&m.ret), m.name);
        if !m.mode_params.is_empty() {
            let parts: Vec<String> = m.mode_params.iter().map(print_bounded).collect();
            let _ = write!(self, "<{}>", parts.join(", "));
        }
        self.push('(');
        let params: Vec<String> = m
            .params
            .iter()
            .map(|(t, x)| format!("{} {x}", src_type(t)))
            .collect();
        let _ = write!(self, "{}) ", params.join(", "));
        if let Some(a) = &m.attributor {
            self.push_str("attributor ");
            self.expr(a.body, 1);
            self.push(' ');
        }
        self.expr(m.body, 1);
        self.push('\n');
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.push_str("  ");
        }
    }

    fn expr(&mut self, e: ExprId, depth: usize) {
        let ast = self.ast;
        match &ast[e].kind {
            ExprKind::Var(x) => {
                let _ = write!(self, "{x}");
            }
            ExprKind::This => self.push_str("this"),
            ExprKind::Lit(l) => {
                let _ = write!(self, "{l}");
            }
            ExprKind::ModeConst(m) => {
                let _ = write!(self, "{m}");
            }
            ExprKind::Field { recv, name } => {
                self.postfix_operand(*recv, depth);
                let _ = write!(self, ".{name}");
            }
            ExprKind::New {
                class,
                args,
                ctor_args,
            } => {
                let _ = write!(self, "new {class}");
                if let Some(args) = args {
                    let _ = write!(self, "@mode<{}>", src_margs(&ast[*args]));
                }
                self.push('(');
                self.comma(*ctor_args, depth);
                self.push(')');
            }
            ExprKind::Call {
                recv,
                method,
                mode_args,
                args,
            } => {
                self.postfix_operand(*recv, depth);
                let _ = write!(self, ".{method}");
                if !mode_args.is_empty() {
                    let parts: Vec<String> = mode_args.iter().map(src_mode).collect();
                    let _ = write!(self, "@mode<{}>", parts.join(", "));
                }
                self.push('(');
                self.comma(*args, depth);
                self.push(')');
            }
            ExprKind::Builtin { ns, name, args } => {
                let _ = write!(self, "{ns}.{name}(");
                self.comma(*args, depth);
                self.push(')');
            }
            ExprKind::Cast { ty, expr } => {
                let _ = write!(self, "({})", src_type(&ast[*ty]));
                self.expr(*expr, depth);
            }
            ExprKind::Snapshot { expr, lo, hi } => {
                self.push_str("snapshot ");
                // The snapshot operand is parsed at postfix precedence; wrap
                // anything looser in parentheses.
                let simple = matches!(
                    ast[*expr].kind,
                    ExprKind::Var(_)
                        | ExprKind::This
                        | ExprKind::Lit(_)
                        | ExprKind::Field { .. }
                        | ExprKind::Call { .. }
                        | ExprKind::Builtin { .. }
                        | ExprKind::New { .. }
                );
                if simple {
                    self.expr(*expr, depth);
                } else {
                    self.push('(');
                    self.expr(*expr, depth);
                    self.push(')');
                }
                let lo_s = if *lo == StaticMode::Bot {
                    "_".to_string()
                } else {
                    src_mode(lo)
                };
                let hi_s = if *hi == StaticMode::Top {
                    "_".to_string()
                } else {
                    src_mode(hi)
                };
                let _ = write!(self, " [{lo_s}, {hi_s}]");
            }
            ExprKind::MCase { ty, arms } => {
                self.push_str("mcase");
                if let Some(t) = ty {
                    let _ = write!(self, "<{}>", src_type(&ast[*t]));
                }
                self.push_str("{ ");
                for (m, v) in &ast[*arms] {
                    let _ = write!(self, "{m}: ");
                    self.expr(*v, depth);
                    self.push_str("; ");
                }
                self.push('}');
            }
            ExprKind::Elim { expr, mode } => {
                self.expr(*expr, depth);
                match mode {
                    Some(m) => {
                        let _ = write!(self, " <| {}", src_mode(m));
                    }
                    None => self.push_str(" <| _"),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.push('(');
                self.expr(*lhs, depth);
                let _ = write!(self, " {op} ");
                self.expr(*rhs, depth);
                self.push(')');
            }
            ExprKind::Unary { op, expr } => {
                let _ = write!(self, "{op}");
                self.push('(');
                self.expr(*expr, depth);
                self.push(')');
            }
            ExprKind::If { cond, then, els } => {
                self.push_str("if (");
                self.expr(*cond, depth);
                self.push_str(") ");
                self.block_like(*then, depth);
                if let Some(els) = *els {
                    self.push_str(" else ");
                    if matches!(ast[els].kind, ExprKind::If { .. }) {
                        self.expr(els, depth);
                    } else {
                        self.block_like(els, depth);
                    }
                }
            }
            ExprKind::Block(stmts) => {
                self.push_str("{\n");
                for s in &ast[*stmts] {
                    self.indent(depth + 1);
                    match s {
                        Stmt::Let { ty, name, value } => {
                            self.push_str("let ");
                            if let Some(t) = ty {
                                let _ = write!(self, "{} ", src_type(&ast[*t]));
                            }
                            let _ = write!(self, "{name} = ");
                            self.expr(*value, depth + 1);
                            self.push_str(";\n");
                        }
                        Stmt::Expr(e) => {
                            self.expr(*e, depth + 1);
                            self.push_str(";\n");
                        }
                        Stmt::Return(e) => {
                            self.push_str("return ");
                            self.expr(*e, depth + 1);
                            self.push_str(";\n");
                        }
                    }
                }
                self.indent(depth);
                self.push('}');
            }
            ExprKind::Try { body, handler } => {
                self.push_str("try ");
                self.block_like(*body, depth);
                self.push_str(" catch ");
                self.block_like(*handler, depth);
            }
            ExprKind::ArrayLit(items) => {
                self.push('[');
                self.comma(*items, depth);
                self.push(']');
            }
        }
    }

    /// Prints an expression in a postfix-operand position (`.field`,
    /// `.call()`, `<|`), parenthesizing anything looser than postfix
    /// precedence.
    fn postfix_operand(&mut self, e: ExprId, depth: usize) {
        let simple = matches!(
            self.ast[e].kind,
            ExprKind::Var(_)
                | ExprKind::This
                | ExprKind::Lit(_)
                | ExprKind::ModeConst(_)
                | ExprKind::Field { .. }
                | ExprKind::Call { .. }
                | ExprKind::Builtin { .. }
                | ExprKind::New { .. }
                | ExprKind::ArrayLit(_)
                | ExprKind::Binary { .. } // printed parenthesized already
        );
        if simple {
            self.expr(e, depth);
        } else {
            self.push('(');
            self.expr(e, depth);
            self.push(')');
        }
    }

    fn block_like(&mut self, e: ExprId, depth: usize) {
        if matches!(self.ast[e].kind, ExprKind::Block(_)) {
            self.expr(e, depth);
        } else {
            // Canonicalize to a one-statement block so print∘parse∘print
            // is a fixpoint (the parser represents `{ e }` as a Block).
            self.push_str("{\n");
            self.indent(depth + 1);
            self.expr(e, depth + 1);
            self.push_str(";\n");
            self.indent(depth);
            self.push('}');
        }
    }

    fn comma(&mut self, items: ExprList, depth: usize) {
        for (i, &item) in self.ast[items].iter().enumerate() {
            if i > 0 {
                self.push_str(", ");
            }
            self.expr(item, depth);
        }
    }
}

/// Prints a type's mode arguments, names through the table current on
/// the thread. (Used by diagnostics in downstream crates; re-exported for
/// convenience.)
pub fn mode_args_string(args: &ent_modes::ModeArgs) -> String {
    match (&args.mode, args.rest.is_empty()) {
        (Mode::Static(StaticMode::Bot), true) => String::new(),
        _ => format!("@mode<{args}>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_expr, parse_program};

    #[test]
    fn print_parse_roundtrip_program() {
        let src = "modes { low <= high; }
            class Agent@mode<? <= X> {
              mcase<int> depth = mcase{ low: 1; high: 3; };
              attributor { if (Ext.battery() >= 0.5) { return high; } else { return low; } }
              int work(int n) {
                let a = snapshot this [_, X];
                return n + (this.depth <| low);
              }
            }
            class Main {
              unit main() { return {}; }
            }";
        let p1 = parse_program(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse_program(&printed).expect("printed program must parse");
        assert_eq!(p1.classes.len(), p2.classes.len());
        assert_eq!(
            p1.classes[0].mode_params, p2.classes[0].mode_params,
            "mode params survive roundtrip"
        );
    }

    #[test]
    fn expression_printing_is_parseable() {
        let (ast1, e1, names1) = parse_expr("1 + 2 * -x", &[]).unwrap();
        let s = print_expr_string(&names1, &ast1, e1);
        let (ast2, e2, names2) = parse_expr(&s, &[]).unwrap();
        // Printed form is fully parenthesized; compare printed forms.
        assert_eq!(s, print_expr_string(&names2, &ast2, e2));
    }

    #[test]
    fn snapshot_bounds_print_with_holes() {
        let (ast, e, names) = parse_expr("snapshot x", &[]).unwrap();
        assert_eq!(print_expr_string(&names, &ast, e), "snapshot x [_, _]");
    }

    #[test]
    fn pinned_mode_class_roundtrips() {
        let src = "modes { low <= high; } class W@mode<high> { }";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&print_program(&p1)).unwrap();
        assert_eq!(p1.classes[0].mode_params, p2.classes[0].mode_params);
    }
}

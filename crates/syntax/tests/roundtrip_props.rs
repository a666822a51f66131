//! Property tests: pretty-printed expressions re-parse to the same tree
//! (compared via their printed normal form, since spans differ).

use ent_modes::Names;
use ent_syntax::{
    parse_expr, print_expr_string, Ast, BinOp, Expr, ExprId, ExprKind, Ident, Lit, Span,
};
use proptest::prelude::*;

const MODES: &[&str] = &["energy_saver", "managed", "full_throttle"];

/// An expression's shape, which [`build`] adds to a tree.
#[derive(Clone, Debug)]
enum Shape {
    Leaf(ExprKind),
    Var(String),
    Binary(BinOp, Box<Shape>, Box<Shape>),
    Field(Box<Shape>, String),
    Call(Box<Shape>, Vec<Shape>),
    Not(Box<Shape>),
    If(Box<Shape>, Box<Shape>, Box<Shape>),
    Array(Vec<Shape>),
    Snapshot(Box<Shape>),
}

/// The id of `name` in `names`, added if new.
fn intern(names: &mut Names, name: &str) -> Ident {
    Ident::new(names.find(name).unwrap_or_else(|| names.push(name)))
}

/// Adds `shape` to `ast`, children first, its names to `names`, and
/// returns its root.
fn build(ast: &mut Ast, names: &mut Names, shape: &Shape) -> ExprId {
    let kind = match shape {
        Shape::Leaf(kind) => kind.clone(),
        Shape::Var(name) => ExprKind::Var(intern(names, name)),
        Shape::Binary(op, l, r) => ExprKind::Binary {
            op: *op,
            lhs: build(ast, names, l),
            rhs: build(ast, names, r),
        },
        Shape::Field(e, name) => ExprKind::Field {
            recv: build(ast, names, e),
            name: intern(names, name),
        },
        Shape::Call(e, args) => {
            let recv = build(ast, names, e);
            let args: Vec<ExprId> = args.iter().map(|a| build(ast, names, a)).collect();
            ExprKind::Call {
                recv,
                method: intern(names, "work"),
                mode_args: vec![],
                args: ast.push_exprs(args),
            }
        }
        Shape::Not(e) => ExprKind::Unary {
            op: ent_syntax::UnOp::Not,
            expr: build(ast, names, e),
        },
        Shape::If(c, t, e) => ExprKind::If {
            cond: build(ast, names, c),
            then: build(ast, names, t),
            els: Some(build(ast, names, e)),
        },
        Shape::Array(items) => {
            let items: Vec<ExprId> = items.iter().map(|i| build(ast, names, i)).collect();
            ExprKind::ArrayLit(ast.push_exprs(items))
        }
        Shape::Snapshot(e) => ExprKind::Snapshot {
            expr: build(ast, names, e),
            lo: ent_modes::StaticMode::Bot,
            hi: ent_modes::StaticMode::Top,
        },
    };
    ast.push(Expr::new(kind, Span::DUMMY))
}

fn leaf() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (0i64..1000).prop_map(|n| Shape::Leaf(ExprKind::Lit(Lit::Int(n)))),
        any::<bool>().prop_map(|b| Shape::Leaf(ExprKind::Lit(Lit::Bool(b)))),
        "[a-z][a-z0-9_]{0,5}"
            .prop_filter("not a keyword or mode", |s| { !is_reserved(s) })
            .prop_map(Shape::Var),
        Just(Shape::Leaf(ExprKind::This)),
        "[a-z ]{0,8}".prop_map(|s| Shape::Leaf(ExprKind::Lit(Lit::Str(s)))),
    ]
}

fn is_reserved(s: &str) -> bool {
    MODES.contains(&s)
        || matches!(
            s,
            "class"
                | "extends"
                | "modes"
                | "mode"
                | "attributor"
                | "snapshot"
                | "mcase"
                | "new"
                | "let"
                | "if"
                | "else"
                | "return"
                | "try"
                | "catch"
                | "this"
                | "true"
                | "false"
                | "bot"
                | "top"
                | "int"
                | "double"
                | "bool"
                | "string"
                | "unit"
        )
}

fn arb_expr() -> impl Strategy<Value = Shape> {
    leaf().prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            // Binary operations
            (inner.clone(), inner.clone(), 0usize..6).prop_map(|(l, r, op)| {
                use ent_syntax::BinOp::*;
                let op = [Add, Sub, Mul, Lt, Eq, And][op];
                Shape::Binary(op, Box::new(l), Box::new(r))
            }),
            // Field access
            (
                inner.clone(),
                "[a-z][a-z0-9]{0,4}".prop_filter("reserved", |s| !is_reserved(s))
            )
                .prop_map(|(e, f)| Shape::Field(Box::new(e), f)),
            // Method call
            (
                inner.clone(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(e, args)| Shape::Call(Box::new(e), args)),
            // Unary
            inner.clone().prop_map(|e| Shape::Not(Box::new(e))),
            // If
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Shape::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            // Array literal
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Shape::Array),
            // Snapshot (unbounded)
            inner.clone().prop_map(|e| Shape::Snapshot(Box::new(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse → print is a fixpoint.
    #[test]
    fn printed_expressions_reparse(shape in arb_expr()) {
        let mut ast = Ast::new();
        let mut names = Names::default();
        let e = build(&mut ast, &mut names, &shape);
        let printed = print_expr_string(&names, &ast, e);
        let (reparsed, root, names) = parse_expr(&printed, MODES)
            .unwrap_or_else(|err| panic!("printed `{printed}` failed to parse: {err}"));
        prop_assert_eq!(printed.clone(), print_expr_string(&names, &reparsed, root));
    }
}

//! The Energy Types baseline: the purely *static* predecessor system
//! (Cohen et al., OOPSLA 2012) that §2's "Bob" programs in.
//!
//! Energy Types has mode qualifiers and the waterfall invariant but no
//! dynamic modes: no attributors, no `snapshot`, no `?`. This module
//! implements that restriction as an extra check layered over the ENT
//! typechecker, so the evaluation can demonstrate which programs are
//! expressible proactively and which require ENT's adaptive features.

use ent_core::{compile, CompileError, CompiledProgram};
use ent_syntax::{Ast, ExprId, ExprKind, ExprList, Program, Stmt};

/// A dynamic feature found by the Energy Types restriction check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DynamicFeature {
    /// A class declared with the dynamic mode `?` (and hence an attributor).
    DynamicClass(String),
    /// A method-level attributor.
    MethodAttributor(String),
    /// A `snapshot` expression.
    Snapshot,
}

impl std::fmt::Display for DynamicFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicFeature::DynamicClass(c) => {
                write!(
                    f,
                    "class `{c}` has a dynamic mode (not expressible in Energy Types)"
                )
            }
            DynamicFeature::MethodAttributor(m) => {
                write!(
                    f,
                    "method `{m}` has an attributor (not expressible in Energy Types)"
                )
            }
            DynamicFeature::Snapshot => {
                f.write_str("`snapshot` is not expressible in Energy Types")
            }
        }
    }
}

/// The result of checking a program against the Energy Types subset.
#[derive(Debug)]
pub enum EnergyTypesResult {
    /// The program compiles and stays within the static subset.
    Static(CompiledProgram),
    /// The program compiles under ENT but uses dynamic features — "Bob"
    /// cannot write it.
    RequiresEnt(Vec<DynamicFeature>),
    /// The program does not compile under ENT either.
    Rejected(CompileError),
}

/// Checks a source program against the Energy Types (static-only) subset.
///
/// # Example
///
/// ```
/// use ent_baselines::{check_energy_types, EnergyTypesResult};
///
/// // Fully static: fine under Energy Types.
/// let bob = "modes { low <= high; }
///     class Site@mode<S> { int n; }
///     class Main { unit main() { let s = new Site@mode<high>(1); return {}; } }";
/// assert!(matches!(check_energy_types(bob), EnergyTypesResult::Static(_)));
///
/// // Adaptive: needs ENT.
/// let christina = "modes { low <= high; }
///     class D@mode<?> { attributor { return low; } }
///     class Main { unit main() { let d = new D(); return {}; } }";
/// assert!(matches!(check_energy_types(christina), EnergyTypesResult::RequiresEnt(_)));
/// ```
pub fn check_energy_types(src: &str) -> EnergyTypesResult {
    let compiled = match compile(src) {
        Ok(c) => c,
        Err(e) => return EnergyTypesResult::Rejected(e),
    };
    let features = dynamic_features(&compiled.program);
    if features.is_empty() {
        EnergyTypesResult::Static(compiled)
    } else {
        EnergyTypesResult::RequiresEnt(features)
    }
}

/// Collects every use of a dynamic feature in a program.
pub fn dynamic_features(program: &Program) -> Vec<DynamicFeature> {
    let (ast, names) = (program.ast(), program.names());
    let mut found = Vec::new();
    for class in program.classes.iter() {
        let class_name = names.get(class.name.symbol());
        if class.mode_params.dynamic {
            found.push(DynamicFeature::DynamicClass(class_name.to_string()));
        }
        for method in &class.methods {
            if method.attributor.is_some() {
                found.push(DynamicFeature::MethodAttributor(format!(
                    "{class_name}::{}",
                    names.get(method.name.symbol())
                )));
            }
            scan_expr(ast, method.body, &mut found);
        }
        for field in &class.fields {
            if let Some(init) = field.init {
                scan_expr(ast, init, &mut found);
            }
        }
        if let Some(attributor) = &class.attributor {
            scan_expr(ast, attributor.body, &mut found);
        }
    }
    found
}

fn scan_expr(ast: &Ast, e: ExprId, found: &mut Vec<DynamicFeature>) {
    let scan_all = |items: ExprList, found: &mut Vec<DynamicFeature>| {
        for &a in &ast[items] {
            scan_expr(ast, a, found);
        }
    };
    match &ast[e].kind {
        ExprKind::Snapshot { expr, .. } => {
            found.push(DynamicFeature::Snapshot);
            scan_expr(ast, *expr, found);
        }
        ExprKind::Field { recv, .. } => scan_expr(ast, *recv, found),
        ExprKind::New { ctor_args, .. } => scan_all(*ctor_args, found),
        ExprKind::Call { recv, args, .. } => {
            scan_expr(ast, *recv, found);
            scan_all(*args, found);
        }
        ExprKind::Builtin { args, .. } => scan_all(*args, found),
        ExprKind::Cast { expr, .. }
        | ExprKind::Unary { expr, .. }
        | ExprKind::Elim { expr, .. } => scan_expr(ast, *expr, found),
        ExprKind::MCase { arms, .. } => {
            for &(_, a) in &ast[*arms] {
                scan_expr(ast, a, found);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            scan_expr(ast, *lhs, found);
            scan_expr(ast, *rhs, found);
        }
        ExprKind::If { cond, then, els } => {
            scan_expr(ast, *cond, found);
            scan_expr(ast, *then, found);
            if let Some(els) = *els {
                scan_expr(ast, els, found);
            }
        }
        ExprKind::Block(stmts) => {
            for s in &ast[*stmts] {
                match *s {
                    Stmt::Let { value: e, .. } | Stmt::Expr(e) | Stmt::Return(e) => {
                        scan_expr(ast, e, found)
                    }
                }
            }
        }
        ExprKind::Try { body, handler } => {
            scan_expr(ast, *body, found);
            scan_expr(ast, *handler, found);
        }
        ExprKind::ArrayLit(items) => scan_all(*items, found),
        ExprKind::Var(_) | ExprKind::This | ExprKind::Lit(_) | ExprKind::ModeConst(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_program_is_accepted() {
        let src = "modes { low <= high; }
            class Heavy@mode<H> { int run() { return 1; } }
            class Main {
              int main() {
                let h = new Heavy@mode<high>();
                return h.run();
              }
            }";
        assert!(matches!(
            check_energy_types(src),
            EnergyTypesResult::Static(_)
        ));
    }

    #[test]
    fn dynamic_class_is_flagged() {
        let src = "modes { low <= high; }
            class D@mode<?> { attributor { return low; } }
            class Main { unit main() { let d = new D(); return {}; } }";
        match check_energy_types(src) {
            EnergyTypesResult::RequiresEnt(features) => {
                assert!(features
                    .iter()
                    .any(|f| matches!(f, DynamicFeature::DynamicClass(_))));
            }
            other => panic!("expected RequiresEnt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_flagged_even_without_dynamic_class_in_scope() {
        let src = "modes { low <= high; }
            class D@mode<?> {
              attributor { return low; }
              int f() { return 1; }
            }
            class Main {
              int main() {
                let d = new D();
                let D s = snapshot d [_, _];
                return s.f();
              }
            }";
        match check_energy_types(src) {
            EnergyTypesResult::RequiresEnt(features) => {
                assert!(features.contains(&DynamicFeature::Snapshot));
            }
            other => panic!("expected RequiresEnt, got {other:?}"),
        }
    }

    #[test]
    fn method_attributor_is_flagged() {
        let src = "modes { low <= high; }
            class S@mode<X> {
              int n;
              int f() attributor { return low; } { return this.n; }
            }";
        match check_energy_types(src) {
            EnergyTypesResult::RequiresEnt(features) => {
                assert!(features
                    .iter()
                    .any(|f| matches!(f, DynamicFeature::MethodAttributor(_))));
            }
            other => panic!("expected RequiresEnt, got {other:?}"),
        }
    }

    #[test]
    fn ill_typed_program_is_rejected() {
        let src = "class Main { int main() { return true; } }";
        assert!(matches!(
            check_energy_types(src),
            EnergyTypesResult::Rejected(_)
        ));
    }

    #[test]
    fn every_benchmark_requires_ent() {
        // The paper's point: the benchmarks' adaptive structure is not
        // expressible in the purely static system.
        for spec in ent_workloads::all_benchmarks() {
            let platform = ent_workloads::platform_of(spec.primary_platform());
            let src = ent_workloads::e2_program(&spec, &platform, 1);
            assert!(
                matches!(check_energy_types(&src), EnergyTypesResult::RequiresEnt(_)),
                "{} should need ENT",
                spec.name
            );
        }
    }
}

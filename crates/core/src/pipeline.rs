//! The compiler pipeline: source text → parsed program → validated class
//! table → typechecked program.

use std::error::Error;
use std::fmt;

use ent_syntax::{parse_program, ClassTable, Program, SyntaxError, TableError};

use crate::diag::TypeError;
use crate::typeck::{typecheck_obligations, Obligation};

/// Everything that can go wrong while compiling an ENT program.
#[derive(Clone, Debug)]
pub enum CompileError {
    /// Lexing or parsing failed.
    Syntax(SyntaxError),
    /// The class structure is malformed (duplicate classes, bad
    /// inheritance, attributor mismatches, …).
    Table(TableError),
    /// Typechecking failed; all collected diagnostics are included.
    Type(Vec<TypeError>),
}

impl CompileError {
    /// Renders the error(s) with line/column positions against the source.
    pub fn render(&self, src: &str) -> String {
        match self {
            CompileError::Syntax(e) => e.render(src),
            CompileError::Table(e) => e.to_string(),
            CompileError::Type(errors) => errors
                .iter()
                .map(|e| e.render(src))
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Syntax(e) => write!(f, "{e}"),
            CompileError::Table(e) => write!(f, "{e}"),
            CompileError::Type(errors) => {
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for CompileError {}

impl From<SyntaxError> for CompileError {
    fn from(e: SyntaxError) -> Self {
        CompileError::Syntax(e)
    }
}

impl From<TableError> for CompileError {
    fn from(e: TableError) -> Self {
        CompileError::Table(e)
    }
}

/// A successfully compiled ENT program: the AST plus its validated class
/// table, ready for the interpreter.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The parsed, typechecked program.
    pub program: Program,
    /// Its validated class table.
    pub table: ClassTable,
    /// The enforcement obligations the typechecker left for the runtime
    /// (boundaries, call sites, field reads), in source order. Empty for
    /// [`compile_unchecked`] programs, which skip classification entirely.
    pub obligations: Vec<Obligation>,
}

/// Compiles ENT source text: parse, build the class table, typecheck.
///
/// # Errors
///
/// Returns the first syntax or table error, or every type error found.
///
/// # Example
///
/// ```
/// use ent_core::compile;
///
/// let compiled = compile(
///     "modes { energy_saver <= managed; managed <= full_throttle; }
///      class Site@mode<S> {
///        int resources;
///        int crawl(int depth) { return this.resources * depth; }
///      }
///      class Main {
///        int main() {
///          let s = new Site@mode<managed>(100);
///          return s.crawl(2);
///        }
///      }",
/// )?;
/// assert_eq!(compiled.program.classes.len(), 2);
/// # Ok::<(), ent_core::CompileError>(())
/// ```
pub fn compile(src: &str) -> Result<CompiledProgram, CompileError> {
    let program = parse_program(src)?;
    let table = ClassTable::new(&program)?;
    let obligations = typecheck_obligations(&program, &table).map_err(CompileError::Type)?;
    Ok(CompiledProgram {
        program,
        table,
        obligations,
    })
}

/// Parses and builds the class table *without* typechecking — used by the
/// baseline runtimes that deliberately skip the type system (the paper's
/// "silent" configuration) and by negative tests.
///
/// # Errors
///
/// Returns syntax or table errors only.
pub fn compile_unchecked(src: &str) -> Result<CompiledProgram, CompileError> {
    let program = parse_program(src)?;
    let table = ClassTable::new(&program)?;
    Ok(CompiledProgram {
        program,
        table,
        obligations: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::TypeErrorKind;

    #[test]
    fn compile_accepts_well_typed_program() {
        let src = "modes { low <= high; }
            class Main { int main() { return 42; } }";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn compile_reports_syntax_errors() {
        assert!(matches!(compile("class {"), Err(CompileError::Syntax(_))));
    }

    #[test]
    fn compile_reports_table_errors() {
        assert!(matches!(
            compile("class A { } class A { }"),
            Err(CompileError::Table(_))
        ));
    }

    #[test]
    fn compile_reports_type_errors_with_kinds() {
        let src = "modes { low <= high; }
            class Heavy@mode<H> { int run() { return 1; } }
            class Light@mode<L> {
              Heavy@mode<high> h;
              int go() { return this.h.run(); }
            }
            class Main {
              int main() {
                let l = new Light@mode<low>(new Heavy@mode<high>());
                return l.go();
              }
            }";
        // Inside Light (internal mode L, unconstrained), calling a
        // full-`high` Heavy violates the waterfall invariant.
        match compile(src) {
            Err(CompileError::Type(errors)) => {
                assert!(errors
                    .iter()
                    .any(|e| e.kind == TypeErrorKind::WaterfallViolation));
            }
            other => panic!("expected type errors, got {other:?}"),
        }
    }

    #[test]
    fn compile_collects_enforcement_obligations() {
        use crate::typeck::ObligationKind;
        let src = "modes { low <= high; }
            class Probe@mode<? <= P> {
              attributor { return low; }
              int reading;
              int poll() { return this.reading; }
            }
            class Main {
              int main() {
                let d = new Probe(7);
                let p = snapshot d [low, high];
                return p.poll();
              }
            }";
        let compiled = compile(src).unwrap();
        let kinds: Vec<ObligationKind> = compiled.obligations.iter().map(|o| o.kind).collect();
        // `this.reading` is a field read, the snapshot is a boundary, and
        // `p.poll()` is a call site — all owed to the runtime.
        assert!(kinds.contains(&ObligationKind::FieldRead));
        assert!(kinds.contains(&ObligationKind::Boundary));
        assert!(kinds.contains(&ObligationKind::CallSite));
        let snap = compiled
            .obligations
            .iter()
            .find(|o| o.kind == ObligationKind::Boundary)
            .unwrap();
        assert_eq!(snap.class.as_str(), "Probe");
        assert_eq!(snap.member.as_str(), "snapshot");
        // `compile_unchecked` performs no classification at all.
        assert!(compile_unchecked(src).unwrap().obligations.is_empty());
    }

    #[test]
    fn compile_unchecked_skips_type_errors() {
        let src = "modes { low <= high; }
            class Main { int main() { return \"not an int\"; } }";
        assert!(compile(src).is_err());
        assert!(compile_unchecked(src).is_ok());
    }

    #[test]
    fn render_produces_locations() {
        let src = "modes { low <= high; }\nclass Main { int main() { return true; } }";
        let err = compile(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("2:"), "rendered: {rendered}");
    }
}

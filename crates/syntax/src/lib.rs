//! Syntax of the ENT energy-aware programming language.
//!
//! This crate provides the abstract syntax tree (a flat one: see [`Ast`]), lexer, parser,
//! pretty-printer, and class table for ENT, the language of
//! "Proactive and Adaptive Energy-Aware Programming with Mixed Typechecking"
//! (Canino & Liu, PLDI 2017).
//!
//! The language is Featherweight Java extended with ENT's energy constructs
//! — `modes { ... }` declarations, `@mode<...>` class and method qualifiers,
//! attributors, `snapshot`, `mcase` and the elimination operator `<|` — plus
//! the practical extensions needed to write the paper's benchmarks
//! (primitives, `let`, `if`, blocks, arrays, `try`/`catch`, builtins).
//!
//! # Grammar sketch
//!
//! ```text
//! program    := modes-block? class*
//! modes-block:= "modes" "{" (name ("<=" name)? ";")* "}"
//! class      := "class" Name mode-annot? ("extends" Name inst?)? "{" member* "}"
//! mode-annot := "@mode<" param ("," param)* ">"
//! param      := "?" | "? <= X" | X | m | lo "<=" X "<=" hi
//! member     := attributor | field | method
//! attributor := "attributor" block
//! field      := type name ("=" expr)? ";"
//! method     := ("@mode<" mode ">")? type name ("<" param,* ">")? "(" (type name),* ")"
//!               ("attributor" block)? block
//! type       := prim | "mcase<" type ">" | Name ("@mode<" ("?"|mode) ("," mode)* ">")? "[]"*
//! expr       := ... | "snapshot" expr ("[" bound "," bound "]")?
//!             | "mcase" ("<" type ">")? "{" (m ":" expr ";")* "}" | expr "<|" (mode | "_")
//! ```
//!
//! # Example
//!
//! ```
//! use ent_syntax::{parse_program, ClassName, ClassTable};
//!
//! let program = parse_program(
//!     "modes { energy_saver <= managed; managed <= full_throttle; }
//!      class Agent@mode<? <= X> {
//!        attributor {
//!          if (Ext.battery() >= 0.75) { return full_throttle; }
//!          else { return energy_saver; }
//!        }
//!        int work(int n) { return n * 2; }
//!      }",
//! )?;
//! let table = ClassTable::new(&program).expect("valid class structure");
//! let agent = program.names().find("Agent").expect("a name of the program");
//! assert!(table.class(&ClassName::new(agent)).unwrap().mode_params.dynamic);
//! # Ok::<(), ent_syntax::SyntaxError>(())
//! ```

mod ast;
mod error;
mod lex;
mod parse;
mod pretty;
mod span;
mod table;
mod token;

pub use ast::{
    Arm, ArmList, Ast, Attributor, BinOp, ClassDecl, ClassName, Classes, Expr, ExprId, ExprKind,
    ExprList, FieldDecl, Ident, List, Lit, MethodDecl, ModeArgsId, PrimType, Program, Shown, Stmt,
    StmtList, Type, TypeId, UnOp,
};
pub use ent_modes::{Names, Spelling, Symbol};
pub use error::SyntaxError;
pub use lex::{lex, Lexed};
pub use parse::{parse_expr, parse_program, MAX_MODES, MAX_MODE_PARAMS};
pub use pretty::{mode_args_string, print_expr_string, print_program};
pub use span::{LineMap, Span};
pub use table::{ClassTable, ResolvedField, ResolvedMethod, TableError};
pub use token::{Token, TokenKind};

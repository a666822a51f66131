//! Negative syntax tests: every malformed construct produces a located
//! diagnostic, never a panic or a silent acceptance.

use ent_syntax::{lex, parse_program, MAX_MODES, MAX_MODE_PARAMS};

fn parse_err(src: &str) -> String {
    match parse_program(src) {
        Err(e) => e.render(src),
        Ok(_) => panic!("expected a parse error for: {src}"),
    }
}

#[test]
fn lexer_rejects_bad_numbers_and_chars() {
    assert!(
        lex("999999999999999999999999999").is_err(),
        "integer overflow"
    );
    assert!(lex("a $ b").is_err(), "unknown character");
    assert!(lex("\"unterminated").is_err());
    assert!(lex("\"bad \\q escape\"").is_err());
    assert!(lex("/* no end").is_err());
}

#[test]
fn modes_block_errors() {
    assert!(parse_err("modes { a <= }").contains("expected identifier"));
    assert!(parse_err("modes { a <= b }").contains("expected `;`"));
    // Cyclic order is a semantic error surfaced at parse time.
    assert!(parse_err("modes { a <= b; b <= a; }").contains("cyclic"));
    // Reserved names: `top`/`bot` are keywords, so they cannot even be
    // declared (the lattice-end check in ModeTableBuilder guards the
    // programmatic API).
    assert!(parse_err("modes { top <= a; }").contains("expected identifier"));
}

#[test]
fn class_declaration_errors() {
    assert!(parse_err("class { }").contains("expected identifier"));
    assert!(parse_err("class C").contains("expected `{`"));
    assert!(parse_err("class C@mode<> { }").contains("expected a mode"));
    assert!(parse_err("class C@mode { }").contains("expected `<`"));
    assert!(parse_err("class C extends { }").contains("expected identifier"));
}

#[test]
fn member_errors() {
    assert!(parse_err("class C { int ; }").contains("expected identifier"));
    assert!(
        parse_err("class C { int f( { } }").contains("uppercase")
            || !parse_err("class C { int f( { } }").is_empty()
    );
    assert!(parse_err("class C { @mode<x> int f; }").contains("not allowed on fields"));
}

#[test]
fn expression_errors() {
    let p = |body: &str| parse_err(&format!("class C {{ int f() {{ {body} }} }}"));
    assert!(p("return 1 +;").contains("expected an expression"));
    assert!(p("let = 3;").contains("uppercase") || !p("let = 3;").is_empty());
    assert!(p("return (1;").contains("expected"));
    assert!(p("return snapshot x [a b];").contains("expected `,`"));
    assert!(p("return x <|;").contains("expected a mode"));
}

#[test]
fn mcase_errors() {
    let p = |body: &str| {
        parse_err(&format!(
            "modes {{ low <= high; }} class C {{ int f() {{ {body} }} }}"
        ))
    };
    assert!(p("return mcase{ low: 1 };").contains("expected `;`"));
    assert!(p("return mcase{ nope: 1; };").contains("not a declared mode"));
    assert!(p("return mcase{ low 1; };").contains("expected `:`"));
}

#[test]
fn diagnostics_carry_line_and_column() {
    let src = "modes { low <= high; }\nclass C {\n  int f() { return 1 +; }\n}";
    let rendered = parse_err(src);
    assert!(rendered.starts_with("3:"), "points at line 3: {rendered}");
}

#[test]
fn eof_inside_structures() {
    assert!(!parse_err("class C {").is_empty());
    assert!(!parse_err("class C { int f() {").is_empty());
    assert!(!parse_err("modes {").is_empty());
    assert!(!parse_err("class C { int f() { return mcase{ }").is_empty());
}

/// `n` comma-separated mode parameters `X0, X1, …`.
fn params(n: usize) -> String {
    (0..n)
        .map(|i| format!("X{i}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn a_modes_block_past_the_limit_is_refused_at_the_first_extra_mode() {
    // Isolated modes, and a chain: both count distinct names, and a
    // repeated name counts once.
    let isolated = |n: usize| (0..n).map(|i| format!(" m{i};")).collect::<String>();
    let chain = |n: usize| {
        (1..n)
            .map(|i| format!(" m{} <= m{i};", i - 1))
            .collect::<String>()
    };
    for block in [isolated, chain] {
        let src = |n: usize| format!("modes {{{} m0; }} class Main {{ }}", block(n));
        let at = parse_program(&src(MAX_MODES)).expect("exactly at the limit parses");
        assert_eq!(at.mode_table.modes().len(), MAX_MODES);
        // 5000 modes stop at the 65th: the error points at `m64`, and no
        // mode table is built.
        for n in [MAX_MODES + 1, 5000] {
            let src = src(n);
            let err = parse_program(&src).unwrap_err();
            assert!(
                err.message()
                    .contains(&format!("declares more than {MAX_MODES} modes")),
                "{err}"
            );
            let at = src
                .find(&format!(" m{MAX_MODES};"))
                .expect("the extra mode");
            assert_eq!(err.span().lo as usize, at + 1, "{err}");
        }
    }
}

#[test]
fn a_class_or_method_past_the_parameter_limit_is_refused() {
    let class = |n: usize| format!("modes {{ low <= high; }} class C@mode<{}> {{ }}", params(n));
    let method = |n: usize| {
        format!(
            "modes {{ low <= high; }} class C {{ int f<{}>(int n) {{ return n; }} }}",
            params(n)
        )
    };
    let dynamic = |n: usize| {
        format!(
            "modes {{ low <= high; }} class C@mode<?, {}> {{ attributor {{ return low; }} }}",
            params(n - 1)
        )
    };
    for (what, src) in [
        ("class", &class as &dyn Fn(usize) -> String),
        ("method", &method),
        ("class", &dynamic),
    ] {
        parse_program(&src(MAX_MODE_PARAMS)).expect("exactly at the limit parses");
        let err = parse_program(&src(MAX_MODE_PARAMS + 1)).unwrap_err();
        assert!(
            err.message().starts_with(what)
                && err.message().contains(&format!(
                    "declares more than {MAX_MODE_PARAMS} mode parameters"
                )),
            "{err}"
        );
    }
}

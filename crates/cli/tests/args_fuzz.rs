//! The command line's untrusted inputs on hostile values: `parse_args`
//! answers any argv with options or a typed error, and
//! `parse_stack_size` (the `--stack-size` flag and `ENT_STACK_SIZE`)
//! agrees with exact `n × 2^k` arithmetic. Nothing is executed.

use ent_cli::parse_args;
use ent_runtime::parse_stack_size;
use proptest::prelude::*;

/// Words that steer an argv into `parse_args`'s branches: commands, every
/// flag, and values at and past their limits.
const WORDS: &[&str] = &[
    "check",
    "run",
    "fmt",
    "eval",
    "x.ent",
    "--platform",
    "--battery",
    "--seed",
    "--silent",
    "--trace",
    "--events",
    "--events-limit",
    "--profile",
    "--sample-period",
    "--sample-seed",
    "--metrics-json",
    "--stack-size",
    "--energy-types",
    "--faults",
    "--fault-seed",
    "--staleness-bound",
    "--engine",
    "--enforce",
    "a",
    "c",
    "d",
    "exact",
    "sampled",
    "off",
    "chaos",
    "tree",
    "bytecode",
    "guarded",
    "transient",
    "dropout=1.0",
    "stale=0.1,spike=0.5",
    "brownouts=99999999999999999999",
    "window=0",
    "horizon=-1",
    "burst_temp=nan",
    "=",
    ",",
    "0",
    "1",
    "-1",
    "0.5",
    "1e308",
    "-0",
    "nan",
    "inf",
    "-inf",
    "18446744073709551615",
    "18446744073709551616",
    "17179869184g",
    "512m",
    "1k",
    "g",
    "",
    " ",
    "é",
];

/// Every suffix and the power of two it stands for.
const SUFFIXES: &[(&str, u32)] = &[
    ("", 0),
    ("k", 10),
    ("K", 10),
    ("m", 20),
    ("M", 20),
    ("g", 30),
    ("G", 30),
];

fn argv() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        prop_oneof![
            proptest::sample::select(WORDS.to_vec()).prop_map(str::to_string),
            proptest::sample::select(WORDS.to_vec()).prop_map(str::to_string),
            proptest::sample::select(WORDS.to_vec()).prop_map(str::to_string),
            ".{0,12}",
        ],
        0..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any argv gets options or a non-empty error, never a panic, and
    /// parsed options hold only values their flags accept.
    #[test]
    fn arbitrary_argv_gets_typed_answers(args in argv()) {
        match parse_args(&args) {
            Ok(options) => {
                prop_assert!((0.0..=1.0).contains(&options.battery), "{args:?}");
                prop_assert!(options.sample_period.is_none_or(|p| p >= 1), "{args:?}");
                prop_assert!(
                    options.staleness_bound.is_none_or(|b| b.is_finite() && b > 0.0),
                    "{args:?}"
                );
                prop_assert!(matches!(options.platform.as_str(), "a" | "b" | "c"), "{args:?}");
            }
            Err(message) => prop_assert!(!message.is_empty(), "{args:?}"),
        }
    }

    /// A number with a suffix parses to exactly `n × 2^k` bytes when that
    /// fits a `usize`, and is malformed when it does not.
    #[test]
    fn stack_sizes_follow_exact_arithmetic(
        n in prop_oneof![any::<u64>(), 0u64..1 << 40, Just(u64::MAX)],
        suffix in 0..SUFFIXES.len(),
        pad in proptest::sample::select(vec!["", " ", "\t"]),
    ) {
        let (text, k) = SUFFIXES[suffix];
        let exact = u128::from(n) << k;
        let expected = usize::try_from(exact).ok();
        let value = format!("{pad}{n}{text}{pad}");
        prop_assert_eq!(parse_stack_size(&value), expected, "{:?}", value);
        // The flag agrees with the parser, and refuses what it refuses.
        let args: Vec<String> = ["eval", "1", "--stack-size", &value]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match (parse_args(&args), expected) {
            (Ok(options), Some(bytes)) => prop_assert_eq!(options.stack_size, Some(bytes)),
            (Err(message), None) => prop_assert!(message.contains("malformed stack size")),
            (got, _) => prop_assert!(false, "{value:?} gave {got:?}"),
        }
    }

    /// Any text is a size or `None`, never a panic; a size prints back to
    /// itself.
    #[test]
    fn arbitrary_stack_size_text_never_panics(text in "[0-9kKmMgG +\\-_.é]{0,24}") {
        if let Some(bytes) = parse_stack_size(&text) {
            prop_assert_eq!(parse_stack_size(&bytes.to_string()), Some(bytes));
        }
    }
}

/// Values the fuzzers found or were written for, pinned.
#[test]
fn overflowing_stack_sizes_are_malformed() {
    assert_eq!(parse_stack_size("17179869184g"), None);
    assert_eq!(parse_stack_size("17179869185g"), None);
    assert_eq!(parse_stack_size("18014398509481984k"), None);
    assert_eq!(parse_stack_size("17179869183g"), Some(17179869183 << 30));
    assert_eq!(parse_stack_size("+1k"), Some(1024));
}

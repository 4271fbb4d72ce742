//! Analyzer-soundness property test: any generated program the analyzer
//! passes clean evaluates under the strict-select engine without
//! `LdlError::Eval` from unbound builtins or negation — at 1 and 4
//! worker threads (the `LDL_EVAL_THREADS` settings, forced via
//! `FixpointConfig::with_threads`).
//!
//! The generator mixes known-clean rule templates with known-defective
//! ones (unbound comparison/arithmetic/negation/member variables), so
//! the same run also checks the converse direction on the defective
//! templates: the analyzer must flag every program containing one.
//!
//! Runs on `ldl_support::prop`; replay failures with the
//! `LDL_PROP_SEED` value printed in the panic message.

use ldl_analysis::{analyze_query, analyze_source, AnalysisOptions};
use ldl_core::parser::{parse_query, parse_source};
use ldl_core::LdlError;
use ldl_eval::naive::AnalysisPolicy;
use ldl_eval::{evaluate_query, FixpointConfig, Method};
use ldl_storage::Database;
use ldl_support::prop::{check, pairs, triples, usizes, vecs, Config};

/// Rule templates over base relations `n/1` and `e/2`. `query` is an
/// all-free query form on the template's head; `defective` marks rules
/// the analyzer must reject (a variable no body order can bind).
struct Template {
    rule: &'static str,
    query: &'static str,
    defective: bool,
}

const TEMPLATES: &[Template] = &[
    Template {
        rule: "t0(X) <- n(X), X > 2.",
        query: "t0(A)?",
        defective: false,
    },
    Template {
        rule: "t1(X, Y) <- e(X, Y), ~n(X).",
        query: "t1(A, B)?",
        defective: false,
    },
    Template {
        rule: "t2(Y) <- n(X), Y = X * 2.",
        query: "t2(A)?",
        defective: false,
    },
    Template {
        rule: "t3(X) <- n(X), member(X, [1, 2, 3]).",
        query: "t3(A)?",
        defective: false,
    },
    Template {
        rule: "t4(X, Y) <- e(X, Y), e(Y, Z), Z >= X.",
        query: "t4(A, B)?",
        defective: false,
    },
    Template {
        rule: "t5(X) <- n(X), X > Y.",
        query: "t5(A)?",
        defective: true,
    },
    Template {
        rule: "t6(X, Y) <- e(X, Y), ~n(Z).",
        query: "t6(A, B)?",
        defective: true,
    },
    Template {
        rule: "t7(Y) <- n(X), Y = X + 1, X != W.",
        query: "t7(A)?",
        defective: true,
    },
    Template {
        rule: "t8(X) <- n(X), member(X, S).",
        query: "t8(A)?",
        defective: true,
    },
];

#[test]
fn analyzer_clean_programs_evaluate_without_eval_errors() {
    let gen = triples(
        vecs(usizes(0..TEMPLATES.len()), 1..5),
        vecs(usizes(0..7), 1..6),
        vecs(pairs(usizes(0..7), usizes(0..7)), 1..8),
    );
    check(
        "analyzer_clean_programs_evaluate_without_eval_errors",
        &Config::with_cases(48),
        &gen,
        |(picks, ns, edges)| {
            let mut chosen: Vec<usize> = picks.clone();
            chosen.sort_unstable();
            chosen.dedup();
            let mut text = String::new();
            for n in ns {
                text.push_str(&format!("n({n}).\n"));
            }
            for (a, b) in edges {
                text.push_str(&format!("e({a}, {b}).\n"));
            }
            for &i in &chosen {
                text.push_str(TEMPLATES[i].rule);
                text.push('\n');
            }
            let src = parse_source(&text).unwrap();
            let defective = chosen.iter().any(|&i| TEMPLATES[i].defective);
            let opts = AnalysisOptions {
                lints: false,
                ..Default::default()
            };

            // Completeness on the known-bad templates: the analyzer
            // must flag every program containing one.
            let program_report = analyze_source(&src, &opts);
            if defective {
                assert!(
                    program_report.has_errors(),
                    "analyzer passed a defective program:\n{text}"
                );
                return;
            }

            // Soundness: every analyzer-clean query form evaluates
            // without `LdlError::Eval`.
            let db = Database::from_program(&src.program);
            for &i in &chosen {
                let q = parse_query(TEMPLATES[i].query).unwrap();
                let report = analyze_query(&src.program, &q, &opts);
                assert!(
                    !report.has_errors(),
                    "clean template flagged:\n{text}\n{report:?}"
                );
                for threads in [1, 4] {
                    let cfg = FixpointConfig::default()
                        .with_threads(threads)
                        .with_analysis(AnalysisPolicy::Off);
                    let res = evaluate_query(&src.program, &db, &q, Method::SemiNaive, &cfg);
                    assert!(
                        !matches!(res, Err(LdlError::Eval(_))),
                        "analyzer-clean program hit an evaluation error at {threads} \
                         thread(s): {res:?}\nprogram:\n{text}"
                    );
                }
            }
        },
    );
}

/// The engine's own deny gate agrees with the standalone analyzer: a
/// defective program is refused with `LdlError::Unsafe` carrying the
/// diagnostic code and witness *before* planning — even when the query
/// itself targets a clean predicate, because the bottom-up methods
/// evaluate every rule and would hit the defect as a runtime error.
#[test]
fn engine_deny_gate_matches_analyzer_verdict() {
    let clean_text = "n(1). n(2). e(1, 2).\nt0(X) <- n(X), X > 2.\n";
    let src = parse_source(clean_text).unwrap();
    let db = Database::from_program(&src.program);
    let cfg = FixpointConfig::serial();
    let q = parse_query("t0(A)?").unwrap();
    assert!(evaluate_query(&src.program, &db, &q, Method::SemiNaive, &cfg).is_ok());

    let dirty_text = "n(1). n(2). e(1, 2).\nt0(X) <- n(X), X > 2.\nt5(X) <- n(X), X > Y.\n";
    let src = parse_source(dirty_text).unwrap();
    let db = Database::from_program(&src.program);
    for query in ["t5(A)?", "t0(A)?"] {
        let q = parse_query(query).unwrap();
        match evaluate_query(&src.program, &db, &q, Method::SemiNaive, &cfg) {
            Err(LdlError::Unsafe(msg)) => {
                assert!(msg.contains("LDL001"), "{query}: {msg}");
                assert!(msg.contains('Y'), "{query}: {msg}");
            }
            other => panic!("{query}: expected Unsafe rejection, got {other:?}"),
        }
    }

    // Warn policy lets the same program through to the runtime error.
    let warn = cfg.with_analysis(AnalysisPolicy::Warn);
    let q = parse_query("t5(A)?").unwrap();
    match evaluate_query(&src.program, &db, &q, Method::SemiNaive, &warn) {
        Err(LdlError::Eval(_)) | Ok(_) => {}
        other => panic!("warn policy must not deny, got {other:?}"),
    }
}

//! Property-based tests for the evaluator: executor equivalences
//! (pipelined vs materialized, any order, any join method), fixpoint
//! method agreement on random data, and SLD vs bottom-up agreement on
//! terminating programs.
//!
//! Runs on `ldl_support::prop`; replay any failure with the
//! `LDL_PROP_SEED` value printed in the panic message.

use ldl_core::parser::{parse_program, parse_query};
use ldl_core::unify::Subst;
use ldl_core::Pred;
use ldl_eval::materialized::eval_rule_materialized;
use ldl_eval::ops::JoinMethod;
use ldl_eval::rule_eval::{eval_rule_with, AccessPlan, OverlaySource};
use ldl_eval::sld::{solve_sld, SldConfig};
use ldl_eval::{evaluate_query, FixpointConfig, Method};
use ldl_storage::{Database, Relation, Tuple};
use ldl_support::prop::{check, i64s, pairs, quads, triples, u64s, usizes, vecs, Config, Gen};
use ldl_support::{SliceRandom, SplitMix64};

fn cfg() -> Config {
    Config::with_cases(32)
}

fn edges_text(edges: &[(i64, i64)], pred: &str) -> String {
    let mut s = String::new();
    for (a, b) in edges {
        s.push_str(&format!("{pred}({a}, {b}).\n"));
    }
    s
}

fn edge_lists(node_range: i64, len: std::ops::Range<usize>) -> Gen<Vec<(i64, i64)>> {
    vecs(pairs(i64s(0..node_range), i64s(0..node_range)), len)
}

/// The pipelined and materialized executors agree on every order and
/// every join method, for random two-join rules.
#[test]
fn executors_agree() {
    let gen = quads(
        edge_lists(8, 1..20),
        edge_lists(8, 1..20),
        usizes(0..2),
        usizes(0..3),
    );
    check(
        "executors_agree",
        &cfg(),
        &gen,
        |(e1, e2, order_pick, method_pick)| {
            let text = format!(
                "{}{}q(X, Z) <- a(X, Y), b(Y, Z).",
                edges_text(e1, "a"),
                edges_text(e2, "b")
            );
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let rule = &program.rules[0];
            let order: Vec<usize> = if *order_pick == 0 {
                vec![0, 1]
            } else {
                vec![1, 0]
            };
            let method = JoinMethod::ALL[*method_pick];
            let source = OverlaySource {
                base: |p: Pred| db.relation(p),
                overrides: &[],
            };
            let mat = eval_rule_materialized(rule, &order, method, &source, false).unwrap();
            let mut pipe = Relation::new(2);
            let plan = AccessPlan::HashOnDemand;
            eval_rule_with(rule, &order, &Subst::new(), &source, plan, &mut |t| {
                pipe.insert(t);
            })
            .unwrap();
            assert_eq!(mat, pipe);
        },
    );
}

/// All four fixpoint methods agree on bound same-generation queries
/// over random forests (up is functional: each child one parent).
#[test]
fn methods_agree_on_random_sg() {
    let gen = pairs(vecs(usizes(0..8), 1..16), i64s(0..24));
    check(
        "methods_agree_on_random_sg",
        &cfg(),
        &gen,
        |(parents, query_node)| {
            // Node i+1..n+1 gets parent `parents[i] % (i+1)` mapped into
            // existing ids — guarantees acyclic, functional up.
            let mut text = String::new();
            for (i, &p) in parents.iter().enumerate() {
                let child = (i + 1) as i64;
                let parent = (p % (i + 1)) as i64;
                text.push_str(&format!("up({child}, {parent}).\ndn({parent}, {child}).\n"));
            }
            text.push_str("flat(0, 0).\n");
            text.push_str(
                "sg(X, Y) <- flat(X, Y).\nsg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).\n",
            );
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let q = parse_query(&format!("sg({query_node}, Y)?")).unwrap();
            let cfg = FixpointConfig::with_max_iterations(10_000);
            let reference = evaluate_query(&program, &db, &q, Method::Naive, &cfg)
                .unwrap()
                .tuples;
            for m in [Method::SemiNaive, Method::Magic, Method::Counting] {
                let got = evaluate_query(&program, &db, &q, m, &cfg).unwrap().tuples;
                assert_eq!(&got, &reference, "{} disagrees", m.name());
            }
        },
    );
}

/// SLD resolution agrees with bottom-up evaluation on terminating
/// (right-recursive, acyclic) programs.
#[test]
fn sld_agrees_with_fixpoint() {
    let gen = pairs(vecs(usizes(0..6), 1..12), i64s(0..13));
    check(
        "sld_agrees_with_fixpoint",
        &cfg(),
        &gen,
        |(parents, start)| {
            let mut text = String::new();
            for (i, &p) in parents.iter().enumerate() {
                let child = (i + 1) as i64;
                let parent = (p % (i + 1)) as i64;
                text.push_str(&format!("e({parent}, {child}).\n"));
            }
            text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n");
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let q = parse_query(&format!("tc({start}, Y)?")).unwrap();
            let (sld, stats) = solve_sld(&program, &db, &q, &SldConfig::default()).unwrap();
            assert!(!stats.depth_exceeded);
            let fix = evaluate_query(
                &program,
                &db,
                &q,
                Method::SemiNaive,
                &FixpointConfig::default(),
            )
            .unwrap()
            .tuples;
            assert_eq!(sld, fix);
        },
    );
}

/// Magic-sets evaluation agrees with seminaive on bound queries over
/// arbitrary (possibly cyclic) edge sets — the rewriting restricts
/// *work*, never *answers*.
#[test]
fn magic_agrees_with_seminaive_on_bound_queries() {
    let gen = pairs(edge_lists(10, 1..30), i64s(0..10));
    check(
        "magic_agrees_with_seminaive_on_bound_queries",
        &Config::with_cases(48),
        &gen,
        |(edges, start)| {
            let mut text = edges_text(edges, "e");
            text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n");
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let q = parse_query(&format!("tc({start}, Y)?")).unwrap();
            let cfg = FixpointConfig::default();
            let semi = evaluate_query(&program, &db, &q, Method::SemiNaive, &cfg)
                .unwrap()
                .tuples;
            let magic = evaluate_query(&program, &db, &q, Method::Magic, &cfg)
                .unwrap()
                .tuples;
            assert_eq!(magic, semi);
        },
    );
}

/// Parallel fixpoint rounds are bit-for-bit deterministic: at 2 and 4
/// worker threads, both evaluators produce the same relations — the
/// same tuples in the same *insertion order* — and identical [`Metrics`]
/// as single-threaded execution, on arbitrary (cyclic) edge sets.
#[test]
fn parallel_fixpoint_is_bit_identical_to_serial() {
    use ldl_eval::naive::eval_program_naive;
    use ldl_eval::seminaive::eval_program_seminaive;
    let gen = edge_lists(12, 1..60);
    check(
        "parallel_fixpoint_is_bit_identical_to_serial",
        &cfg(),
        &gen,
        |edges| {
            let mut text = edges_text(edges, "e");
            text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- tc(X, Z), e(Z, Y).\n");
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let serial = FixpointConfig::serial();
            let (semi_rel, semi_m) = eval_program_seminaive(&program, &db, &serial).unwrap();
            let (naive_rel, naive_m) = eval_program_naive(&program, &db, &serial).unwrap();
            for threads in [2, 4] {
                let par = FixpointConfig::default().with_threads(threads);
                let (rel, m) = eval_program_seminaive(&program, &db, &par).unwrap();
                assert_eq!(m, semi_m, "semi-naive metrics diverge at {threads} threads");
                for (p, serial_rel) in &semi_rel {
                    assert_eq!(
                        rel[p].rows(),
                        serial_rel.rows(),
                        "semi-naive row order for {p} diverges at {threads} threads"
                    );
                }
                let (rel, m) = eval_program_naive(&program, &db, &par).unwrap();
                assert_eq!(m, naive_m, "naive metrics diverge at {threads} threads");
                for (p, serial_rel) in &naive_rel {
                    assert_eq!(
                        rel[p].rows(),
                        serial_rel.rows(),
                        "naive row order for {p} diverges at {threads} threads"
                    );
                }
            }
        },
    );
}

/// The three access-path policies (selected ordered indexes, on-demand
/// hashes, forced scans) are bit-for-bit interchangeable: identical
/// relations in identical *row order* and identical [`ldl_eval::Metrics`],
/// at 1 and 4 worker threads, on arbitrary (cyclic) edge sets driving
/// both a linear tc and a same-generation clique.
#[test]
fn access_paths_are_bit_identical() {
    use ldl_eval::seminaive::eval_program_seminaive;
    use ldl_eval::AccessPaths;
    let gen = pairs(edge_lists(10, 1..50), edge_lists(10, 1..30));
    check(
        "access_paths_are_bit_identical",
        &cfg(),
        &gen,
        |(e1, e2)| {
            let mut text = edges_text(e1, "e");
            text.push_str(&edges_text(e2, "up"));
            text.push_str(&edges_text(e2, "dn"));
            text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n");
            text.push_str("sg(X, Y) <- e(X, Y).\nsg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).\n");
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let reference = FixpointConfig::serial().with_access_paths(AccessPaths::ForceScan);
            let (ref_rel, ref_m) = eval_program_seminaive(&program, &db, &reference).unwrap();
            for paths in [
                AccessPaths::Selected,
                AccessPaths::HashOnDemand,
                AccessPaths::ForceScan,
            ] {
                for threads in [1, 4] {
                    let cfg = FixpointConfig::default()
                        .with_threads(threads)
                        .with_access_paths(paths);
                    let (rel, m) = eval_program_seminaive(&program, &db, &cfg).unwrap();
                    assert_eq!(m, ref_m, "{paths:?} metrics diverge at {threads} threads");
                    for (p, r) in &ref_rel {
                        assert_eq!(
                            rel[p].rows(),
                            r.rows(),
                            "{paths:?} row order for {p} diverges at {threads} threads"
                        );
                    }
                }
            }
        },
    );
}

/// Range folding is invisible: programs whose rules carry random bound
/// inequality builtins — an equality-prefix range rule and an
/// empty-prefix, partially-foldable rule — produce bit-identical
/// relations (same rows, same insertion order) and identical
/// [`ldl_eval::Metrics`] across all three access-path policies at 1 and
/// 4 worker threads, under naive and semi-naive evaluation; magic on a
/// bound query agrees with semi-naive on answers.
#[test]
fn range_probes_are_bit_identical_across_policies() {
    use ldl_eval::naive::eval_program_naive;
    use ldl_eval::seminaive::eval_program_seminaive;
    use ldl_eval::AccessPaths;
    let facts = vecs(triples(i64s(0..4), i64s(0..20), i64s(0..20)), 1..40);
    let gen = quads(facts, i64s(0..20), i64s(0..20), i64s(0..4));
    check(
        "range_probes_are_bit_identical_across_policies",
        &cfg(),
        &gen,
        |(rows, lo, hi, key)| {
            let mut text = String::new();
            for (k, x, y) in rows {
                text.push_str(&format!("r({k}, {x}, {y}).\n"));
            }
            text.push_str(&format!("k({key}). k({}).\n", (key + 1) % 4));
            text.push_str(&format!(
                "q(X, Y) <- k(K), r(K, X, Y), X >= {lo}, X < {hi}.\n"
            ));
            text.push_str(&format!("big(X) <- r(K, X, Y), X > {lo}, Y <= {hi}.\n"));
            let program = parse_program(&text).unwrap();
            let db = Database::from_program(&program);
            let reference = FixpointConfig::serial().with_access_paths(AccessPaths::ForceScan);
            let (semi_ref, semi_m) = eval_program_seminaive(&program, &db, &reference).unwrap();
            let (naive_ref, naive_m) = eval_program_naive(&program, &db, &reference).unwrap();
            for paths in [
                AccessPaths::Selected,
                AccessPaths::HashOnDemand,
                AccessPaths::ForceScan,
            ] {
                for threads in [1, 4] {
                    let c = FixpointConfig::default()
                        .with_threads(threads)
                        .with_access_paths(paths);
                    let (rel, m) = eval_program_seminaive(&program, &db, &c).unwrap();
                    assert_eq!(m, semi_m, "{paths:?} semi metrics diverge at {threads}");
                    for (p, r) in &semi_ref {
                        assert_eq!(
                            rel[p].rows(),
                            r.rows(),
                            "{paths:?} semi rows for {p} diverge at {threads} threads"
                        );
                    }
                    let (rel, m) = eval_program_naive(&program, &db, &c).unwrap();
                    assert_eq!(m, naive_m, "{paths:?} naive metrics diverge at {threads}");
                    for (p, r) in &naive_ref {
                        assert_eq!(
                            rel[p].rows(),
                            r.rows(),
                            "{paths:?} naive rows for {p} diverge at {threads} threads"
                        );
                    }
                }
            }
            // Magic on the bound form agrees on answers.
            let q = parse_query(&format!("q({lo}, Y)?")).unwrap();
            let c = FixpointConfig::default();
            let semi = evaluate_query(&program, &db, &q, Method::SemiNaive, &c)
                .unwrap()
                .tuples;
            let magic = evaluate_query(&program, &db, &q, Method::Magic, &c)
                .unwrap()
                .tuples;
            assert_eq!(magic, semi);
        },
    );
}

/// Grouping results are independent of fact order and method.
#[test]
fn grouping_is_deterministic() {
    let gen = pairs(vecs(pairs(i64s(0..5), i64s(0..10)), 1..20), u64s(0..50));
    check(
        "grouping_is_deterministic",
        &cfg(),
        &gen,
        |(pairs, seed)| {
            let base = format!("{}g(K, <V>) <- e(K, V).", edges_text(pairs, "e"));
            let mut shuffled_pairs = pairs.clone();
            shuffled_pairs.shuffle(&mut SplitMix64::seed_from_u64(*seed));
            let shuffled = format!("{}g(K, <V>) <- e(K, V).", edges_text(&shuffled_pairs, "e"));
            let q = parse_query("g(K, S)?").unwrap();
            let cfg = FixpointConfig::default();
            let run = |text: &str, m: Method| {
                let program = parse_program(text).unwrap();
                let db = Database::from_program(&program);
                evaluate_query(&program, &db, &q, m, &cfg).unwrap().tuples
            };
            let a = run(&base, Method::SemiNaive);
            let b = run(&shuffled, Method::SemiNaive);
            let c = run(&base, Method::Naive);
            assert_eq!(&a, &b);
            assert_eq!(&a, &c);
        },
    );
}

/// Arithmetic evaluation agrees between executors and is deterministic
/// for random filter thresholds.
#[test]
fn arithmetic_filters_agree() {
    let gen = pairs(vecs(i64s(-30..30), 1..25), i64s(-30..30));
    check("arithmetic_filters_agree", &cfg(), &gen, |(ns, cut)| {
        let cut = *cut;
        let mut text = String::new();
        let mut expected = std::collections::BTreeSet::new();
        for &n in ns {
            text.push_str(&format!("n({n}).\n"));
            if n > cut {
                expected.insert((n, n * 3));
            }
        }
        text.push_str(&format!("big(X, Y) <- n(X), X > {cut}, Y = X * 3.\n"));
        let program = parse_program(&text).unwrap();
        let db = Database::from_program(&program);
        let q = parse_query("big(A, B)?").unwrap();
        let got = evaluate_query(
            &program,
            &db,
            &q,
            Method::SemiNaive,
            &FixpointConfig::default(),
        )
        .unwrap()
        .tuples;
        assert_eq!(got.len(), expected.len());
        for (a, b) in expected {
            assert!(got.contains(&Tuple::ints(&[a, b])));
        }
    });
}

//! The query engine: program + database + query + method → answers.
//!
//! This is the execution back end the optimizer targets. The optimizer
//! picks a method and a SIP (body permutations) per recursive clique;
//! the engine applies the corresponding rewriting and runs the fixpoint.
//!
//! Every method executes its rounds on the parallel round executor
//! (`crate::parallel`) — magic and counting evaluate their rewritten
//! programs through the semi-naive fixpoint, so
//! [`FixpointConfig::threads`] applies to all four methods, with
//! answers and [`Metrics`] identical at any thread count.

use crate::counting::{
    active_domain_iteration_bound, counting_rewrite, extract_answers, map_divergence_error,
};
use crate::magic::magic_rewrite;
use crate::metrics::Metrics;
use crate::naive::{eval_program_naive, AnalysisPolicy, FixpointConfig};
use crate::seminaive::eval_program_seminaive;
use ldl_core::adorn::{adorn_program, AdornedProgram, GreedySip, SipStrategy};
use ldl_core::unify::Subst;
use ldl_core::{Atom, Program, Query, Result, Term};
use ldl_storage::{Database, Relation, Tuple};

/// The recursive methods of §7.3 (plus the naive baseline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Method {
    /// Full naive fixpoint of the original program.
    Naive,
    /// Semi-naive (differential) fixpoint of the original program.
    SemiNaive,
    /// Magic-set rewriting, then semi-naive.
    Magic,
    /// Generalized counting rewriting, then semi-naive (linear cliques,
    /// acyclic data).
    Counting,
}

impl Method {
    /// Every method, for enumeration by the optimizer.
    pub const ALL: [Method; 4] = [
        Method::Naive,
        Method::SemiNaive,
        Method::Magic,
        Method::Counting,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Naive => "naive",
            Method::SemiNaive => "semi-naive",
            Method::Magic => "magic",
            Method::Counting => "counting",
        }
    }
}

/// Answers plus the work performed to produce them.
#[derive(Clone, Debug)]
pub struct QueryAnswer {
    /// Tuples of the query predicate satisfying the goal.
    pub tuples: Relation,
    /// Evaluation work counters.
    pub metrics: Metrics,
}

/// Keeps only the rows of `rel` that unify with the goal's arguments
/// (handles repeated variables and compound patterns in the goal).
pub fn filter_answers(rel: &Relation, goal: &Atom) -> Relation {
    let mut out = Relation::new(rel.arity());
    for row in rel.iter() {
        if unifies(goal, row) {
            out.insert(row.clone());
        }
    }
    out
}

/// Whether `row` unifies with the goal's arguments.
fn unifies(goal: &Atom, row: &Tuple) -> bool {
    let mut s = Subst::new();
    goal.args
        .iter()
        .zip(&row.0)
        .all(|(pat, val)| s.unify(pat, val))
}

/// Answers `query` over a long-lived materialized relation for its
/// predicate (`None`: the predicate has no tuples) — what
/// [`crate::Engine::answers`] and the daemon's served views run. The
/// cost follows the answers, not the relation; which access runs is
/// decided by which goal arguments are ground:
///
/// * **all ground** — one membership lookup: the goal's tuple or
///   nothing;
/// * **some ground** — a prefix probe of the relation's ordered index
///   on (ground columns, then the rest), built once per relation
///   version and cached in the relation, with the unify check on the
///   probed rows only (repeated variables, compound patterns);
/// * **none ground** — a scan, or a clone when every argument is a
///   distinct variable.
///
/// Probed rids come back ascending, so every tier keeps the row order
/// of [`filter_answers`]. Each tier reports the rows it enumerates
/// through [`ldl_storage::note_rows_enumerated`]: the probed rows (at
/// least 1), 1 for a lookup, the relation's length for a scan.
pub fn answer_goal(rel: Option<&Relation>, query: &Query) -> Relation {
    let args = &query.goal.args;
    let Some(rel) = rel else {
        return Relation::new(args.len());
    };
    let ground: Vec<usize> = (0..args.len()).filter(|&c| args[c].is_ground()).collect();
    if ground.len() == args.len() {
        ldl_storage::note_rows_enumerated(1);
        let goal = Tuple::new(args.clone());
        let hit = rel.contains(&goal).then_some(goal);
        return Relation::from_tuples(rel.arity(), hit);
    }
    // When the free arguments are distinct variables, every row agreeing
    // on the ground columns is an answer and the unify check can go.
    let mut free_vars = Vec::new();
    let exact = args.iter().all(|t| match t {
        Term::Var(v) if !free_vars.contains(v) => {
            free_vars.push(*v);
            true
        }
        t => t.is_ground(),
    });
    if ground.is_empty() {
        ldl_storage::note_rows_enumerated(rel.len() as u64);
        return if exact {
            rel.clone()
        } else {
            filter_answers(rel, &query.goal)
        };
    }
    let order: Vec<usize> = ground
        .iter()
        .copied()
        .chain((0..args.len()).filter(|c| !ground.contains(c)))
        .collect();
    let key: Vec<Term> = ground.iter().map(|&c| args[c].clone()).collect();
    let rids = rel.ordered_index_on(&order).probe_prefix(rel.rows(), &key);
    // An empty run still cost the descent, as a membership miss does.
    ldl_storage::note_rows_enumerated(rids.len().max(1) as u64);
    let mut out = Relation::new(rel.arity());
    for rid in rids {
        let row = rel.row(rid);
        if exact || unifies(&query.goal, row) {
            out.insert(row.clone());
        }
    }
    out
}

/// The scan ends of one-shot evaluation: a relation derived for this
/// goal alone is read once, so building an index over it would cost
/// more than the scan it saves.
fn scan_answers(rel: Option<&Relation>, query: &Query) -> Relation {
    match rel {
        Some(rel) => filter_answers(rel, &query.goal),
        None => Relation::new(query.pred().arity),
    }
}

/// Evaluates `query` against `program`/`db` with `method`, adorning with
/// the default greedy binding-aware SIP where a rewriting is involved.
pub fn evaluate_query(
    program: &Program,
    db: &Database,
    query: &Query,
    method: Method,
    cfg: &FixpointConfig,
) -> Result<QueryAnswer> {
    evaluate_query_sip(program, db, query, method, cfg, &GreedySip)
}

/// Like [`evaluate_query`], with an explicit SIP strategy (the optimizer
/// passes the c-permutation it selected).
pub fn evaluate_query_sip(
    program: &Program,
    db: &Database,
    query: &Query,
    method: Method,
    cfg: &FixpointConfig,
    sip: &dyn SipStrategy,
) -> Result<QueryAnswer> {
    analysis_gate(program, query, cfg.analysis)?;
    // The rewrite pass is sound under any database (constant
    // propagation, ground folding, duplicate/subsumed-rule removal —
    // see `ldl_analysis::transform`), so applying it after the gate
    // changes no answers, only the work done to produce them.
    let rewritten;
    let program = if cfg.rewrite {
        rewritten = ldl_analysis::transform::rewrite(program).0;
        &rewritten
    } else {
        program
    };
    match method {
        Method::Naive | Method::SemiNaive => {
            // Bottom-up evaluation runs rule bodies in their stored
            // order; apply the SIP's all-free orders so the optimizer's
            // safe orderings (builtins after their bindings) take effect.
            let permuted = permute_program(program, sip);
            let (derived, metrics) = if method == Method::Naive {
                eval_program_naive(&permuted, db, cfg)?
            } else {
                eval_program_seminaive(&permuted, db, cfg)?
            };
            let rel = derived
                .get(&query.pred())
                .or_else(|| db.relation(query.pred()));
            Ok(QueryAnswer {
                tuples: scan_answers(rel, query),
                metrics,
            })
        }
        Method::Magic | Method::Counting => {
            // A query on a base predicate needs no rewriting at all:
            // filter the stored relation directly.
            if !program.derived_preds().contains(&query.pred()) {
                return Ok(QueryAnswer {
                    tuples: scan_answers(db.relation(query.pred()), query),
                    metrics: Metrics::default(),
                });
            }
            let adorned = adorn_program(program, query.pred(), query.adornment(), sip);
            evaluate_adorned(&adorned, program, db, query, method, cfg)
        }
    }
}

/// The pre-planning static-analysis gate: runs `ldl-analysis` over the
/// program + query form (lints off — only executability matters here).
/// Under [`AnalysisPolicy::Deny`] error findings become
/// [`ldl_core::LdlError::Unsafe`] carrying the witnesses; under
/// [`AnalysisPolicy::Warn`] everything goes to stderr and evaluation
/// proceeds.
fn analysis_gate(program: &Program, query: &Query, policy: AnalysisPolicy) -> Result<()> {
    if policy == AnalysisPolicy::Off {
        return Ok(());
    }
    // Lints off — only executability matters here. The semantic pass
    // (LDL2xx, warnings only) runs under `Warn`, where its findings are
    // actually surfaced; under `Deny` warnings would be discarded, so
    // the interpreter's work is skipped.
    let opts = ldl_analysis::AnalysisOptions {
        lints: false,
        semantic: policy == AnalysisPolicy::Warn,
        ..Default::default()
    };
    let report = ldl_analysis::analyze_query(program, query, &opts);
    match policy {
        AnalysisPolicy::Off => Ok(()),
        AnalysisPolicy::Warn => {
            if !report.diagnostics.is_empty() {
                eprintln!("{}", report.render_text(None, "<query>"));
            }
            Ok(())
        }
        AnalysisPolicy::Deny => {
            if report.has_errors() {
                return Err(ldl_core::LdlError::Unsafe(report.error_summary()));
            }
            Ok(())
        }
    }
}

/// Rewrites every rule body into the order the SIP chooses for an
/// all-free head — the binding situation bottom-up evaluation presents.
/// Semantics are unchanged (conjunction is commutative); only the
/// executability of builtins and negation depends on the order.
pub fn permute_program(program: &Program, sip: &dyn SipStrategy) -> Program {
    let mut out = Program {
        rules: Vec::with_capacity(program.rules.len()),
        facts: program.facts.clone(),
    };
    for (ri, rule) in program.rules.iter().enumerate() {
        let ad = ldl_core::Adornment::all_free(rule.head.pred.arity);
        let perm = sip.permutation(ri, rule, ad);
        debug_assert_eq!(perm.len(), rule.body.len());
        let body = perm.iter().map(|&i| rule.body[i].clone()).collect();
        out.rules.push(ldl_core::Rule::new(rule.head.clone(), body));
    }
    out
}

/// Evaluates a pre-adorned program (the optimizer adorns under each
/// candidate c-permutation and calls this with the winner).
pub fn evaluate_adorned(
    adorned: &AdornedProgram,
    program: &Program,
    db: &Database,
    query: &Query,
    method: Method,
    cfg: &FixpointConfig,
) -> Result<QueryAnswer> {
    match method {
        Method::Magic => {
            let magic = magic_rewrite(adorned, program, query)?;
            let mut mdb = db.clone();
            mdb.relation_mut(magic.seed_pred).insert(magic.seed.clone());
            let (derived, metrics) = eval_program_seminaive(&magic.program, &mdb, cfg)?;
            Ok(QueryAnswer {
                tuples: scan_answers(derived.get(&magic.answer_pred), query),
                metrics,
            })
        }
        Method::Counting => {
            let counting = counting_rewrite(adorned, program, query)?;
            let mut cdb = db.clone();
            cdb.relation_mut(counting.seed_pred)
                .insert(counting.seed.clone());
            // Cap the fixpoint at the active-domain bound: on acyclic
            // data the counter can never climb past it, so exceeding it
            // is cyclic-data divergence — reported as such instead of
            // burning iterations to the generic limit.
            let bound = active_domain_iteration_bound(program, db);
            let mut ccfg = cfg.clone();
            ccfg.max_iterations = ccfg.max_iterations.min(bound);
            let (derived, metrics) = eval_program_seminaive(&counting.program, &cdb, &ccfg)
                .map_err(|e| map_divergence_error(e, query, bound))?;
            let rel = derived
                .get(&counting.answer_pred)
                .cloned()
                .unwrap_or_else(|| Relation::new(counting.answer_pred.arity));
            let ans = extract_answers(&rel, counting.query_arity);
            Ok(QueryAnswer {
                tuples: filter_answers(&ans, &query.goal),
                metrics,
            })
        }
        Method::Naive | Method::SemiNaive => evaluate_query(program, db, query, method, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::{parse_program, parse_query};

    const SG: &str = r#"
        up(1, 10). up(2, 10). up(3, 20). up(10, 100). up(20, 100).
        flat(100, 100). flat(10, 20).
        dn(100, 10). dn(100, 20). dn(10, 1). dn(10, 2). dn(20, 3).
        sg(X, Y) <- flat(X, Y).
        sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
    "#;

    fn answers(text: &str, q: &str, m: Method) -> Relation {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query(q).unwrap();
        evaluate_query(&program, &db, &query, m, &FixpointConfig::default())
            .unwrap()
            .tuples
    }

    #[test]
    fn all_methods_agree_on_sg_bound_query() {
        let reference = answers(SG, "sg(1, Y)?", Method::Naive);
        assert!(!reference.is_empty());
        for m in [Method::SemiNaive, Method::Magic, Method::Counting] {
            let got = answers(SG, "sg(1, Y)?", m);
            assert_eq!(got, reference, "method {} disagrees", m.name());
        }
    }

    #[test]
    fn all_methods_agree_on_tc() {
        let tc = r#"
            e(1, 2). e(2, 3). e(3, 4). e(2, 5). e(7, 8).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), tc(Z, Y).
        "#;
        let reference = answers(tc, "tc(1, Y)?", Method::Naive);
        assert_eq!(reference.len(), 4);
        for m in [Method::SemiNaive, Method::Magic, Method::Counting] {
            assert_eq!(answers(tc, "tc(1, Y)?", m), reference, "{}", m.name());
        }
    }

    #[test]
    fn counting_on_cyclic_data_reports_dedicated_error() {
        // A 3-cycle: the counting counter spins, the active-domain cap
        // trips, and the error names the limitation and the way out.
        let cyc = r#"
            e(1, 2). e(2, 3). e(3, 1).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), tc(Z, Y).
        "#;
        let program = parse_program(cyc).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("tc(1, Y)?").unwrap();
        let err = evaluate_query(
            &program,
            &db,
            &query,
            Method::Counting,
            &FixpointConfig::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("counting method diverged"), "{msg}");
        assert!(msg.contains("cyclic"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        // The suggested path works on the same query.
        let via_magic = answers(cyc, "tc(1, Y)?", Method::Magic);
        assert_eq!(via_magic, answers(cyc, "tc(1, Y)?", Method::SemiNaive));
        assert_eq!(via_magic.len(), 3);
    }

    #[test]
    fn ground_query_returns_single_tuple_or_empty() {
        let yes = answers(SG, "sg(1, 2)?", Method::Magic);
        assert_eq!(yes.len(), 1);
        let no = answers(SG, "sg(1, 100)?", Method::Magic);
        assert!(no.is_empty());
    }

    #[test]
    fn repeated_variable_goal_filters() {
        // sg(X, X): same-generation with itself.
        let naive = answers(SG, "sg(X, X)?", Method::Naive);
        for t in naive.iter() {
            assert_eq!(t.get(0), t.get(1));
        }
    }

    #[test]
    fn query_on_base_predicate_works() {
        let got = answers(SG, "up(1, Z)?", Method::SemiNaive);
        assert_eq!(got.len(), 1);
        assert!(got.contains(&Tuple::ints(&[1, 10])));
    }

    #[test]
    fn base_predicate_query_under_every_method() {
        for m in Method::ALL {
            let got = answers(SG, "up(1, Z)?", m);
            assert_eq!(got.len(), 1, "{}", m.name());
            assert!(got.contains(&Tuple::ints(&[1, 10])));
        }
    }

    #[test]
    fn magic_metrics_beat_seminaive_on_selective_query() {
        let mut text = String::new();
        // Two disconnected chains; query touches only the first.
        for i in 0..50 {
            text.push_str(&format!("e({}, {}).\n", i, i + 1));
            text.push_str(&format!("e({}, {}).\n", 1000 + i, 1000 + i + 1));
        }
        text.push_str("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).\n");
        let program = parse_program(&text).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("tc(49, Y)?").unwrap();
        let cfg = FixpointConfig::default();
        let semi = evaluate_query(&program, &db, &query, Method::SemiNaive, &cfg).unwrap();
        let magic = evaluate_query(&program, &db, &query, Method::Magic, &cfg).unwrap();
        assert_eq!(semi.tuples, magic.tuples);
        assert!(
            magic.metrics.tuples_derived < semi.metrics.tuples_derived / 10,
            "magic {} vs semi-naive {}",
            magic.metrics.tuples_derived,
            semi.metrics.tuples_derived
        );
    }
}

//! Materialized relational operators with exchangeable join methods.
//!
//! §4 of the paper labels every interior node of a processing tree with
//! the method used, and the `EL` (exchange label) transformation swaps
//! one method for another. These are the physical operators behind those
//! labels: joins on column-equality predicates with nested-loop, hash,
//! or index implementations; selection; projection; union. They are used
//! by the join-method benchmarks and give the optimizer's cost model its
//! ground truth.

use ldl_core::{CmpOp, LdlError, Result, Term, Value};
use ldl_storage::{Relation, Tuple};

/// Physical join algorithms (the `EL` label alphabet for joins).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum JoinMethod {
    /// Compare every pair of tuples: O(|L|·|R|).
    NestedLoop,
    /// Build a hash table on the right operand's key: O(|L| + |R|).
    Hash,
    /// Probe a (cached) ordered index on the right operand:
    /// O(|L| · log |R| + match).
    Index,
}

impl JoinMethod {
    /// All methods, for enumeration by the optimizer.
    pub const ALL: [JoinMethod; 3] = [JoinMethod::NestedLoop, JoinMethod::Hash, JoinMethod::Index];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinMethod::NestedLoop => "nested-loop",
            JoinMethod::Hash => "hash",
            JoinMethod::Index => "index",
        }
    }
}

/// Equi-join of `left` and `right` on `on` = pairs `(lcol, rcol)`.
/// Output tuples are `left ++ right` column-wise.
pub fn join(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    method: JoinMethod,
) -> Relation {
    let out_arity = left.arity() + right.arity();
    let mut out = Relation::new(out_arity);
    match method {
        JoinMethod::NestedLoop => {
            for l in left.iter() {
                for r in right.iter() {
                    if on.iter().all(|&(lc, rc)| l.get(lc) == r.get(rc)) {
                        out.insert(l.concat(r));
                    }
                }
            }
        }
        JoinMethod::Hash => {
            use std::collections::HashMap;
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let mut table: HashMap<Vec<Term>, Vec<&Tuple>> = HashMap::new();
            for r in right.iter() {
                let key: Vec<Term> = rcols.iter().map(|&c| r.get(c).clone()).collect();
                table.entry(key).or_default().push(r);
            }
            let lcols: Vec<usize> = on.iter().map(|&(lc, _)| lc).collect();
            for l in left.iter() {
                let key: Vec<Term> = lcols.iter().map(|&c| l.get(c).clone()).collect();
                if let Some(matches) = table.get(&key) {
                    for r in matches {
                        out.insert(l.concat(r));
                    }
                }
            }
        }
        JoinMethod::Index => {
            let rcols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
            let idx = right.ordered_index_on(&rcols);
            let lcols: Vec<usize> = on.iter().map(|&(lc, _)| lc).collect();
            for l in left.iter() {
                let key: Vec<Term> = lcols.iter().map(|&c| l.get(c).clone()).collect();
                for rid in idx.probe_prefix(right.rows(), &key) {
                    out.insert(l.concat(right.row(rid)));
                }
            }
        }
    }
    out
}

/// Cartesian product (join with no predicate).
pub fn product(left: &Relation, right: &Relation) -> Relation {
    join(left, right, &[], JoinMethod::NestedLoop)
}

/// A selection predicate on a single column.
#[derive(Clone, Debug)]
pub struct ColPredicate {
    /// Column index.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant to compare with.
    pub value: Term,
}

impl ColPredicate {
    /// `col = value` shorthand.
    pub fn eq(col: usize, value: Term) -> ColPredicate {
        ColPredicate {
            col,
            op: CmpOp::Eq,
            value,
        }
    }

    /// Does the tuple satisfy the predicate?
    ///
    /// This is deliberately *three-valued collapsed to false*: an
    /// ordering comparison (`<`, `<=`, `>`, `>=`) between values that
    /// have no order — a symbol against an integer, a complex term —
    /// is neither true nor false, and `matches` reports it as `false`,
    /// silently dropping the row. That matches the pipelined builtins'
    /// behavior for the type-correct programs the safety layer admits,
    /// but it cannot distinguish "ordered and smaller" from "not
    /// ordered at all". Strict call sites (anything surfacing results
    /// directly to a user) should use [`ColPredicate::check_matches`] /
    /// [`select_strict`], which turn the undefined comparison into a
    /// typed [`LdlError::Eval`] instead.
    pub fn matches(&self, t: &Tuple) -> bool {
        self.check_matches(t).unwrap_or(false)
    }

    /// Strict variant of [`ColPredicate::matches`]: `Ok(bool)` for
    /// defined comparisons, [`LdlError::Eval`] when an ordering operator
    /// meets a pair of values with no order (instead of silently
    /// collapsing the undefined comparison to `false`).
    pub fn check_matches(&self, t: &Tuple) -> Result<bool> {
        let v = t.get(self.col);
        match self.op {
            CmpOp::Eq => Ok(v == &self.value),
            CmpOp::Ne => Ok(v != &self.value),
            ord => match (v, &self.value) {
                (Term::Const(Value::Int(a)), Term::Const(Value::Int(b))) => Ok(match ord {
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                    _ => unreachable!(),
                }),
                _ => Err(LdlError::Eval(format!(
                    "ordering comparison {} {} {} between unordered values",
                    v, self.op, self.value
                ))),
            },
        }
    }
}

/// Selection: rows satisfying every predicate. Rows where an ordering
/// comparison is undefined are dropped (see [`ColPredicate::matches`]);
/// use [`select_strict`] to surface those as errors instead.
pub fn select(rel: &Relation, preds: &[ColPredicate]) -> Relation {
    let mut out = Relation::new(rel.arity());
    for t in rel.iter() {
        if preds.iter().all(|p| p.matches(t)) {
            out.insert(t.clone());
        }
    }
    out
}

/// Strict selection: like [`select`], but an ordering comparison over
/// unordered values is an [`LdlError::Eval`] rather than a silently
/// dropped row.
pub fn select_strict(rel: &Relation, preds: &[ColPredicate]) -> Result<Relation> {
    let mut out = Relation::new(rel.arity());
    'rows: for t in rel.iter() {
        for p in preds {
            if !p.check_matches(t)? {
                continue 'rows;
            }
        }
        out.insert(t.clone());
    }
    Ok(out)
}

/// Projection onto `cols` (duplicates removed by construction).
pub fn project(rel: &Relation, cols: &[usize]) -> Relation {
    let mut out = Relation::new(cols.len());
    for t in rel.iter() {
        out.insert(t.project(cols));
    }
    out
}

/// Union of two same-arity relations.
pub fn union(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    let mut out = Relation::new(a.arity());
    for t in a.iter() {
        out.insert(t.clone());
    }
    for t in b.iter() {
        out.insert(t.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_tuples(2, pairs.iter().map(|&(a, b)| Tuple::ints(&[a, b])))
    }

    #[test]
    fn all_join_methods_agree() {
        let l = edges(&[(1, 2), (2, 3), (3, 4), (1, 3)]);
        let r = edges(&[(2, 10), (3, 20), (9, 30)]);
        let nl = join(&l, &r, &[(1, 0)], JoinMethod::NestedLoop);
        let h = join(&l, &r, &[(1, 0)], JoinMethod::Hash);
        let ix = join(&l, &r, &[(1, 0)], JoinMethod::Index);
        assert_eq!(nl, h);
        assert_eq!(nl, ix);
        assert_eq!(nl.len(), 3); // (1,2,2,10), (2,3,3,20), (1,3,3,20)
    }

    #[test]
    fn multi_column_join() {
        let l = Relation::from_tuples(3, [Tuple::ints(&[1, 2, 3]), Tuple::ints(&[1, 5, 6])]);
        let r = Relation::from_tuples(2, [Tuple::ints(&[1, 2]), Tuple::ints(&[1, 5])]);
        for m in JoinMethod::ALL {
            let j = join(&l, &r, &[(0, 0), (1, 1)], m);
            assert_eq!(j.len(), 2, "{}", m.name());
        }
    }

    #[test]
    fn empty_join_key_is_product() {
        let l = edges(&[(1, 2), (3, 4)]);
        let r = edges(&[(5, 6)]);
        assert_eq!(product(&l, &r).len(), 2);
    }

    #[test]
    fn select_filters() {
        let r = edges(&[(1, 10), (2, 20), (3, 30)]);
        let s = select(
            &r,
            &[ColPredicate {
                col: 1,
                op: CmpOp::Gt,
                value: Term::int(15),
            }],
        );
        assert_eq!(s.len(), 2);
        let e = select(&r, &[ColPredicate::eq(0, Term::int(2))]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn project_dedups() {
        let r = edges(&[(1, 10), (1, 20), (2, 30)]);
        let p = project(&r, &[0]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn union_dedups() {
        let a = edges(&[(1, 2), (2, 3)]);
        let b = edges(&[(2, 3), (3, 4)]);
        assert_eq!(union(&a, &b).len(), 3);
    }

    /// Pins the documented three-valued collapse: lenient `select`
    /// silently drops the row with the undefined comparison...
    #[test]
    fn select_ordering_on_symbols_is_false() {
        let r = Relation::from_tuples(1, [Tuple(vec![Term::sym("a")])]);
        let s = select(
            &r,
            &[ColPredicate {
                col: 0,
                op: CmpOp::Lt,
                value: Term::int(5),
            }],
        );
        assert!(s.is_empty());
    }

    /// ...while the strict path reports it as a typed evaluation error,
    /// and still agrees with `select` when every comparison is defined.
    #[test]
    fn select_strict_errors_on_unordered_comparison() {
        let r = Relation::from_tuples(1, [Tuple(vec![Term::sym("a")])]);
        let p = [ColPredicate {
            col: 0,
            op: CmpOp::Lt,
            value: Term::int(5),
        }];
        match select_strict(&r, &p) {
            Err(LdlError::Eval(msg)) => assert!(msg.contains("unordered"), "msg: {msg}"),
            other => panic!("expected Eval error, got {other:?}"),
        }
        // Equality between mixed types stays defined (and false).
        let eq = [ColPredicate::eq(0, Term::int(5))];
        assert!(select_strict(&r, &eq).unwrap().is_empty());
        // On ordered data the strict path equals the lenient one.
        let ints = edges(&[(1, 10), (2, 20), (3, 30)]);
        let gt = [ColPredicate {
            col: 1,
            op: CmpOp::Gt,
            value: Term::int(15),
        }];
        assert_eq!(select_strict(&ints, &gt).unwrap(), select(&ints, &gt));
    }
}

//! The index catalog: selected lexicographic orders per predicate.
//!
//! Built once per program (collect → chain-cover → lower each chain to
//! one order), then consulted by the executor at every probe site: the
//! runtime's bound-column set maps to the order serving it as a prefix,
//! or to `None` (the executor then builds an order on exactly the bound
//! columns). Lookups for collected signatures are O(1); a signature the
//! collector never saw (over-approximation holes are possible in
//! principle, not observed) falls back to a prefix scan over the
//! predicate's orders.

use crate::collect::{
    collect_range_signatures, collect_signatures, RangeSignatureMap, SignatureMap,
};
use crate::cover::{chain_to_order, min_chain_cover};
use ldl_core::{Pred, Program};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The selected ordered indexes of one program.
#[derive(Clone, Debug, Default)]
pub struct IndexCatalog {
    /// Selected column orders per predicate (one per chain).
    orders: HashMap<Pred, Vec<Vec<usize>>>,
    /// Collected signature → index into `orders[pred]`.
    by_signature: HashMap<(Pred, Vec<usize>), usize>,
    /// Collected `(equality prefix, range column)` → index into
    /// `orders[pred]` of an order serving it (prefix columns first,
    /// range column immediately after).
    by_range: HashMap<(Pred, Vec<usize>, usize), usize>,
}

/// Does order `o` serve a range probe on `range_col` after the equality
/// prefix `eq_cols` (sorted)? The first `eq_cols.len()` columns must be
/// exactly that set and the *next* column must be the range column.
fn order_serves_range(o: &[usize], eq_cols: &[usize], range_col: usize) -> bool {
    o.len() > eq_cols.len() && o[eq_cols.len()] == range_col && {
        let mut prefix = o[..eq_cols.len()].to_vec();
        prefix.sort_unstable();
        prefix == eq_cols
    }
}

impl IndexCatalog {
    /// Collects the program's search signatures (equality and range)
    /// and solves the minimum chain cover per predicate.
    pub fn build(program: &Program) -> IndexCatalog {
        IndexCatalog::from_signature_maps(
            &collect_signatures(program),
            &collect_range_signatures(program),
        )
    }

    /// Catalog from an explicit signature map (exposed for tests and
    /// for callers that collect from an adorned program).
    pub fn from_signatures(map: &SignatureMap) -> IndexCatalog {
        IndexCatalog::from_signature_maps(map, &RangeSignatureMap::new())
    }

    /// Catalog from explicit equality and range signature maps. Range
    /// demands feed the chain cover as synthetic `E ∪ {r}` signatures —
    /// so `p` probed on `{0}` equality and ranged on column 1 after
    /// prefix `{0}` still shares one order `[0, 1]` — but only real
    /// equality signatures register in the O(1) lookup table (the
    /// synthetic sets are not key sets the executor probes by
    /// equality). Any demand the cover happens to lower with the range
    /// column *not* directly after its prefix gets a dedicated
    /// appended order, so every collected demand is served.
    pub fn from_signature_maps(map: &SignatureMap, ranges: &RangeSignatureMap) -> IndexCatalog {
        let mut catalog = IndexCatalog::default();
        let preds: BTreeSet<Pred> = map.keys().chain(ranges.keys()).copied().collect();
        for pred in preds {
            let real: BTreeSet<Vec<usize>> = map.get(&pred).cloned().unwrap_or_default();
            let mut all = real.clone();
            if let Some(demands) = ranges.get(&pred) {
                for (e, r) in demands {
                    let mut sig = e.clone();
                    sig.push(*r);
                    sig.sort_unstable();
                    all.insert(sig);
                }
            }
            let sigs: Vec<Vec<usize>> = all.iter().cloned().collect();
            let chains = min_chain_cover(&sigs);
            let mut orders = Vec::with_capacity(chains.len());
            for chain in &chains {
                let oi = orders.len();
                orders.push(chain_to_order(chain));
                for sig in chain {
                    if real.contains(sig) {
                        catalog.by_signature.insert((pred, sig.clone()), oi);
                    }
                }
            }
            if let Some(demands) = ranges.get(&pred) {
                for (e, r) in demands {
                    let oi = match orders.iter().position(|o| order_serves_range(o, e, *r)) {
                        Some(oi) => oi,
                        None => {
                            let mut o = e.clone();
                            o.push(*r);
                            orders.push(o);
                            orders.len() - 1
                        }
                    };
                    catalog.by_range.insert((pred, e.clone(), *r), oi);
                }
            }
            catalog.orders.insert(pred, orders);
        }
        catalog
    }

    /// The selected orders for `pred` (empty slice when none).
    pub fn orders(&self, pred: Pred) -> &[Vec<usize>] {
        self.orders.get(&pred).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The order serving the bound-column set `key_cols` (sorted
    /// ascending) as a prefix, if any.
    pub fn lookup(&self, pred: Pred, key_cols: &[usize]) -> Option<&[usize]> {
        if let Some(&oi) = self.by_signature.get(&(pred, key_cols.to_vec())) {
            return Some(&self.orders[&pred][oi]);
        }
        // Uncollected signature: any order whose first |key_cols|
        // columns are exactly that set still serves it.
        self.orders.get(&pred).and_then(|orders| {
            orders
                .iter()
                .find(|o| {
                    o.len() >= key_cols.len() && {
                        let mut prefix = o[..key_cols.len()].to_vec();
                        prefix.sort_unstable();
                        prefix == key_cols
                    }
                })
                .map(|o| o.as_slice())
        })
    }

    /// The order serving a range probe on `range_col` after the
    /// equality prefix `eq_cols` (sorted ascending), if any: the order
    /// starts with exactly the prefix columns and lists `range_col`
    /// next, so the probe is one `equal_run` plus two binary searches.
    pub fn lookup_range(
        &self,
        pred: Pred,
        eq_cols: &[usize],
        range_col: usize,
    ) -> Option<&[usize]> {
        if let Some(&oi) = self.by_range.get(&(pred, eq_cols.to_vec(), range_col)) {
            return Some(&self.orders[&pred][oi]);
        }
        // Uncollected demand: scan for any order that serves it.
        self.orders.get(&pred).and_then(|orders| {
            orders
                .iter()
                .find(|o| order_serves_range(o, eq_cols, range_col))
                .map(|o| o.as_slice())
        })
    }

    /// A catalog equal to `self` except that every predicate `winner`
    /// has orders for takes its orders *and* lookup tables wholesale
    /// from `winner`. This is how a co-optimized index set overlays the
    /// executor's self-built catalog: the winner's per-predicate
    /// decisions replace the defaults, while predicates the winner
    /// never considered (magic-renamed adorned predicates of the
    /// rewritten program, for instance) keep their built orders.
    pub fn overridden_by(&self, winner: &IndexCatalog) -> IndexCatalog {
        let mut out = self.clone();
        for (&pred, orders) in &winner.orders {
            out.orders.insert(pred, orders.clone());
            out.by_signature.retain(|(p, _), _| *p != pred);
            out.by_range.retain(|(p, _, _), _| *p != pred);
        }
        for ((p, sig), &oi) in &winner.by_signature {
            out.by_signature.insert((*p, sig.clone()), oi);
        }
        for ((p, e, r), &oi) in &winner.by_range {
            out.by_range.insert((*p, e.clone(), *r), oi);
        }
        out
    }

    /// Deterministic snapshot of the selected orders — per predicate
    /// (sorted), the set of column orders — for display and for
    /// comparing two catalogs' index sets.
    pub fn orders_by_pred(&self) -> BTreeMap<Pred, BTreeSet<Vec<usize>>> {
        self.orders
            .iter()
            .map(|(&p, os)| (p, os.iter().cloned().collect()))
            .collect()
    }

    /// Total number of selected orders across all predicates.
    pub fn total_orders(&self) -> usize {
        self.orders.values().map(|v| v.len()).sum()
    }

    /// Number of distinct collected signatures across all predicates.
    pub fn total_signatures(&self) -> usize {
        self.by_signature.len()
    }

    /// Predicates with at least one selected order.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.orders.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::parse_program;

    #[test]
    fn tc_catalog_has_one_order_for_tc() {
        let p = parse_program("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).").unwrap();
        let c = IndexCatalog::build(&p);
        assert_eq!(c.orders(Pred::new("tc", 2)), &[vec![0]]);
        assert!(c.orders(Pred::new("e", 2)).is_empty());
        assert_eq!(c.lookup(Pred::new("tc", 2), &[0]), Some(&[0usize][..]));
        assert_eq!(c.lookup(Pred::new("tc", 2), &[1]), None);
    }

    #[test]
    fn nested_signatures_share_one_order() {
        // p probed on {0} in one rule and {0,1} in another: one chain,
        // one order [0, 1], both lookups hit it.
        let text = "a(X, Z) <- f(X), p(X, Z).\n\
                    b(X, Y) <- f(X), g(Y), p(X, Y).";
        let prog = parse_program(text).unwrap();
        let c = IndexCatalog::build(&prog);
        let p = Pred::new("p", 2);
        assert_eq!(c.orders(p).len(), 1);
        assert_eq!(c.lookup(p, &[0]), Some(&[0usize, 1][..]));
        assert_eq!(c.lookup(p, &[0, 1]), Some(&[0usize, 1][..]));
        assert_eq!(c.total_signatures(), 2); // p:{0} and p:{0,1}; f and g are reached free
    }

    #[test]
    fn uncollected_signature_falls_back_to_prefix_scan() {
        let p = parse_program("a(X, Z) <- f(X), p(X, Z).").unwrap();
        let c = IndexCatalog::build(&p);
        // {0} was collected; a hypothetical longer key {0,1} was not,
        // but order [0] cannot serve it — lookup must miss...
        assert_eq!(c.lookup(Pred::new("p", 2), &[0, 1]), None);
        // ...while the recorded prefix hits.
        assert!(c.lookup(Pred::new("p", 2), &[0]).is_some());
    }

    #[test]
    fn unknown_pred_is_empty() {
        let c = IndexCatalog::default();
        assert!(c.orders(Pred::new("nope", 3)).is_empty());
        assert!(c.lookup(Pred::new("nope", 3), &[0]).is_none());
        assert!(c.lookup_range(Pred::new("nope", 3), &[], 0).is_none());
        assert_eq!(c.total_orders(), 0);
    }

    #[test]
    fn range_demand_shares_the_equality_chain() {
        // f probed on {0} equality in one rule, ranged on column 1
        // after prefix {0} in another: one order [0, 1] serves both.
        let text = "a(K, V) <- m(K), f(K, V).\n\
                    b(K, V) <- m(K), f(K, V), V > 3.";
        let prog = parse_program(text).unwrap();
        let c = IndexCatalog::build(&prog);
        let f = Pred::new("f", 2);
        assert_eq!(c.orders(f), &[vec![0, 1]]);
        assert_eq!(c.lookup(f, &[0]), Some(&[0usize, 1][..]));
        assert_eq!(c.lookup_range(f, &[0], 1), Some(&[0usize, 1][..]));
        // Only f:{0} is a collected equality signature; the synthetic
        // {0,1} set from the range demand does not register.
        assert_eq!(c.total_signatures(), 1);
    }

    #[test]
    fn empty_prefix_range_demand_gets_an_order() {
        let prog = parse_program("big(X) <- n(X), X > 5.").unwrap();
        let c = IndexCatalog::build(&prog);
        let n = Pred::new("n", 1);
        assert_eq!(c.lookup_range(n, &[], 0), Some(&[0usize][..]));
        // No equality signature was collected for n (the order exists
        // purely for the range demand).
        assert_eq!(c.total_signatures(), 0);
    }

    #[test]
    fn unserved_demand_gets_a_dedicated_appended_order() {
        use crate::collect::RangeSignatureMap;
        use std::collections::BTreeSet;
        // Force a cover that lowers {0,1} with 1 first: equality sigs
        // {1} ⊂ {0,1} chain to order [1, 0], which cannot serve a range
        // on column 1 after prefix {0}.
        let p = Pred::new("p", 2);
        let mut eq = SignatureMap::new();
        eq.insert(p, BTreeSet::from([vec![1], vec![0, 1]]));
        let mut ranges = RangeSignatureMap::new();
        ranges.insert(p, BTreeSet::from([(vec![0], 1)]));
        let c = IndexCatalog::from_signature_maps(&eq, &ranges);
        assert_eq!(c.lookup_range(p, &[0], 1), Some(&[0usize, 1][..]));
        // Both equality signatures still hit the chain order.
        assert_eq!(c.lookup(p, &[1]), Some(&[1usize, 0][..]));
        assert_eq!(c.lookup(p, &[0, 1]), Some(&[1usize, 0][..]));
    }

    #[test]
    fn override_replaces_per_pred_and_keeps_the_rest() {
        // Base catalog: tc:{0} (from the recursive rule) and e free.
        let p = parse_program("tc(X, Y) <- e(X, Y).\ntc(X, Y) <- e(X, Z), tc(Z, Y).").unwrap();
        let base = IndexCatalog::build(&p);
        // Winner: e probed on {1} (some permuted candidate's demand),
        // silent about tc.
        let e = Pred::new("e", 2);
        let mut eq = SignatureMap::new();
        eq.insert(e, BTreeSet::from([vec![1]]));
        let winner = IndexCatalog::from_signatures(&eq);
        let merged = base.overridden_by(&winner);
        assert_eq!(merged.lookup(e, &[1]), Some(&[1usize][..]));
        // tc keeps its built order; e's old (empty) entry is replaced.
        assert_eq!(merged.lookup(Pred::new("tc", 2), &[0]), Some(&[0usize][..]));
        let obp = merged.orders_by_pred();
        assert_eq!(obp[&e], BTreeSet::from([vec![1]]));
    }
}

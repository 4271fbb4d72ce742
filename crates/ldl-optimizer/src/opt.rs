//! NR-OPT and OPT: the integrated optimization algorithms.
//!
//! This module reproduces Figures 7-1 and 7-2 of the paper:
//!
//! * **AND nodes** (rule bodies): the chosen search strategy enumerates
//!   body permutations; the binding implied by the permutation flows
//!   sideways (SIP); selects/projects are implicitly pushed (reflected in
//!   per-literal restricted costs), so searching `{MP, PR}` finds the
//!   optimum of `{MP, PR, PS, PP, EL}`.
//! * **OR nodes** (derived predicates): each is optimized at most once
//!   per binding pattern; results are memoized and re-read on every
//!   later reference with the same binding — the paper's key device for
//!   the `O(N·2^k·2^n)` bound.
//! * **CC nodes** (recursive cliques): enumerate *c-permutations* (one
//!   body order per recursive rule), adorn the program under each, then
//!   cost every applicable recursive method (naive, semi-naive, magic
//!   sets, counting) and keep the minimum.
//! * **Safety**: orderings that hit a non-EC evaluable predicate, leave
//!   head variables unbound, or belong to a clique without a
//!   well-founded order cost `+∞`; if the final cost is still infinite,
//!   [`Optimizer::optimize`] reports the query unsafe, exactly as §8.2
//!   prescribes.

use crate::cost::{AccessPath, CostModel, CostParams, DefaultCostModel, PlanCost, INFINITE_COST};
use crate::safety;
use crate::search::anneal::{anneal_generic, AnnealParams};
use crate::search::Strategy;
use ldl_core::adorn::{adorn_atom, adorn_program, FixedSip, GreedySip, SipStrategy};
use ldl_core::binding::Adornment;
use ldl_core::depgraph::{Clique, DependencyGraph};
use ldl_core::{LdlError, Literal, Pred, Program, Query, Result, Rule, Symbol};
use ldl_eval::engine::{evaluate_query_sip, QueryAnswer};
use ldl_eval::naive::FixpointConfig;
use ldl_eval::Method;
use ldl_index::{range_demand, IndexCatalog};
use ldl_storage::{Database, Stats};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;

/// How the CC-node search explores c-permutations (one body order per
/// recursive rule).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CliqueSearch {
    /// Iterative co-adornment fixpoint: start from the identity
    /// c-permutation, re-adorn the clique under the current orders, let
    /// the rule-level enumerator propose the best order per adorned
    /// variant, accept the proposal only on a strict total-cost
    /// improvement, and stop at a stable c-permutation or the round
    /// cap. Work is O(rounds × Σ per-rule enumeration) instead of the
    /// sweep's Π nᵢ! — this is what carries recursive rules past the
    /// E3 n≈10 cliff. Terminates: each accepted round strictly
    /// decreases the cost over the finite c-permutation space, and
    /// [`CLIQUE_FIXPOINT_MAX_ROUNDS`] bounds the rounds regardless.
    #[default]
    Fixpoint,
    /// The brute sweep: exhaustive cross-product of per-rule
    /// permutations below `max_cpermutations`, simulated annealing
    /// above. Kept as the oracle/ablation.
    Sweep,
}

/// Round cap of [`CliqueSearch::Fixpoint`] — the proved termination
/// bound is strict cost decrease over a finite space, this is the belt
/// on top of it.
pub const CLIQUE_FIXPOINT_MAX_ROUNDS: usize = 8;

/// Optimizer configuration.
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// Search strategy for conjunct (rule body) ordering.
    pub strategy: Strategy,
    /// C-permutation search for recursive cliques.
    pub clique_search: CliqueSearch,
    /// Recursive methods the optimizer may choose from.
    pub methods: Vec<Method>,
    /// Whether base data may be assumed acyclic (a prerequisite for the
    /// counting method's termination; off by default — conservative).
    pub assume_acyclic: bool,
    /// Above this many literals, `Strategy::Exhaustive` falls back to DP.
    pub max_exhaustive_literals: usize,
    /// Above this many c-permutations, the clique sweep switches to
    /// simulated annealing (and the fixpoint's unsafe-rescue gives up).
    pub max_cpermutations: usize,
    /// Annealing schedule for both rule orders and c-permutations.
    pub anneal: AnnealParams,
    /// RNG seed for annealing.
    pub seed: u64,
    /// Binding-pattern memoization of OR-subtrees (Fig. 7-1 step 2).
    /// Disable only for the E4 ablation.
    pub memo_enabled: bool,
    /// Cost model constants.
    pub cost_params: CostParams,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            strategy: Strategy::Memo,
            clique_search: CliqueSearch::default(),
            methods: Method::ALL.to_vec(),
            assume_acyclic: false,
            max_exhaustive_literals: 8,
            max_cpermutations: 4000,
            anneal: AnnealParams::default(),
            seed: 0xDA7A,
            memo_enabled: true,
            cost_params: CostParams::default(),
        }
    }
}

/// Work counters (experiment E4's subject).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// OR-subtree optimizations actually performed.
    pub subtree_optimizations: usize,
    /// OR-subtree requests served from the binding-indexed memo.
    pub memo_hits: usize,
    /// Complete rule orders costed.
    pub orders_probed: usize,
    /// Clique c-permutations costed.
    pub cpermutations_probed: usize,
    /// Prefix extensions walked by the memoized enumerator
    /// ([`Strategy::Memo`]) — the count the E3-successor gate compares
    /// against n! (exhaustive walks every complete order).
    pub explored_plans: usize,
    /// Candidate prefixes the enumerator dropped because a memoized
    /// state with the same (subset, fold-tail) key already dominated
    /// them on both cost and cardinality.
    pub enum_memo_hits: usize,
}

/// Plan for one rule under one head binding.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// Rule index in the program.
    pub rule_index: usize,
    /// Head binding this plan serves.
    pub head_adornment: Adornment,
    /// Chosen body order (original literal indexes).
    pub order: Vec<usize>,
    /// Estimated cost per binding tuple.
    pub cost: f64,
    /// Expected result tuples per binding tuple.
    pub fanout: f64,
}

/// How a predicate+binding is computed.
#[derive(Clone, Debug)]
pub enum PredPlanKind {
    /// Base relation access.
    Base,
    /// Nonrecursive derived predicate: union of rule plans.
    Union(Vec<RulePlan>),
    /// Contracted clique (CC node): fixpoint with a chosen method and
    /// one body order per recursive rule (the winning c-permutation).
    Clique {
        /// The fixpoint method chosen.
        method: Method,
        /// Chosen order per recursive rule index.
        sips: BTreeMap<usize, Vec<usize>>,
        /// Estimated full clique cardinality.
        full_size: f64,
        /// Estimated cost of each alternative method (for reporting),
        /// infinite where inapplicable/unsafe.
        method_costs: Vec<(Method, f64)>,
    },
}

/// Memoized plan for (predicate, binding pattern).
#[derive(Clone, Debug)]
pub struct PredPlan {
    /// The predicate.
    pub pred: Pred,
    /// The binding pattern served.
    pub adornment: Adornment,
    /// Cost estimates.
    pub cost: PlanCost,
    /// Plan structure.
    pub kind: PredPlanKind,
}

/// The result of optimizing one query form.
#[derive(Clone, Debug)]
pub struct OptimizedQuery {
    /// The query that was optimized.
    pub query: Query,
    /// Total estimated cost (setup + one probe).
    pub cost: f64,
    /// Estimated number of answers.
    pub estimated_answers: f64,
    /// Plan for the query predicate.
    pub plan: Rc<PredPlan>,
    /// Orders chosen for every (rule, head adornment) seen.
    pub orders: HashMap<(usize, Adornment), Vec<usize>>,
    /// Clique SIPs chosen (rule index → order), adornment-independent.
    pub clique_orders: HashMap<usize, Vec<usize>>,
    /// Method to use for the top-level execution.
    pub method: Method,
    /// Optimizer work counters.
    pub stats: OptStats,
}

/// The SIP the executor uses: exact per-(rule, adornment) orders where
/// the optimizer recorded them, clique orders per rule, greedy fallback.
#[derive(Clone, Debug, Default)]
pub struct PlannedSip {
    per_adornment: HashMap<(usize, Adornment), Vec<usize>>,
    per_rule: HashMap<usize, Vec<usize>>,
}

impl SipStrategy for PlannedSip {
    fn permutation(&self, rule_index: usize, rule: &Rule, head_adornment: Adornment) -> Vec<usize> {
        if let Some(o) = self.per_adornment.get(&(rule_index, head_adornment)) {
            return o.clone();
        }
        if let Some(o) = self.per_rule.get(&rule_index) {
            return o.clone();
        }
        GreedySip.permutation(rule_index, rule, head_adornment)
    }
}

impl OptimizedQuery {
    /// The SIP strategy encoding this plan's ordering decisions.
    pub fn sip(&self) -> PlannedSip {
        PlannedSip {
            per_adornment: self.orders.clone(),
            per_rule: self.clique_orders.clone(),
        }
    }

    /// Executes the plan against real data. The chosen recursive method
    /// and SIPs are honored, with two defensive fallbacks:
    ///
    /// * a **counting** plan that diverges at run time (the data turned
    ///   out cyclic — the acyclicity assumption was the optimizer's, not
    ///   a theorem) falls back to magic sets, which handles cycles;
    /// * a rewriting that does not apply at all (validation error) falls
    ///   back to plain semi-naive evaluation.
    pub fn execute(
        &self,
        program: &Program,
        db: &Database,
        cfg: &FixpointConfig,
    ) -> Result<QueryAnswer> {
        self.execute_goal(&self.query, program, db, cfg)
    }

    /// [`OptimizedQuery::execute`] for another goal of the same query
    /// form: orders, method and index set depend only on the form (§2),
    /// so one compiled plan answers every constant.
    pub fn execute_goal(
        &self,
        query: &Query,
        program: &Program,
        db: &Database,
        cfg: &FixpointConfig,
    ) -> Result<QueryAnswer> {
        debug_assert_eq!(
            (query.pred(), query.adornment()),
            (self.query.pred(), self.query.adornment()),
            "a plan answers goals of its own form only"
        );
        let sip = self.sip();
        let attempt = evaluate_query_sip(program, db, query, self.method, cfg, &sip);
        match attempt {
            Err(LdlError::Diverged(_) | LdlError::Validation(_))
                if self.method == Method::Counting =>
            {
                // Divergence (cyclic data) or inapplicability: magic is
                // the binding-propagating fallback.
                match evaluate_query_sip(program, db, query, Method::Magic, cfg, &sip) {
                    Err(LdlError::Validation(_)) => {
                        evaluate_query_sip(program, db, query, Method::SemiNaive, cfg, &sip)
                    }
                    other => other,
                }
            }
            Err(LdlError::Validation(_)) if self.method != Method::SemiNaive => {
                evaluate_query_sip(program, db, query, Method::SemiNaive, cfg, &sip)
            }
            other => other,
        }
    }
}

/// The LDL query optimizer.
pub struct Optimizer<'a> {
    program: &'a Program,
    db: &'a Database,
    graph: DependencyGraph,
    model: DefaultCostModel,
    cfg: OptConfig,
    memo: RefCell<HashMap<(Pred, Adornment), Rc<PredPlan>>>,
    /// Provisional costs for clique predicates while their CC node is
    /// being costed (breaks the estimation cycle).
    overlay: RefCell<HashMap<Pred, f64>>, // pred -> provisional full size
    stats: RefCell<OptStats>,
    /// Selected-index catalog, when the caller wants base accesses
    /// priced per physical path ([`AccessPath`]) instead of uniformly.
    index_catalog: Option<IndexCatalog>,
    /// Inferred statistics from the abstract interpreter, when the
    /// caller wants cardinalities/selectivities from the program + data
    /// instead of uniform defaults ([`crate::EstimateCatalog`]).
    estimates: Option<crate::EstimateCatalog>,
    /// Derived predicates (range-fold pricing applies to base atoms
    /// only — derived atoms are priced by their own plans).
    derived: BTreeSet<Pred>,
}

impl<'a> Optimizer<'a> {
    /// Builds an optimizer over a program and a database (statistics).
    pub fn new(program: &'a Program, db: &'a Database, cfg: OptConfig) -> Optimizer<'a> {
        let graph = DependencyGraph::build(program);
        let model = DefaultCostModel::new(cfg.cost_params.clone());
        let derived = program.derived_preds();
        Optimizer {
            program,
            db,
            graph,
            model,
            cfg,
            memo: RefCell::new(HashMap::new()),
            overlay: RefCell::new(HashMap::new()),
            stats: RefCell::new(OptStats::default()),
            index_catalog: None,
            estimates: None,
            derived,
        }
    }

    /// Optimizer with default configuration.
    pub fn with_defaults(program: &'a Program, db: &'a Database) -> Optimizer<'a> {
        Optimizer::new(program, db, OptConfig::default())
    }

    /// Attaches an explicit selected-index catalog: base accesses are
    /// then priced per physical path — ordered-prefix probes for bound
    /// sets the catalog serves, on-demand hash probes otherwise.
    pub fn with_index_catalog(mut self, catalog: IndexCatalog) -> Optimizer<'a> {
        self.index_catalog = Some(catalog);
        self
    }

    /// [`Optimizer::with_index_catalog`] with the catalog solved from
    /// the program's own search signatures (the executor's default
    /// `AccessPaths::Selected` policy).
    pub fn with_selected_indexes(self) -> Optimizer<'a> {
        let catalog = IndexCatalog::build(self.program);
        self.with_index_catalog(catalog)
    }

    /// Attaches inferred statistics: base accesses and clique size
    /// estimates then use the abstract interpreter's cardinality
    /// bounds instead of uniform defaults.
    pub fn with_estimates(mut self, estimates: crate::EstimateCatalog) -> Optimizer<'a> {
        self.estimates = Some(estimates);
        self
    }

    /// [`Optimizer::with_estimates`] with the catalog inferred from
    /// this optimizer's own program and database.
    pub fn with_inferred_estimates(self) -> Optimizer<'a> {
        let cat = crate::EstimateCatalog::infer(self.program, self.db);
        self.with_estimates(cat)
    }

    /// Statistics for a base predicate: the inferred catalog's bound
    /// when available, else the database's (measured or default).
    fn pred_stats(&self, pred: Pred) -> Stats {
        if let Some(est) = self.estimates.as_ref().and_then(|e| e.stats(pred)) {
            return est.clone();
        }
        self.db.stats(pred)
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> OptStats {
        *self.stats.borrow()
    }

    /// Optimizes one query form. Returns `Err(LdlError::Unsafe)` when no
    /// execution in the space has finite cost (§8.2: "a proper message
    /// must inform the user that the query is unsafe").
    pub fn optimize(&self, query: &Query) -> Result<OptimizedQuery> {
        self.program.validate()?;
        self.graph.check_stratified()?;
        let pred = query.pred();
        let ad = query.adornment();
        let plan = self.optimize_pred(pred, ad);
        if plan.cost.is_unsafe() {
            return Err(LdlError::Unsafe(format!(
                "no safe execution exists for query form {pred}.{ad}; \
                 every ordering hits a non-effectively-computable literal, an unbound \
                 head variable, or a recursive clique without a well-founded order"
            )));
        }
        // Collect ordering decisions from the memo.
        let mut orders = HashMap::new();
        let mut clique_orders = HashMap::new();
        for plan in self.memo.borrow().values() {
            match &plan.kind {
                PredPlanKind::Union(rules) => {
                    for rp in rules {
                        orders.insert((rp.rule_index, rp.head_adornment), rp.order.clone());
                    }
                }
                PredPlanKind::Clique { sips, .. } => {
                    for (ri, o) in sips {
                        clique_orders.insert(*ri, o.clone());
                    }
                }
                PredPlanKind::Base => {}
            }
        }
        let method = match &plan.kind {
            PredPlanKind::Clique { method, .. } => *method,
            _ => {
                // Nonrecursive query predicate: propagate bindings with
                // magic when bound, otherwise evaluate directly.
                if ad.bound_count() > 0 || !self.graph.cliques().is_empty() {
                    Method::Magic
                } else {
                    Method::SemiNaive
                }
            }
        };
        Ok(OptimizedQuery {
            query: query.clone(),
            cost: plan.cost.total(1.0),
            estimated_answers: plan.cost.fanout,
            plan,
            orders,
            clique_orders,
            method,
            stats: self.stats(),
        })
    }

    /// NR-OPT step 2 / OPT steps 2–3: the per-(pred, binding) plan.
    pub fn optimize_pred(&self, pred: Pred, ad: Adornment) -> Rc<PredPlan> {
        // Provisional clique overlay (during CC costing): consulted before
        // the memo and never memoized — it is a temporary stand-in that
        // breaks the size-estimation cycle.
        if let Some(&size) = self.overlay.borrow().get(&pred) {
            let cost = self.restricted_cost(size, pred.arity, ad);
            return Rc::new(PredPlan {
                pred,
                adornment: ad,
                cost,
                kind: PredPlanKind::Base,
            });
        }
        if self.cfg.memo_enabled {
            if let Some(hit) = self.memo.borrow().get(&(pred, ad)) {
                self.stats.borrow_mut().memo_hits += 1;
                return hit.clone();
            }
        }
        self.stats.borrow_mut().subtree_optimizations += 1;
        let plan = self.compute_pred_plan(pred, ad);
        let rc = Rc::new(plan);
        if self.cfg.memo_enabled {
            self.memo.borrow_mut().insert((pred, ad), rc.clone());
        }
        rc
    }

    fn compute_pred_plan(&self, pred: Pred, ad: Adornment) -> PredPlan {
        if !self.derived.contains(&pred) {
            let stats = self.pred_stats(pred);
            let bound = ad.bound_positions();
            let cost = match &self.index_catalog {
                Some(cat) => {
                    let path = if bound.is_empty() {
                        AccessPath::FullScan
                    } else if cat.lookup(pred, &bound).is_some() {
                        AccessPath::OrderedPrefix
                    } else {
                        AccessPath::HashProbe
                    };
                    self.model.indexed_access(&stats, &bound, path)
                }
                None => self.model.base_access(&stats, &bound),
            };
            return PredPlan {
                pred,
                adornment: ad,
                cost,
                kind: PredPlanKind::Base,
            };
        }
        if let Some(cid) = self.graph.clique_id_of(pred) {
            return self.optimize_clique(cid, pred, ad);
        }
        // Nonrecursive derived predicate: optimize every rule, union.
        let mut rule_plans = Vec::new();
        let mut parts = Vec::new();
        for (ri, rule) in self.program.rules_for(pred) {
            let rp = self.optimize_rule(ri, rule, ad);
            parts.push(PlanCost {
                setup: 0.0,
                probe: rp.cost,
                fanout: rp.fanout,
                stats: Stats::uniform(
                    rp.fanout,
                    pred.arity,
                    self.model.derived_distinct(rp.fanout),
                ),
            });
            rule_plans.push(rp);
        }
        let cost = self.model.union_of(&parts, pred.arity);
        PredPlan {
            pred,
            adornment: ad,
            cost,
            kind: PredPlanKind::Union(rule_plans),
        }
    }

    /// PlanCost of accessing an estimated relation of `size` tuples
    /// restricted by the bound positions of `ad`.
    fn restricted_cost(&self, size: f64, arity: usize, ad: Adornment) -> PlanCost {
        let d = self.model.derived_distinct(size);
        let mut fanout = size.max(0.0);
        for _ in 0..ad.bound_count() {
            fanout /= d.max(1.0);
        }
        let fanout = fanout.max(if size > 0.0 { 1e-6 } else { 0.0 });
        PlanCost {
            setup: 0.0,
            probe: fanout.max(1.0),
            fanout,
            stats: Stats::uniform(size, arity, d),
        }
    }

    // ------------------------------------------------------------------
    // AND nodes: rule-order search (§7.1 strategies at the rule level).
    // ------------------------------------------------------------------

    /// Cost of executing `rule`'s body in `order` under `head_ad`:
    /// pipelined left-to-right, each derived literal priced by its own
    /// optimized plan for the adornment the prefix implies. Returns
    /// `(cost, fanout)`; infinite cost marks unsafe orders.
    pub fn order_cost(&self, rule: &Rule, head_ad: Adornment, order: &[usize]) -> (f64, f64) {
        self.stats.borrow_mut().orders_probed += 1;
        let (cost, card, bound) = self.walk_cost(rule, head_ad, order);
        if !cost.is_finite() || !rule.head.vars().iter().all(|v| bound.contains(v)) {
            return (INFINITE_COST, INFINITE_COST); // unsafe or infinite answer
        }
        (cost, card)
    }

    /// The shared pipelined walk behind [`Optimizer::order_cost`] and
    /// the DP's partial-prefix costing: returns `(cost, card, bound)`,
    /// with infinite cost marking an unsafe prefix.
    ///
    /// When an index catalog is attached, a base atom followed (in the
    /// order) by bound comparisons forming a collected range demand the
    /// catalog serves is priced as one [`AccessPath::Range`] probe and
    /// the folded comparisons are skipped — the model prices a range
    /// probe exactly where the executor will issue one.
    fn walk_cost(
        &self,
        rule: &Rule,
        head_ad: Adornment,
        prefix: &[usize],
    ) -> (f64, f64, HashSet<Symbol>) {
        let p = self.model.params().clone();
        let mut bound: HashSet<Symbol> = HashSet::new();
        for (i, arg) in rule.head.args.iter().enumerate() {
            if head_ad.is_bound(i) {
                for v in arg.vars() {
                    bound.insert(v);
                }
            }
        }
        let mut consumed: HashSet<usize> = HashSet::new();
        let mut cost = 0.0f64;
        let mut card = 1.0f64;
        for (at, &li) in prefix.iter().enumerate() {
            match &rule.body[li] {
                Literal::Builtin(b) => {
                    if consumed.contains(&at) {
                        continue; // folded into the preceding range probe
                    }
                    if !b.is_ec(&bound) {
                        return (INFINITE_COST, INFINITE_COST, bound);
                    }
                    cost += card * p.cpu_per_tuple;
                    let binds = b.binds(&bound);
                    if binds.is_empty() {
                        card *= match b.op {
                            ldl_core::CmpOp::Eq => p.eq_selectivity,
                            _ => p.ineq_selectivity,
                        };
                    }
                    for v in binds {
                        bound.insert(v);
                    }
                }
                Literal::Atom(a) if a.negated => {
                    if !a.vars().iter().all(|v| bound.contains(v)) {
                        return (INFINITE_COST, INFINITE_COST, bound);
                    }
                    cost += card * p.cpu_per_tuple;
                    card *= p.neg_selectivity;
                }
                Literal::Atom(a) => {
                    // member/2: evaluable set predicate — needs its set
                    // bound, enumerates a handful of elements.
                    if a.pred == Pred::new("member", 2) {
                        if !a.args[1].vars().iter().all(|v| bound.contains(v)) {
                            return (INFINITE_COST, INFINITE_COST, bound);
                        }
                        cost += card * p.cpu_per_tuple;
                        card = (card * 4.0).min(p.cardinality_cap);
                        for v in a.vars() {
                            bound.insert(v);
                        }
                        continue;
                    }
                    if let Some(cat) = &self.index_catalog {
                        if !self.derived.contains(&a.pred) {
                            if let Some(d) = range_demand(&rule.body, prefix, at, &bound) {
                                if cat.lookup_range(a.pred, &d.eq_cols, d.range_col).is_some() {
                                    let stats = self.pred_stats(a.pred);
                                    let pc = self.model.indexed_access(
                                        &stats,
                                        &d.eq_cols,
                                        AccessPath::Range,
                                    );
                                    if pc.is_unsafe() {
                                        return (INFINITE_COST, INFINITE_COST, bound);
                                    }
                                    cost += pc.setup + card * pc.probe;
                                    card = (card * pc.fanout).min(p.cardinality_cap);
                                    // The first folded comparison's selectivity
                                    // is inside the range fanout; every further
                                    // folded bound tightens it like a filter.
                                    for _ in 1..d.consumed.len() {
                                        card *= p.ineq_selectivity;
                                    }
                                    for v in a.vars() {
                                        bound.insert(v);
                                    }
                                    consumed.extend(d.consumed.iter().copied());
                                    continue;
                                }
                            }
                        }
                    }
                    let sub_ad = adorn_atom(a, &bound);
                    let sub = self.optimize_pred(a.pred, sub_ad);
                    if sub.cost.is_unsafe() {
                        return (INFINITE_COST, INFINITE_COST, bound);
                    }
                    cost += sub.cost.setup + card * sub.cost.probe;
                    card = (card * sub.cost.fanout).min(p.cardinality_cap);
                    for v in a.vars() {
                        bound.insert(v);
                    }
                }
            }
        }
        (cost, card, bound)
    }

    /// Searches for the best body order of one rule under `head_ad`
    /// using the configured strategy (NR-OPT step 1).
    pub fn optimize_rule(&self, rule_index: usize, rule: &Rule, head_ad: Adornment) -> RulePlan {
        let n = rule.body.len();
        if n == 0 {
            let safe = rule.head.vars().iter().all(|v| {
                rule.head
                    .args
                    .iter()
                    .enumerate()
                    .any(|(i, arg)| head_ad.is_bound(i) && arg.vars().contains(v))
            });
            let (cost, fanout) = if safe {
                (0.0, 1.0)
            } else {
                (INFINITE_COST, INFINITE_COST)
            };
            return RulePlan {
                rule_index,
                head_adornment: head_ad,
                order: vec![],
                cost,
                fanout,
            };
        }
        let strategy = match self.cfg.strategy {
            Strategy::Exhaustive if n > self.cfg.max_exhaustive_literals => {
                Strategy::DynamicProgramming
            }
            s => s,
        };
        let (order, cost, fanout) = match strategy {
            Strategy::Exhaustive => self.search_exhaustive(rule, head_ad),
            Strategy::DynamicProgramming => self.search_dp(rule, head_ad),
            Strategy::Memo => self.search_memo(rule, head_ad, rule_index as u64),
            Strategy::Kbz => self
                .search_kbz(rule, head_ad)
                .unwrap_or_else(|| self.search_dp(rule, head_ad)),
            Strategy::Annealing => self.search_anneal(rule, head_ad, rule_index as u64),
        };
        RulePlan {
            rule_index,
            head_adornment: head_ad,
            order,
            cost,
            fanout,
        }
    }

    /// KBZ at the rule level: abstracts the body into a [`JoinGraph`]
    /// (one node per positive atom; cardinalities from the sub-plans
    /// restricted by the head binding; selectivities `1/max(d)` per
    /// shared unbound variable), runs the quadratic algorithm, then
    /// honestly re-costs the produced order. Returns `None` — caller
    /// falls back to DP — when the body contains builtins or negation
    /// (the ASI abstraction does not model them) or the KBZ order turns
    /// out unsafe under the exact cost walk.
    fn search_kbz(&self, rule: &Rule, head_ad: Adornment) -> Option<(Vec<usize>, f64, f64)> {
        use crate::joingraph::JoinGraph;
        use crate::search::kbz::optimize_kbz;
        let atoms: Vec<(usize, &ldl_core::Atom)> = rule
            .body
            .iter()
            .enumerate()
            .map(|(i, l)| match l {
                Literal::Atom(a) if !a.negated => Some((i, a)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let n = atoms.len();
        if n < 3 {
            return None; // DP is trivially cheap
        }
        let mut head_bound: HashSet<Symbol> = HashSet::new();
        for (i, arg) in rule.head.args.iter().enumerate() {
            if head_ad.is_bound(i) {
                for v in arg.vars() {
                    head_bound.insert(v);
                }
            }
        }
        // Per-literal cardinalities under the head binding, and per-var
        // distinct counts for selectivity estimation.
        let mut cards = Vec::with_capacity(n);
        let mut var_distinct: Vec<HashMap<Symbol, f64>> = Vec::with_capacity(n);
        for (_, a) in &atoms {
            let ad = adorn_atom(a, &head_bound);
            let sub = self.optimize_pred(a.pred, ad);
            if sub.cost.is_unsafe() {
                return None;
            }
            cards.push(sub.cost.fanout.max(0.0));
            let mut dv = HashMap::new();
            for (k, t) in a.args.iter().enumerate() {
                if let ldl_core::Term::Var(v) = t {
                    if !head_bound.contains(v) {
                        let d = sub.cost.stats.distinct.get(k).copied().unwrap_or(1.0);
                        dv.insert(*v, d.max(1.0));
                    }
                }
            }
            var_distinct.push(dv);
        }
        let mut g = JoinGraph::new(cards);
        for i in 0..n {
            for j in i + 1..n {
                let mut sel = 1.0f64;
                for (v, di) in &var_distinct[i] {
                    if let Some(dj) = var_distinct[j].get(v) {
                        sel *= 1.0 / di.max(*dj);
                    }
                }
                if sel < 1.0 {
                    g.set_selectivity(i, j, sel.max(1e-12));
                }
            }
        }
        let result = optimize_kbz(&g);
        let order: Vec<usize> = result.order.iter().map(|&k| atoms[k].0).collect();
        let (cost, fanout) = self.order_cost(rule, head_ad, &order);
        if cost.is_finite() {
            Some((order, cost, fanout))
        } else {
            None
        }
    }

    fn search_exhaustive(&self, rule: &Rule, head_ad: Adornment) -> (Vec<usize>, f64, f64) {
        let n = rule.body.len();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best: Option<(f64, f64, Vec<usize>)> = None;
        fn rec(
            this: &Optimizer,
            rule: &Rule,
            head_ad: Adornment,
            perm: &mut Vec<usize>,
            k: usize,
            best: &mut Option<(f64, f64, Vec<usize>)>,
        ) {
            if k == perm.len() {
                let (c, f) = this.order_cost(rule, head_ad, perm);
                match best {
                    Some((bc, _, _)) if *bc <= c => {}
                    _ => *best = Some((c, f, perm.clone())),
                }
                return;
            }
            for i in k..perm.len() {
                perm.swap(k, i);
                rec(this, rule, head_ad, perm, k + 1, best);
                perm.swap(k, i);
            }
        }
        rec(self, rule, head_ad, &mut perm, 0, &mut best);
        let (cost, fanout, order) = best.expect("n >= 1");
        (order, cost, fanout)
    }

    /// Selinger-style DP over literal subsets: state per subset keeps the
    /// cheapest prefix (cost, card, bound set is subset-determined).
    fn search_dp(&self, rule: &Rule, head_ad: Adornment) -> (Vec<usize>, f64, f64) {
        // For DP we need incremental extension; reuse order_cost on the
        // reconstructed prefix for simplicity and exactness of safety
        // checks. Subsets: best[mask] = (cost, order).
        let n = rule.body.len();
        assert!(n <= 20, "rule with more than 20 literals: use annealing");
        let full = (1usize << n) - 1;
        let mut best: Vec<Option<(f64, Vec<usize>)>> = vec![None; full + 1];
        best[0] = Some((0.0, vec![]));
        for mask in 0..=full {
            let Some((cost_so_far, order_so_far)) = best[mask].clone() else {
                continue;
            };
            if !cost_so_far.is_finite() {
                continue;
            }
            for next in 0..n {
                if mask & (1 << next) != 0 {
                    continue;
                }
                let mut order = order_so_far.clone();
                order.push(next);
                // Evaluate the full prefix (cheap: prefix lengths are
                // small; correctness of EC checks is what matters).
                let (c, _) = self.prefix_cost(rule, head_ad, &order);
                let nmask = mask | (1 << next);
                match &best[nmask] {
                    Some((bc, _)) if *bc <= c => {}
                    _ => best[nmask] = Some((c, order)),
                }
            }
        }
        match &best[full] {
            Some((_, order)) => {
                let (c, f) = self.order_cost(rule, head_ad, order);
                (order.clone(), c, f)
            }
            None => ((0..n).collect(), INFINITE_COST, INFINITE_COST),
        }
    }

    /// Cost of a (possibly partial) prefix — used by the subset DP.
    /// Same walk as [`Optimizer::order_cost`] (including range-fold
    /// pricing) but without the head-variable check.
    fn prefix_cost(&self, rule: &Rule, head_ad: Adornment, prefix: &[usize]) -> (f64, f64) {
        let (cost, card, _) = self.walk_cost(rule, head_ad, prefix);
        (cost, card)
    }

    /// Memoized transformation-based enumeration: exact Pareto dynamic
    /// programming over literal subsets (DESIGN.md §17).
    ///
    /// **Memo key** = (subset mask, fold-tail). The bound-variable set
    /// after any *finite*-cost prefix is determined by the subset alone
    /// (atoms and `member` bind all their variables; an EC builtin ends
    /// with all of its variables bound — comparisons require them,
    /// equalities bind the single unknown; negation requires them), and
    /// every per-literal cost/cardinality step of [`walk_cost`] is
    /// nondecreasing in the entry cardinality, so two prefixes with the
    /// same key compare exactly by `(cost, card)` dominance: a
    /// dominated prefix cannot complete into a strictly cheaper plan.
    /// The fold-tail — the trailing `[base atom, comparison…]` run — is
    /// the one piece of arrangement the subset does not capture: a
    /// comparison appended behind such a run can fold into the atom's
    /// range probe ([`range_demand`] scans the run), repricing the
    /// prefix. The tail collapses to empty as soon as no fold-eligible
    /// comparison remains unplaced (or no catalog is attached), so
    /// pure-atom rules stay at exactly 2ⁿ states.
    ///
    /// Per key the frontier keeps every `(cost, card)`-minimal prefix;
    /// the minimum over full-mask frontiers is provably the exhaustive
    /// minimum — the brute-force oracle test pins this at n ≤ 6.
    /// Extensions walked are counted in [`OptStats::explored_plans`],
    /// dominance-pruned candidates in [`OptStats::enum_memo_hits`].
    fn search_memo(&self, rule: &Rule, head_ad: Adornment, salt: u64) -> (Vec<usize>, f64, f64) {
        let n = rule.body.len();
        if n > 22 {
            // 2^n states stop being "polynomial practice"; the anneal
            // is the honest fallback out there.
            return self.search_anneal(rule, head_ad, salt);
        }
        let member = Pred::new("member", 2);
        let fold_op = |li: usize| {
            matches!(&rule.body[li], Literal::Builtin(b) if matches!(
                b.op,
                ldl_core::CmpOp::Lt | ldl_core::CmpOp::Le | ldl_core::CmpOp::Gt | ldl_core::CmpOp::Ge
            ))
        };
        let fold_mask: u64 = (0..n)
            .filter(|&li| fold_op(li))
            .fold(0, |m, li| m | (1 << li));
        let folding = self.index_catalog.is_some() && fold_mask != 0;
        let tail_anchor = |li: usize| {
            matches!(&rule.body[li], Literal::Atom(a)
                if !a.negated && a.pred != member && !self.derived.contains(&a.pred))
        };
        type Frontier = Vec<(f64, f64, Vec<usize>)>;
        let mut memo: BTreeMap<(u64, Vec<usize>), Frontier> = BTreeMap::new();
        memo.insert((0, Vec::new()), vec![(0.0, 1.0, Vec::new())]);
        let full: u64 = (1u64 << n) - 1;
        for mask in 0..full {
            let states: Vec<(Vec<usize>, Frontier)> = memo
                .range((mask, Vec::new())..(mask + 1, Vec::new()))
                .map(|((_, tail), f)| (tail.clone(), f.clone()))
                .collect();
            for (tail, frontier) in states {
                for (_, _, order) in &frontier {
                    for li in 0..n {
                        if mask & (1 << li) != 0 {
                            continue;
                        }
                        let mut next = order.clone();
                        next.push(li);
                        self.stats.borrow_mut().explored_plans += 1;
                        let (c, k) = self.prefix_cost(rule, head_ad, &next);
                        if !c.is_finite() {
                            continue;
                        }
                        let nmask = mask | (1 << li);
                        let mut ntail: Vec<usize> = if !folding {
                            Vec::new()
                        } else if tail_anchor(li) {
                            vec![li]
                        } else if fold_op(li) && !tail.is_empty() {
                            let mut t = tail.clone();
                            t.push(li);
                            t
                        } else {
                            Vec::new()
                        };
                        if fold_mask & !nmask == 0 {
                            // No fold-eligible comparison left to place:
                            // the arrangement can no longer matter.
                            ntail.clear();
                        }
                        let slot = memo.entry((nmask, ntail)).or_default();
                        if slot.iter().any(|&(ec, ek, _)| ec <= c && ek <= k) {
                            self.stats.borrow_mut().enum_memo_hits += 1;
                            continue;
                        }
                        slot.retain(|&(ec, ek, _)| !(c <= ec && k <= ek));
                        let pos =
                            slot.partition_point(|&(ec, ek, _)| ec < c || (ec == c && ek < k));
                        slot.insert(pos, (c, k, next));
                    }
                }
            }
        }
        let mut best: Option<(f64, f64, Vec<usize>)> = None;
        for ((m, _), frontier) in memo.range((full, Vec::new())..) {
            debug_assert_eq!(*m, full);
            for (_, _, order) in frontier {
                let (c, f) = self.order_cost(rule, head_ad, order);
                match &best {
                    Some((bc, _, _)) if *bc <= c => {}
                    _ => best = Some((c, f, order.clone())),
                }
            }
        }
        match best {
            Some((c, f, order)) => (order, c, f),
            None => ((0..n).collect(), INFINITE_COST, INFINITE_COST),
        }
    }

    fn search_anneal(&self, rule: &Rule, head_ad: Adornment, salt: u64) -> (Vec<usize>, f64, f64) {
        let n = rule.body.len();
        let initial: Vec<usize> =
            safety::find_safe_order(rule, head_ad).unwrap_or_else(|| (0..n).collect());
        let (order, cost, _) = anneal_generic(
            initial,
            |o, rng| {
                let mut o = o.clone();
                if n >= 2 {
                    let i = rng.gen_range(0..n);
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    o.swap(i, j);
                }
                o
            },
            |o| self.order_cost(rule, head_ad, o).0,
            &self.cfg.anneal,
            self.cfg.seed ^ salt,
        );
        let (c, f) = self.order_cost(rule, head_ad, &order);
        debug_assert_eq!(c, cost);
        (order, c, f)
    }

    // ------------------------------------------------------------------
    // CC nodes: clique optimization (OPT Fig. 7-2 step 3).
    // ------------------------------------------------------------------

    fn optimize_clique(&self, cid: usize, pred: Pred, ad: Adornment) -> PredPlan {
        let clique = self.graph.cliques()[cid].clone();

        // Install a neutral provisional size first so that the size
        // estimation itself (which walks the recursive rules) does not
        // re-enter clique optimization, then refine the overlay with the
        // real estimate.
        for &p in &clique.preds {
            self.overlay.borrow_mut().insert(p, 1_000.0);
        }
        let full_size = self.estimate_clique_size(&clique);
        for &p in &clique.preds {
            self.overlay.borrow_mut().insert(p, full_size);
        }

        let result = self.search_cpermutations(&clique, pred, ad, full_size);

        for &p in &clique.preds {
            self.overlay.borrow_mut().remove(&p);
        }
        result
    }

    /// Rough unrestricted-size estimate for a clique: exit-rule output
    /// plus recursive per-round growth, amplified by the assumed
    /// fixpoint depth, capped.
    fn estimate_clique_size(&self, clique: &Clique) -> f64 {
        let p = self.model.params().clone();
        // Seed overlay with a neutral guess so recursive literals don't
        // recurse while we estimate.
        let mut exit_total = 0.0f64;
        for &ri in &clique.exit_rules {
            let rule = &self.program.rules[ri];
            let ad = Adornment::all_free(rule.head.pred.arity);
            let order = GreedySip.permutation(ri, rule, ad);
            let (_, fanout) = self.order_cost(rule, ad, &order);
            if fanout.is_finite() {
                exit_total += fanout;
            }
        }
        // Facts asserted directly on clique predicates count as exits.
        for &cp in &clique.preds {
            if let Some(rel) = self.db.relation(cp) {
                exit_total += rel.len() as f64;
            }
        }
        let mut growth = 0.0f64;
        for &ri in &clique.recursive_rules {
            let rule = &self.program.rules[ri];
            let ad = Adornment::all_free(rule.head.pred.arity);
            let order = GreedySip.permutation(ri, rule, ad);
            let (_, fanout) = self.order_cost(rule, ad, &order);
            if fanout.is_finite() {
                growth += fanout;
            }
        }
        let guess = (exit_total + growth) * p.fixpoint_depth;
        // The interpreter's value-flow bound is a provable upper bound
        // on the clique's distinct tuples, so capping the growth guess
        // by it can only move the estimate toward the truth (and leaves
        // it untouched when the heuristic is already below the bound).
        let cap = self.estimates.as_ref().and_then(|est| {
            clique
                .preds
                .iter()
                .filter_map(|&cp| est.clique_size(cp))
                .fold(None, |acc: Option<f64>, sz| {
                    Some(acc.map_or(sz, |a| a.max(sz)))
                })
        });
        let guess = match cap {
            Some(bound) => guess.min(bound),
            None => guess,
        };
        guess.clamp(1.0, p.cardinality_cap)
    }

    fn search_cpermutations(
        &self,
        clique: &Clique,
        pred: Pred,
        ad: Adornment,
        full_size: f64,
    ) -> PredPlan {
        let rec_rules: Vec<usize> = clique.recursive_rules.clone();
        let (best_cperm, (best_cost, best_method, best_costs)) = match self.cfg.clique_search {
            CliqueSearch::Fixpoint => {
                self.search_cperm_fixpoint(clique, pred, ad, full_size, &rec_rules)
            }
            CliqueSearch::Sweep => self.search_cperm_sweep(clique, pred, ad, full_size, &rec_rules),
        };

        let sips: BTreeMap<usize, Vec<usize>> = rec_rules.iter().copied().zip(best_cperm).collect();
        let fanout = {
            let d = self.model.derived_distinct(full_size);
            let mut f = full_size;
            for _ in 0..ad.bound_count() {
                f /= d.max(1.0);
            }
            f.max(1e-6)
        };
        let cost = if best_cost.is_finite() {
            PlanCost {
                setup: best_cost,
                probe: fanout.max(1.0),
                fanout,
                stats: Stats::uniform(
                    full_size,
                    pred.arity,
                    self.model.derived_distinct(full_size),
                ),
            }
        } else {
            PlanCost::unsafe_plan(pred.arity)
        };
        PredPlan {
            pred,
            adornment: ad,
            cost,
            kind: PredPlanKind::Clique {
                method: best_method,
                sips,
                full_size,
                method_costs: best_costs,
            },
        }
    }

    /// [`CliqueSearch::Fixpoint`]: iterative co-adornment. Starting
    /// from the identity c-permutation, each round adorns the clique
    /// under the current orders, asks the rule-level enumerator for the
    /// best order of every adorned variant, and replaces a rule's order
    /// with the candidate minimizing the summed per-variant body cost.
    /// A changed proposal is accepted only when the full c-permutation
    /// costing strictly improves — so the rounds walk a strictly
    /// decreasing cost sequence over the finite c-permutation space and
    /// must terminate; [`CLIQUE_FIXPOINT_MAX_ROUNDS`] caps them anyway.
    /// An unsafe outcome (no finite cost found locally) falls back to
    /// the sweep when the space is small enough to afford it: some
    /// cliques have exactly one safe c-permutation that local proposals
    /// never reach.
    fn search_cperm_fixpoint(
        &self,
        clique: &Clique,
        pred: Pred,
        ad: Adornment,
        full_size: f64,
        rec_rules: &[usize],
    ) -> (Vec<Vec<usize>>, CpermCost) {
        let evaluate = |cperm: &[Vec<usize>]| -> CpermCost {
            self.stats.borrow_mut().cpermutations_probed += 1;
            self.evaluate_cpermutation(clique, pred, ad, full_size, rec_rules, cperm)
        };
        let mut cur: Vec<Vec<usize>> = rec_rules
            .iter()
            .map(|&ri| (0..self.program.rules[ri].body.len()).collect())
            .collect();
        let mut cur_cost = evaluate(&cur);
        for _round in 0..CLIQUE_FIXPOINT_MAX_ROUNDS {
            let mut sip = FixedSip::new();
            for (k, &ri) in rec_rules.iter().enumerate() {
                sip.set(ri, cur[k].clone());
            }
            let adorned = adorn_program(self.program, pred, ad, &sip);
            let mut proposal = cur.clone();
            for (k, &ri) in rec_rules.iter().enumerate() {
                let rule = &self.program.rules[ri];
                let ads: Vec<Adornment> = adorned
                    .rules
                    .iter()
                    .filter(|ar| ar.rule_index == ri && clique.preds.contains(&ar.head.pred))
                    .map(|ar| ar.head.adornment)
                    .collect();
                if ads.is_empty() {
                    continue;
                }
                // Candidates: the incumbent, plus the enumerator's
                // winner for each adorned variant of this rule. One
                // rule serving several variants keeps a single order —
                // the one minimizing the summed per-variant cost.
                let mut cands: Vec<Vec<usize>> = vec![cur[k].clone()];
                for &had in &ads {
                    let rp = self.optimize_rule(ri, rule, had);
                    if rp.cost.is_finite() && !cands.contains(&rp.order) {
                        cands.push(rp.order);
                    }
                }
                let score = |o: &[usize]| -> f64 {
                    ads.iter().map(|&had| self.order_cost(rule, had, o).0).sum()
                };
                let mut best = (score(&cands[0]), 0usize);
                for (ci, cand) in cands.iter().enumerate().skip(1) {
                    let s = score(cand);
                    if s < best.0 {
                        best = (s, ci);
                    }
                }
                proposal[k] = cands[best.1].clone();
            }
            if proposal == cur {
                break; // stable: re-adorning reproduces the orders
            }
            let prop_cost = evaluate(&proposal);
            if prop_cost.0 < cur_cost.0 {
                cur = proposal;
                cur_cost = prop_cost;
            } else {
                break; // no strict improvement: keep the incumbent
            }
        }
        if !cur_cost.0.is_finite() {
            let total: f64 = rec_rules
                .iter()
                .map(|&ri| factorial(self.program.rules[ri].body.len()))
                .product();
            if total <= self.cfg.max_cpermutations as f64 {
                return self.search_cperm_sweep(clique, pred, ad, full_size, rec_rules);
            }
        }
        (cur, cur_cost)
    }

    /// [`CliqueSearch::Sweep`]: the brute search the fixpoint replaced
    /// as the default — exhaustive below `max_cpermutations`, annealing
    /// above.
    fn search_cperm_sweep(
        &self,
        clique: &Clique,
        pred: Pred,
        ad: Adornment,
        full_size: f64,
        rec_rules: &[usize],
    ) -> (Vec<Vec<usize>>, CpermCost) {
        let body_lens: Vec<usize> = rec_rules
            .iter()
            .map(|&ri| self.program.rules[ri].body.len())
            .collect();
        let total: f64 = body_lens.iter().map(|&n| factorial(n)).product();

        let evaluate = |cperm: &[Vec<usize>]| -> CpermCost {
            self.stats.borrow_mut().cpermutations_probed += 1;
            self.evaluate_cpermutation(clique, pred, ad, full_size, rec_rules, cperm)
        };

        let identity: Vec<Vec<usize>> = body_lens.iter().map(|&n| (0..n).collect()).collect();

        if total <= self.cfg.max_cpermutations as f64 {
            // Exhaustive cross-product of per-rule permutations.
            let mut best: Option<(Vec<Vec<usize>>, CpermCost)> = None;
            let all_perms: Vec<Vec<Vec<usize>>> =
                body_lens.iter().map(|&n| all_permutations(n)).collect();
            let mut idx = vec![0usize; rec_rules.len()];
            loop {
                let cperm: Vec<Vec<usize>> = idx
                    .iter()
                    .enumerate()
                    .map(|(r, &i)| all_perms[r][i].clone())
                    .collect();
                let (cost, method, costs) = evaluate(&cperm);
                let better = best
                    .as_ref()
                    .map(|(_, (bc, _, _))| cost < *bc)
                    .unwrap_or(true);
                if better {
                    best = Some((cperm, (cost, method, costs)));
                }
                // Advance the mixed-radix counter.
                let mut k = 0;
                loop {
                    if k == idx.len() {
                        break;
                    }
                    idx[k] += 1;
                    if idx[k] < all_perms[k].len() {
                        break;
                    }
                    idx[k] = 0;
                    k += 1;
                }
                if k == idx.len() {
                    break;
                }
            }
            best.expect("at least the identity c-permutation")
        } else {
            // Simulated annealing over c-permutations: the neighbor
            // relation of §7.3 — swap two literals in ONE rule's
            // permutation.
            let cache = RefCell::new(HashMap::<Vec<Vec<usize>>, CpermCost>::new());
            let eval_cached = |cp: &Vec<Vec<usize>>| -> CpermCost {
                if let Some(hit) = cache.borrow().get(cp) {
                    return hit.clone();
                }
                let r = evaluate(cp);
                cache.borrow_mut().insert(cp.clone(), r.clone());
                r
            };
            let (best, cost, _) = anneal_generic(
                identity.clone(),
                |cp, rng| {
                    let mut cp = cp.clone();
                    let candidates: Vec<usize> = cp
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.len() >= 2)
                        .map(|(i, _)| i)
                        .collect();
                    if let Some(&r) = candidates.get(
                        rng.gen_range(0..candidates.len().max(1))
                            .min(candidates.len().saturating_sub(1)),
                    ) {
                        let n = cp[r].len();
                        let i = rng.gen_range(0..n);
                        let mut j = rng.gen_range(0..n - 1);
                        if j >= i {
                            j += 1;
                        }
                        cp[r].swap(i, j);
                    }
                    cp
                },
                |cp| eval_cached(cp).0,
                &self.cfg.anneal,
                self.cfg.seed,
            );
            let (c, m, costs) = eval_cached(&best);
            debug_assert_eq!(c, cost);
            (best, (c, m, costs))
        }
    }

    /// Costs one c-permutation: adorn under the SIP it implies, check
    /// safety of every adorned clique rule, then price every applicable
    /// recursive method and return the cheapest.
    fn evaluate_cpermutation(
        &self,
        clique: &Clique,
        pred: Pred,
        ad: Adornment,
        full_size: f64,
        rec_rules: &[usize],
        cperm: &[Vec<usize>],
    ) -> CpermCost {
        let p = self.model.params().clone();
        let mut sip = FixedSip::new();
        for (k, &ri) in rec_rules.iter().enumerate() {
            sip.set(ri, cperm[k].clone());
        }
        // Exit rules keep greedy orders via the FixedSip fallback.
        let adorned = adorn_program(self.program, pred, ad, &sip);

        // Per-round cost: sum of adorned clique rules' body costs (per
        // binding tuple), with EC safety enforced by order_cost. Also
        // determine counting-eligibility with the same definition the
        // rewriting uses: at most one positive derived literal per rule
        // (a non-clique derived literal forks the depth counter too).
        let mut per_round = 0.0f64;
        let mut any_rule = false;
        let mut counting_linear = true;
        for ar in &adorned.rules {
            if !clique.preds.contains(&ar.head.pred) {
                continue;
            }
            let derived_lits = ar.body.iter().filter(|(_, ad)| ad.is_some()).count();
            if derived_lits > 1 {
                counting_linear = false;
            }
            any_rule = true;
            let rule = &self.program.rules[ar.rule_index];
            let (c, _) = self.order_cost(rule, ar.head.adornment, &ar.permutation);
            if !c.is_finite() {
                return (
                    INFINITE_COST,
                    Method::SemiNaive,
                    Method::ALL.iter().map(|&m| (m, INFINITE_COST)).collect(),
                );
            }
            per_round += c;
        }
        if !any_rule {
            // Degenerate (no reachable rules): treat as empty clique.
            per_round = 1.0;
        }

        // Method applicability + termination.
        let linear = clique.is_linear(self.program) && counting_linear;
        let bound_query = ad.bound_count() > 0;
        let d = self.model.derived_distinct(full_size);
        let rho = if bound_query {
            (p.magic_reach * (1.0 / d.max(1.0)).powi(ad.bound_count() as i32)).min(1.0)
        } else {
            1.0
        };

        let mut method_costs: Vec<(Method, f64)> = Vec::new();
        for &m in &self.cfg.methods {
            let propagates = matches!(m, Method::Magic | Method::Counting);
            let terminates = safety::clique_terminates(
                self.program,
                clique,
                ad,
                propagates,
                self.cfg.assume_acyclic,
            )
            .is_ok();
            let cost = if !terminates {
                INFINITE_COST
            } else {
                match m {
                    Method::Naive => full_size * per_round * p.fixpoint_depth,
                    Method::SemiNaive => full_size * per_round,
                    Method::Magic => {
                        // Magic narrows work to the reachable fraction but
                        // pays the rewriting overhead (extra magic rules).
                        full_size * rho * per_round * 1.2 + 1.0
                    }
                    Method::Counting => {
                        if linear && self.cfg.assume_acyclic {
                            // Counting's advantage over magic (no answer/
                            // binding re-join) only exists when there IS a
                            // binding to propagate; an all-free counting
                            // run just adds depth-indexed copies.
                            let factor = if bound_query {
                                p.counting_advantage
                            } else {
                                1.1
                            };
                            (full_size * rho * per_round * 1.2 + 1.0) * factor
                        } else {
                            INFINITE_COST
                        }
                    }
                }
            };
            method_costs.push((m, cost));
        }
        let (best_method, best_cost) = method_costs
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("costs are comparable"))
            .unwrap_or((Method::SemiNaive, INFINITE_COST));
        (best_cost, best_method, method_costs)
    }
}

/// Outcome of costing one c-permutation: (best cost, best method,
/// per-method costs).
type CpermCost = (f64, Method, Vec<(Method, f64)>);

fn factorial(n: usize) -> f64 {
    (1..=n).map(|i| i as f64).product()
}

fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut perm: Vec<usize> = (0..n).collect();
    fn rec(perm: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == perm.len() {
            out.push(perm.clone());
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            rec(perm, k + 1, out);
            perm.swap(k, i);
        }
    }
    if n == 0 {
        return vec![vec![]];
    }
    rec(&mut perm, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldl_core::parser::{parse_program, parse_query};

    fn optimize(text: &str, q: &str) -> Result<OptimizedQuery> {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::with_defaults(&program, &db);
        opt.optimize(&parse_query(q).unwrap())
    }

    fn optimize_cfg(text: &str, q: &str, cfg: OptConfig) -> Result<OptimizedQuery> {
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::new(&program, &db, cfg);
        opt.optimize(&parse_query(q).unwrap())
    }

    const SG: &str = r#"
        up(1, 10). up(2, 10). up(3, 20).
        flat(10, 10). flat(20, 20).
        dn(10, 1). dn(10, 2). dn(20, 3).
        sg(X, Y) <- flat(X, Y).
        sg(X, Y) <- up(X, X1), sg(Y1, X1), dn(Y1, Y).
    "#;

    #[test]
    fn sg_bound_query_chooses_binding_propagation() {
        let o = optimize(SG, "sg(1, Y)?").unwrap();
        assert!(matches!(o.method, Method::Magic | Method::Counting));
        assert!(o.cost.is_finite());
    }

    /// The index-aware optimizer agrees with the default on the chosen
    /// method and produces identical answers; its base-access pricing
    /// reflects the catalog (a served bound set probes an ordered index
    /// with zero setup, everything stays finite).
    #[test]
    fn index_catalog_hook_prices_and_executes() {
        let program = parse_program(SG).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("sg(1, Y)?").unwrap();
        let plain = Optimizer::with_defaults(&program, &db)
            .optimize(&query)
            .unwrap();
        let opt = Optimizer::with_defaults(&program, &db).with_selected_indexes();
        let indexed = opt.optimize(&query).unwrap();
        assert!(indexed.cost.is_finite());
        assert_eq!(indexed.method, plain.method);
        let cfg = FixpointConfig::default();
        let a = plain.execute(&program, &db, &cfg).unwrap();
        let b = indexed.execute(&program, &db, &cfg).unwrap();
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.metrics, b.metrics);
        // Catalog-served base accesses pay no per-plan setup: the dn
        // predicate is probed on column 0 in the recursive rule.
        let dn = opt.optimize_pred(Pred::new("dn", 2), Adornment::parse("bf").unwrap());
        assert_eq!(dn.cost.setup, 0.0);
    }

    /// A base atom followed by a bound comparison the catalog serves is
    /// priced as one `AccessPath::Range` probe — strictly cheaper than
    /// the catalog-less scan-then-filter pricing of the same order.
    #[test]
    fn range_demand_is_priced_as_a_range_probe() {
        let text = "big(X) <- n(X), X > 5, X < 90.";
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        db.set_stats(Pred::new("n", 1), Stats::uniform(10_000.0, 1, 10_000.0));
        let ad = Adornment::all_free(1);
        let plain = Optimizer::with_defaults(&program, &db);
        let (scan_cost, _) = plain.order_cost(&program.rules[0], ad, &[0, 1, 2]);
        let indexed = Optimizer::with_defaults(&program, &db).with_selected_indexes();
        let (range_cost, _) = indexed.order_cost(&program.rules[0], ad, &[0, 1, 2]);
        assert!(range_cost.is_finite());
        assert!(
            range_cost < scan_cost,
            "range probe {range_cost} must beat scan-then-filter {scan_cost}"
        );
    }

    /// The range-priced plan still executes to the same answers as the
    /// plain one — pricing never changes semantics.
    #[test]
    fn range_priced_plan_executes_identically() {
        let text = "n(4). n(9). n(1). n(7). n(2). n(8).\n\
                    big(X) <- n(X), X > 2, X <= 7.";
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let query = parse_query("big(A)?").unwrap();
        let plain = Optimizer::with_defaults(&program, &db)
            .optimize(&query)
            .unwrap();
        let indexed = Optimizer::with_defaults(&program, &db)
            .with_selected_indexes()
            .optimize(&query)
            .unwrap();
        assert!(indexed.cost.is_finite());
        let cfg = FixpointConfig::default();
        let a = plain.execute(&program, &db, &cfg).unwrap();
        let b = indexed.execute(&program, &db, &cfg).unwrap();
        assert_eq!(a.tuples, b.tuples);
    }

    #[test]
    fn sg_free_query_does_not_choose_counting() {
        let o = optimize(SG, "sg(X, Y)?").unwrap();
        assert!(
            matches!(o.method, Method::SemiNaive | Method::Magic),
            "free query must not pick counting, got {:?}",
            o.method
        );
    }

    #[test]
    fn counting_chosen_when_acyclic_assumed() {
        let cfg = OptConfig {
            assume_acyclic: true,
            ..OptConfig::default()
        };
        let o = optimize_cfg(SG, "sg(1, Y)?", cfg).unwrap();
        assert_eq!(o.method, Method::Counting);
    }

    #[test]
    fn free_query_avoids_counting_even_when_acyclic() {
        let cfg = OptConfig {
            assume_acyclic: true,
            ..OptConfig::default()
        };
        let o = optimize_cfg(SG, "sg(X, Y)?", cfg).unwrap();
        assert_eq!(
            o.method,
            Method::SemiNaive,
            "an all-free query has no binding to propagate"
        );
    }

    #[test]
    fn nonrecursive_rule_order_prefers_selective_first() {
        // `big` has 10_000 synthetic tuples, `small` has 10; with X bound
        // through the query, starting from `small` is cheaper.
        let text = r#"
            q(X, Z) <- big(X, Y), small(Y, Z).
        "#;
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        db.set_stats(Pred::new("big", 2), Stats::uniform(10_000.0, 2, 1000.0));
        db.set_stats(Pred::new("small", 2), Stats::uniform(10.0, 2, 10.0));
        let opt = Optimizer::with_defaults(&program, &db);
        let o = opt.optimize(&parse_query("q(X, Z)?").unwrap()).unwrap();
        match &o.plan.kind {
            PredPlanKind::Union(rules) => {
                assert_eq!(
                    rules[0].order,
                    vec![1, 0],
                    "small relation should be scanned first"
                );
            }
            other => panic!("expected union plan, got {other:?}"),
        }
    }

    #[test]
    fn query_forms_get_distinct_plans() {
        let text = r#"
            q(X, Z) <- a(X, Y), b(Y, Z).
        "#;
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        db.set_stats(Pred::new("a", 2), Stats::uniform(1000.0, 2, 100.0));
        db.set_stats(Pred::new("b", 2), Stats::uniform(1000.0, 2, 100.0));
        let opt = Optimizer::with_defaults(&program, &db);
        let bf = opt.optimize(&parse_query("q(1, Z)?").unwrap()).unwrap();
        let fb = opt.optimize(&parse_query("q(X, 1)?").unwrap()).unwrap();
        let get_order = |o: &OptimizedQuery| match &o.plan.kind {
            PredPlanKind::Union(rules) => rules[0].order.clone(),
            _ => panic!(),
        };
        assert_eq!(get_order(&bf), vec![0, 1], "bound X: start from a");
        assert_eq!(get_order(&fb), vec![1, 0], "bound Z: start from b");
        assert!(bf.cost.is_finite() && fb.cost.is_finite());
    }

    #[test]
    fn builtins_are_ordered_safely() {
        let o = optimize(
            "n(1). n(2). n(3).\nbig(Y, X) <- Y = X * 10, n(X).",
            "big(A, B)?",
        )
        .unwrap();
        match &o.plan.kind {
            PredPlanKind::Union(rules) => {
                assert_eq!(rules[0].order, vec![1, 0], "n(X) must precede Y = X * 10");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unsafe_query_reported() {
        // y never bound: the paper's §8.3 example.
        let r = optimize("p(X, Y, Z) <- X = 3, Z = X + Y.", "p(A, B, C)?");
        assert!(matches!(r, Err(LdlError::Unsafe(_))), "got {r:?}");
    }

    #[test]
    fn bound_form_of_unsafe_query_is_safe() {
        let r = optimize("p(X, Y, Z) <- X = 3, Z = X + Y.", "p(A, 7, C)?");
        assert!(r.is_ok());
    }

    #[test]
    fn arithmetic_recursion_unsafe_without_bound() {
        let r = optimize(
            "zero(0).\ncnt(X) <- zero(X).\ncnt(Y) <- cnt(X), Y = X + 1.",
            "cnt(N)?",
        );
        assert!(matches!(r, Err(LdlError::Unsafe(_))));
    }

    #[test]
    fn list_length_safe_only_when_bound() {
        let text = "len([], 0).\nlen([H | T], N) <- len(T, M), N = M + 1.";
        let free = optimize(text, "len(L, N)?");
        assert!(
            matches!(free, Err(LdlError::Unsafe(_))),
            "free form must be unsafe"
        );
        let bound = optimize(text, "len([1, 2, 3], N)?");
        let bound = bound.unwrap();
        assert!(matches!(bound.method, Method::Magic | Method::Counting));
    }

    #[test]
    fn memoization_counts_subtrees_once_per_binding() {
        // shared(X) is referenced twice with the same binding: one
        // optimization, one memo hit.
        let text = r#"
            top(X) <- shared(X), also(X).
            also(X) <- shared(X).
            shared(X) <- base(X).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::new();
        let opt = Optimizer::with_defaults(&program, &db);
        opt.optimize(&parse_query("top(Z)?").unwrap()).unwrap();
        let stats = opt.stats();
        assert!(stats.memo_hits >= 1, "expected memo hits, got {stats:?}");
    }

    #[test]
    fn memo_ablation_does_more_work() {
        let text = r#"
            top(X) <- s(X), t(X), u(X).
            s(X) <- shared(X).
            t(X) <- shared(X).
            u(X) <- shared(X).
            shared(X) <- base(X), other(X).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::new();
        let with = Optimizer::with_defaults(&program, &db);
        with.optimize(&parse_query("top(Z)?").unwrap()).unwrap();
        let without = Optimizer::new(
            &program,
            &db,
            OptConfig {
                memo_enabled: false,
                ..OptConfig::default()
            },
        );
        without.optimize(&parse_query("top(Z)?").unwrap()).unwrap();
        assert!(
            without.stats().subtree_optimizations > with.stats().subtree_optimizations,
            "without memo {:?} vs with {:?}",
            without.stats(),
            with.stats()
        );
    }

    #[test]
    fn executes_optimized_plan_correctly() {
        let program = parse_program(SG).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::with_defaults(&program, &db);
        let query = parse_query("sg(1, Y)?").unwrap();
        let o = opt.optimize(&query).unwrap();
        let ans = o
            .execute(&program, &db, &FixpointConfig::default())
            .unwrap();
        // Reference: plain semi-naive.
        let reference = ldl_eval::evaluate_query(
            &program,
            &db,
            &query,
            Method::SemiNaive,
            &FixpointConfig::default(),
        )
        .unwrap();
        assert_eq!(ans.tuples, reference.tuples);
    }

    #[test]
    fn strategies_agree_on_small_rules() {
        let text = r#"
            q(W) <- a(W, X), b(X, Y), c(Y, Z), d(Z, W).
        "#;
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        for (n, card) in [("a", 100.0), ("b", 10000.0), ("c", 10.0), ("d", 1000.0)] {
            db.set_stats(Pred::new(n, 2), Stats::uniform(card, 2, card / 10.0));
        }
        let query = parse_query("q(1)?").unwrap();
        let mut costs = Vec::new();
        for s in [Strategy::Exhaustive, Strategy::DynamicProgramming] {
            let opt = Optimizer::new(
                &program,
                &db,
                OptConfig {
                    strategy: s,
                    ..OptConfig::default()
                },
            );
            let o = opt.optimize(&query).unwrap();
            costs.push(o.cost);
        }
        assert!(
            (costs[0] - costs[1]).abs() <= 1e-6 * costs[0].max(1.0),
            "exhaustive {} vs dp {}",
            costs[0],
            costs[1]
        );
    }

    #[test]
    fn kbz_strategy_produces_sound_competitive_plans() {
        let text = r#"
            q(W) <- a(W, X), b(X, Y), c(Y, Z), d(Z, V).
        "#;
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        for (n, card) in [("a", 100.0), ("b", 50_000.0), ("c", 20.0), ("d", 3_000.0)] {
            db.set_stats(Pred::new(n, 2), Stats::uniform(card, 2, card / 5.0));
        }
        let query = parse_query("q(1)?").unwrap();
        let dp = Optimizer::new(
            &program,
            &db,
            OptConfig {
                strategy: Strategy::DynamicProgramming,
                ..OptConfig::default()
            },
        )
        .optimize(&query)
        .unwrap();
        let kbz = Optimizer::new(
            &program,
            &db,
            OptConfig {
                strategy: Strategy::Kbz,
                ..OptConfig::default()
            },
        )
        .optimize(&query)
        .unwrap();
        assert!(kbz.cost.is_finite());
        // The chain query is acyclic: KBZ's pick should be close to DP's
        // exact optimum under the same cost walk.
        assert!(
            kbz.cost <= dp.cost * 3.0,
            "kbz {} vs dp {} — too far from optimal on a chain",
            kbz.cost,
            dp.cost
        );
    }

    #[test]
    fn kbz_strategy_falls_back_on_builtins() {
        // Builtins make the ASI abstraction inapplicable: must still
        // produce a safe plan (via the DP fallback).
        let o = optimize_cfg(
            "n(1). n(2).\nbig(X, Y) <- Y = X * 10, n(X).",
            "big(A, B)?",
            OptConfig {
                strategy: Strategy::Kbz,
                ..OptConfig::default()
            },
        )
        .unwrap();
        assert!(o.cost.is_finite());
        match &o.plan.kind {
            PredPlanKind::Union(rules) => assert_eq!(rules[0].order, vec![1, 0]),
            _ => panic!(),
        }
    }

    #[test]
    fn annealing_strategy_returns_safe_finite_plan() {
        let text = r#"
            q(W) <- a(W, X), b(X, Y), Y > 0, c(Y, Z).
        "#;
        let program = parse_program(text).unwrap();
        let mut db = Database::new();
        for n in ["a", "b", "c"] {
            db.set_stats(Pred::new(n, 2), Stats::uniform(100.0, 2, 50.0));
        }
        let opt = Optimizer::new(
            &program,
            &db,
            OptConfig {
                strategy: Strategy::Annealing,
                ..OptConfig::default()
            },
        );
        let o = opt.optimize(&parse_query("q(1)?").unwrap()).unwrap();
        assert!(o.cost.is_finite());
    }

    #[test]
    fn clique_plan_reports_method_costs() {
        let o = optimize(SG, "sg(1, Y)?").unwrap();
        match &o.plan.kind {
            PredPlanKind::Clique { method_costs, .. } => {
                assert_eq!(method_costs.len(), Method::ALL.len());
                let naive = method_costs
                    .iter()
                    .find(|(m, _)| *m == Method::Naive)
                    .unwrap()
                    .1;
                let semi = method_costs
                    .iter()
                    .find(|(m, _)| *m == Method::SemiNaive)
                    .unwrap()
                    .1;
                let magic = method_costs
                    .iter()
                    .find(|(m, _)| *m == Method::Magic)
                    .unwrap()
                    .1;
                assert!(
                    naive > semi,
                    "naive {naive} must cost more than semi-naive {semi}"
                );
                assert!(
                    magic < semi,
                    "magic {magic} must beat semi-naive {semi} when bound"
                );
            }
            other => panic!("expected clique plan, got {other:?}"),
        }
    }

    #[test]
    fn counting_plan_falls_back_to_magic_on_cyclic_data() {
        // The optimizer is told to assume acyclic data and picks
        // counting — but the data has a cycle. Execution must detect the
        // divergence and fall back to magic, still returning the right
        // answers.
        let text = r#"
            e(1, 2). e(2, 3). e(3, 1).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), tc(Z, Y).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::new(
            &program,
            &db,
            OptConfig {
                assume_acyclic: true,
                ..OptConfig::default()
            },
        );
        let query = parse_query("tc(1, Y)?").unwrap();
        let plan = opt.optimize(&query).unwrap();
        assert_eq!(plan.method, Method::Counting);
        let cfg = FixpointConfig::with_max_iterations(100);
        let ans = plan.execute(&program, &db, &cfg).unwrap();
        assert_eq!(ans.tuples.len(), 3); // 1->1, 1->2, 1->3
    }

    #[test]
    fn counting_plan_reports_a_type_error_without_retrying() {
        // `tom > 0` is a type error, not divergence: the counting plan
        // must surface it as is. The magic fallback would hit the same
        // comparison and fail the same way, so the tell is the work
        // done — exactly one counting evaluation's worth of rows.
        let text = r#"
            e(1, 2). e(2, tom).
            tc(X, Y) <- e(X, Y).
            tc(X, Y) <- e(X, Z), Z > 0, tc(Z, Y).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::new(
            &program,
            &db,
            OptConfig {
                assume_acyclic: true,
                ..OptConfig::default()
            },
        );
        let query = parse_query("tc(1, Y)?").unwrap();
        let plan = opt.optimize(&query).unwrap();
        assert_eq!(plan.method, Method::Counting);
        let cfg = FixpointConfig::serial();
        let (executed, work) =
            ldl_storage::IndexCounters::scoped(|| plan.execute(&program, &db, &cfg));
        let (direct, one_run) = ldl_storage::IndexCounters::scoped(|| {
            evaluate_query_sip(&program, &db, &query, Method::Counting, &cfg, &plan.sip())
        });
        assert!(matches!(executed, Err(LdlError::Eval(_))), "{executed:?}");
        assert_eq!(executed.unwrap_err(), direct.unwrap_err());
        assert!(one_run.rows_enumerated > 0);
        assert_eq!(work.rows_enumerated, one_run.rows_enumerated);
    }

    #[test]
    fn list_reverse_plans_and_executes() {
        // Regression: rev's recursive rule calls the DERIVED app/3, which
        // must not count as a termination "driver" for naive/semi-naive,
        // and makes the clique ineligible for counting (two derived
        // literals). The optimizer must land on magic and execute.
        let text = r#"
            app([], L, L).
            app([H | T], L, [H | R]) <- app(T, L, R).
            rev([], []).
            rev([H | T], R) <- rev(T, RT), app(RT, [H], R).
        "#;
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let opt = Optimizer::new(
            &program,
            &db,
            OptConfig {
                assume_acyclic: true,
                ..OptConfig::default()
            },
        );
        let query = parse_query("rev([1, 2, 3], R)?").unwrap();
        let plan = opt.optimize(&query).unwrap();
        assert_eq!(plan.method, Method::Magic, "got {:?}", plan.method);
        let ans = plan
            .execute(&program, &db, &FixpointConfig::with_max_iterations(500))
            .unwrap();
        assert_eq!(ans.tuples.len(), 1);
        assert_eq!(ans.tuples.rows()[0].get(1).to_string(), "[3, 2, 1]");
    }

    #[test]
    fn mutual_recursion_optimizes() {
        let text = r#"
            zero(0).
            succ(0, 1). succ(1, 2). succ(2, 3).
            even(X) <- zero(X).
            even(X) <- succ(Y, X), odd(Y).
            odd(X) <- succ(Y, X), even(Y).
        "#;
        let o = optimize(text, "even(2)?").unwrap();
        assert!(o.cost.is_finite());
        let program = parse_program(text).unwrap();
        let db = Database::from_program(&program);
        let ans = o
            .execute(&program, &db, &FixpointConfig::default())
            .unwrap();
        assert_eq!(ans.tuples.len(), 1);
    }
}

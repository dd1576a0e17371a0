//! Call graph, recursion detection, called-in-loop flags and the max-flow
//! vertex cut used by the paper's function-selection strategy.
//!
//! The paper: "We construct the call graph for the program and find a cut
//! across the call graph. The functions that are part of the cut are split.
//! This approach guarantees that during any execution at least some split
//! function would be executed. … In constructing a cut through the call
//! graph we avoid functions that are called from inside a loop" and gives
//! preference to non-recursive functions.
//!
//! The cut is computed as a minimum *vertex* cut between `main` and the call
//! graph's leaves, via node splitting and Edmonds–Karp max-flow: eligible
//! functions get capacity 1, ineligible ones effectively infinite capacity,
//! so the minimum cut passes through eligible functions whenever possible.

use crate::structure::StructInfo;
use hps_ir::{Expr, FuncId, Program};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// One call site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CallSite {
    /// Calling function.
    pub caller: FuncId,
    /// Called function.
    pub callee: FuncId,
    /// The statement containing the call.
    pub stmt: hps_ir::StmtId,
    /// Whether the call site is inside a loop of the caller.
    pub in_loop: bool,
}

/// A program's call graph.
#[derive(Clone, Debug)]
pub struct CallGraph {
    n: usize,
    sites: Vec<CallSite>,
    callees: Vec<BTreeSet<FuncId>>,
    recursive: Vec<bool>,
    called_in_loop: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph of a program.
    pub fn build(program: &Program) -> CallGraph {
        let n = program.functions.len();
        let mut sites = Vec::new();
        let mut callees = vec![BTreeSet::new(); n];
        let mut called_in_loop = vec![false; n];
        for (fid, func) in program.iter_funcs() {
            let si = StructInfo::compute(func);
            hps_ir::visit::for_each_stmt(&func.body, &mut |stmt| {
                let mut callsite_callees = Vec::new();
                hps_ir::visit::for_each_expr_in_stmt(stmt, &mut |e| {
                    if let Expr::Call { callee, .. } = e {
                        callsite_callees.push(callee.func());
                    }
                });
                for callee in callsite_callees {
                    let in_loop = si.is_in_loop(stmt.id);
                    sites.push(CallSite {
                        caller: fid,
                        callee,
                        stmt: stmt.id,
                        in_loop,
                    });
                    callees[fid.index()].insert(callee);
                    if in_loop {
                        called_in_loop[callee.index()] = true;
                    }
                }
            });
        }
        let recursive = find_recursive(n, &callees);
        CallGraph {
            n,
            sites,
            callees,
            recursive,
            called_in_loop,
        }
    }

    /// All call sites.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// Functions directly called by `f`.
    pub fn callees(&self, f: FuncId) -> impl Iterator<Item = FuncId> + '_ {
        self.callees[f.index()].iter().copied()
    }

    /// Whether `f` is involved in direct or indirect recursion.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.recursive[f.index()]
    }

    /// Whether any call site of `f` sits inside a loop of its caller.
    pub fn is_called_in_loop(&self, f: FuncId) -> bool {
        self.called_in_loop[f.index()]
    }

    /// Functions reachable from `root` (including `root`).
    pub fn reachable_from(&self, root: FuncId) -> Vec<FuncId> {
        let mut seen = vec![false; self.n];
        let mut out = Vec::new();
        let mut work = vec![root];
        seen[root.index()] = true;
        while let Some(f) = work.pop() {
            out.push(f);
            for c in self.callees(f) {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    work.push(c);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Computes a minimum vertex cut separating `root` from every reachable
    /// leaf, preferring `eligible` functions (ineligible functions and
    /// `root` itself get effectively infinite capacity). Returns the cut
    /// set, or `None` when no cut through eligible functions exists (e.g.
    /// `root` is itself a leaf, or some root→leaf path contains no eligible
    /// function).
    pub fn vertex_cut(
        &self,
        root: FuncId,
        eligible: &dyn Fn(FuncId) -> bool,
    ) -> Option<Vec<FuncId>> {
        let reach = self.reachable_from(root);
        let leaves: Vec<FuncId> = reach
            .iter()
            .copied()
            .filter(|f| self.callees[f.index()].is_empty())
            .collect();
        if leaves.is_empty() || leaves.contains(&root) {
            return None;
        }
        // Node-split graph: each function f becomes f_in -> f_out with
        // capacity 1 (eligible) or INF (ineligible / root / leaves).
        // Call edge f -> g becomes f_out -> g_in with capacity INF.
        // Source: root_out. Sink: a virtual node fed by every leaf_out.
        const INF: i64 = i64::MAX / 4;
        let idx: HashMap<FuncId, usize> = reach
            .iter()
            .copied()
            .enumerate()
            .map(|(i, f)| (f, i))
            .collect();
        let m = reach.len();
        let node_in = |i: usize| 2 * i;
        let node_out = |i: usize| 2 * i + 1;
        let sink = 2 * m;
        let total = 2 * m + 1;
        let mut flow = MaxFlow::new(total);
        for (&f, &i) in &idx {
            let cap = if f == root || self.callees[f.index()].is_empty() || !eligible(f) {
                INF
            } else {
                1
            };
            flow.add_edge(node_in(i), node_out(i), cap);
            for callee in self.callees(f) {
                if let Some(&j) = idx.get(&callee) {
                    flow.add_edge(node_out(i), node_in(j), INF);
                }
            }
        }
        for leaf in &leaves {
            flow.add_edge(node_out(idx[leaf]), sink, INF);
        }
        let source = node_out(idx[&root]);
        let value = flow.run(source, sink);
        if value >= INF {
            return None;
        }
        // Min cut: in-node reachable in residual, out-node not.
        let reachable = flow.residual_reachable(source);
        let mut cut: Vec<FuncId> = reach
            .iter()
            .copied()
            .filter(|f| {
                let i = idx[f];
                reachable[node_in(i)] && !reachable[node_out(i)]
            })
            .collect();
        cut.sort_unstable();
        Some(cut)
    }
}

fn find_recursive(n: usize, callees: &[BTreeSet<FuncId>]) -> Vec<bool> {
    // Tarjan SCC, iterative.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut recursive = vec![false; n];
    let mut counter = 0usize;

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, iterator position)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            let succs: Vec<usize> = callees[v].iter().map(|f| f.index()).collect();
            if *ci < succs.len() {
                let w = succs[*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack non-empty");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = callees[v].contains(&FuncId::new(v));
                    if scc.len() > 1 || self_loop {
                        for w in scc {
                            recursive[w] = true;
                        }
                    }
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    recursive
}

/// Edmonds–Karp max-flow on an adjacency-list residual graph.
struct MaxFlow {
    // edges stored as (to, cap); reverse edge at index^1.
    to: Vec<usize>,
    cap: Vec<i64>,
    adj: Vec<Vec<usize>>,
}

impl MaxFlow {
    fn new(n: usize) -> MaxFlow {
        MaxFlow {
            to: Vec::new(),
            cap: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        let e = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.adj[from].push(e);
        self.to.push(from);
        self.cap.push(0);
        self.adj[to].push(e + 1);
    }

    fn run(&mut self, source: usize, sink: usize) -> i64 {
        let mut total = 0i64;
        loop {
            // BFS for an augmenting path.
            let mut prev_edge = vec![usize::MAX; self.adj.len()];
            let mut q = VecDeque::new();
            q.push_back(source);
            let mut found = false;
            let mut visited = vec![false; self.adj.len()];
            visited[source] = true;
            while let Some(v) = q.pop_front() {
                if v == sink {
                    found = true;
                    break;
                }
                for &e in &self.adj[v] {
                    let w = self.to[e];
                    if !visited[w] && self.cap[e] > 0 {
                        visited[w] = true;
                        prev_edge[w] = e;
                        q.push_back(w);
                    }
                }
            }
            if !found {
                return total;
            }
            // Find bottleneck.
            let mut bottleneck = i64::MAX;
            let mut v = sink;
            while v != source {
                let e = prev_edge[v];
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1];
            }
            let mut v = sink;
            while v != source {
                let e = prev_edge[v];
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1];
            }
            total += bottleneck;
            if total >= i64::MAX / 8 {
                return total;
            }
        }
    }

    fn residual_reachable(&self, source: usize) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        let mut q = VecDeque::new();
        seen[source] = true;
        q.push_back(source);
        while let Some(v) = q.pop_front() {
            for &e in &self.adj[v] {
                let w = self.to[e];
                if self.cap[e] > 0 && !seen[w] {
                    seen[w] = true;
                    q.push_back(w);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> (hps_ir::Program, CallGraph) {
        let p = hps_lang::parse(src).expect("parses");
        let cg = CallGraph::build(&p);
        (p, cg)
    }

    #[test]
    fn edges_and_loop_flags() {
        let (p, cg) = graph(
            "fn leaf(x: int) -> int { return x + 1; }
             fn mid(x: int) -> int { return leaf(x) * 2; }
             fn main() { var i: int = 0; while (i < 3) { i = mid(i); } }",
        );
        let leaf = p.func_by_name("leaf").unwrap();
        let mid = p.func_by_name("mid").unwrap();
        let main = p.func_by_name("main").unwrap();
        assert_eq!(cg.callees(main).collect::<Vec<_>>(), vec![mid]);
        assert!(cg.is_called_in_loop(mid));
        assert!(!cg.is_called_in_loop(leaf));
        assert!(!cg.is_recursive(mid));
        assert_eq!(cg.sites().len(), 2);
    }

    #[test]
    fn recursion_detection_direct_and_mutual() {
        let (p, cg) = graph(
            "fn fact(n: int) -> int { if (n <= 1) { return 1; } return n * fact(n - 1); }
             fn even(n: int) -> int { if (n == 0) { return 1; } return odd(n - 1); }
             fn odd(n: int) -> int { if (n == 0) { return 0; } return even(n - 1); }
             fn plain(x: int) -> int { return x; }
             fn main() { print(fact(3) + even(4) + plain(1)); }",
        );
        assert!(cg.is_recursive(p.func_by_name("fact").unwrap()));
        assert!(cg.is_recursive(p.func_by_name("even").unwrap()));
        assert!(cg.is_recursive(p.func_by_name("odd").unwrap()));
        assert!(!cg.is_recursive(p.func_by_name("plain").unwrap()));
        assert!(!cg.is_recursive(p.func_by_name("main").unwrap()));
    }

    #[test]
    fn reachability_and_leaves() {
        let (p, cg) = graph(
            "fn a() { b(); }
             fn b() { }
             fn orphan() { }
             fn main() { a(); }",
        );
        let main = p.func_by_name("main").unwrap();
        let reach = cg.reachable_from(main);
        assert_eq!(reach.len(), 3);
        assert!(!reach.contains(&p.func_by_name("orphan").unwrap()));
    }

    #[test]
    fn vertex_cut_on_diamond() {
        // main -> {l, r} -> leaf : cutting `leaf` (1 node) beats {l, r}.
        let (p, cg) = graph(
            "fn leaf(x: int) -> int { return x; }
             fn l(x: int) -> int { return leaf(x); }
             fn r(x: int) -> int { return leaf(x) + 1; }
             fn main() { print(l(1) + r(2)); }",
        );
        let main = p.func_by_name("main").unwrap();
        let cut = cg.vertex_cut(main, &|_| true).expect("cut exists");
        // leaf is ineligible only via callee-emptiness rule; since leaves
        // get infinite capacity, the cut must be {l, r}.
        let l = p.func_by_name("l").unwrap();
        let r = p.func_by_name("r").unwrap();
        assert_eq!(cut, vec![l, r]);
    }

    #[test]
    fn vertex_cut_respects_eligibility() {
        let (p, cg) = graph(
            "fn leaf(x: int) -> int { return x; }
             fn mid(x: int) -> int { return leaf(x); }
             fn mid2(x: int) -> int { return mid(x); }
             fn main() { print(mid2(1)); }",
        );
        let main = p.func_by_name("main").unwrap();
        let mid = p.func_by_name("mid").unwrap();
        let mid2 = p.func_by_name("mid2").unwrap();
        let cut = cg.vertex_cut(main, &|f| f == mid).expect("cut exists");
        assert_eq!(cut, vec![mid]);
        let cut = cg.vertex_cut(main, &|f| f == mid2).expect("cut exists");
        assert_eq!(cut, vec![mid2]);
        // Nothing eligible: no finite cut.
        assert_eq!(cg.vertex_cut(main, &|_| false), None);
    }

    #[test]
    fn no_cut_when_main_is_leaf() {
        let (p, cg) = graph("fn main() { print(1); }");
        let main = p.func_by_name("main").unwrap();
        assert_eq!(cg.vertex_cut(main, &|_| true), None);
    }
}

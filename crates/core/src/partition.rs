//! Algorithm 1: per-statement timestamping and parallel partitions.
//!
//! For a static instruction `s`, a forward scan over the DDG (execution
//! order is topological) assigns each node the maximum timestamp of its
//! predecessors, incremented by one exactly when the node is an instance of
//! `s`. Two properties follow (paper §3.1):
//!
//! * **Property 3.1** — a node's timestamp equals the largest number of
//!   `s`-instances on any DDG path leading to it. Hence if any dependence
//!   path connects two instances of `s`, their timestamps differ, and all
//!   instances sharing a timestamp are mutually independent.
//! * **Property 3.2** — every instance receives the *smallest* possible
//!   timestamp, so the partitioning exposes the maximum available
//!   parallelism for `s` under any dependence-preserving reordering.
//!
//! The forward scan is inherently sequential (each node's timestamp
//! depends on its predecessors'), and the stride stages then scan its
//! (candidate, partition) groups one at a time on the same thread.

use std::collections::HashSet;
use vectorscope_ddg::{reserve_lean, Ddg, EXTERNAL};
use vectorscope_ir::InstId;

/// Parallel partitions of one static instruction's dynamic instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitions {
    /// The analyzed static instruction.
    pub inst: InstId,
    /// Partition `t` (0-based) holds the instances with timestamp `t + 1`,
    /// in execution order. All instances within a partition are mutually
    /// independent.
    pub groups: Vec<Vec<u32>>,
}

impl Partitions {
    /// Total number of analyzed instances.
    pub fn num_instances(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Average partition size — the per-instruction *available parallelism*
    /// metric (0.0 when the instruction never executed).
    pub fn average_size(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        self.num_instances() as f64 / self.groups.len() as f64
    }
}

/// Runs Algorithm 1 for static instruction `inst` over `ddg`.
///
/// When `ignore_self_deps` contains a node, dependence contributions *from*
/// that node are skipped while timestamping — this implements the paper's
/// proposed reduction extension (see [`crate::reduction`]): passing the set
/// of nodes on `s`'s reduction chain makes `s += expr` instances land in a
/// common partition.
///
/// # Example
///
/// The paper's Example 1 (Listing 1, Fig. 1(b)): for
/// `B[j][i] = B[j-1][i] * A[i]`, all instances with the same `j` share a
/// timestamp and form one partition of size N.
///
/// ```
/// use vectorscope_interp::{Vm, CaptureSpec};
/// use vectorscope_ddg::Ddg;
///
/// let src = r#"
///     const int N = 6;
///     double a[N]; double b[N][N];
///     void main() {
///         a[0] = 1.0;
///         for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
///         for (int i = 0; i < N; i++)
///             for (int j = 1; j < N; j++)
///                 b[j][i] = b[j-1][i] * a[i];         // S2
///     }
/// "#;
/// let module = vectorscope_frontend::compile("l1.kern", src).unwrap();
/// let mut vm = Vm::new(&module);
/// vm.set_capture(CaptureSpec::Program, "all");
/// vm.run_main().unwrap();
/// let ddg = Ddg::build(&module, &vm.take_trace().unwrap());
///
/// // S2 is the most frequent candidate: N*(N-1) = 30 instances.
/// let s2 = ddg
///     .candidate_insts()
///     .into_iter()
///     .max_by_key(|&i| ddg.candidate_nodes().filter(|&n| ddg.inst(n) == i).count())
///     .unwrap();
/// let parts = vectorscope::partition(&ddg, s2, &Default::default());
/// assert_eq!(parts.groups.len(), 5);            // N-1 partitions...
/// assert!(parts.groups.iter().all(|g| g.len() == 6)); // ...of size N
/// ```
pub fn partition(ddg: &Ddg, inst: InstId, ignore_self_deps: &HashSet<u32>) -> Partitions {
    let mut ts = vec![0u32; ddg.len()];
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for (n, writers) in (0..ddg.len() as u32).zip(ddg.operand_rows()) {
        let mut t = 0;
        for &p in writers {
            if p == EXTERNAL || ignore_self_deps.contains(&p) {
                continue;
            }
            t = t.max(ts[p as usize]);
        }
        if ddg.inst(n) == inst && ddg.is_candidate(n) {
            t += 1;
            let idx = (t - 1) as usize;
            if groups.len() <= idx {
                groups.resize_with(idx + 1, Vec::new);
            }
            groups[idx].push(n);
        }
        ts[n as usize] = t;
    }
    Partitions { inst, groups }
}

/// Runs Algorithm 1 for *all* of `insts` in a single forward scan.
///
/// Produces exactly the same [`Partitions`] (group structure, ordering, and
/// membership) as calling [`partition`] once per instruction, but touches
/// each DDG node and edge once instead of once per candidate: a node's
/// timestamps for all `insts.len()` instructions form one *row*, so the
/// per-edge inner loop is a contiguous element-wise `max` over the
/// predecessor's row. On multi-statement kernels this turns the former
/// `O(k · (V + E))` pointer-chasing re-scans into one cache-friendly pass
/// (see `DESIGN.md`).
///
/// Rows live in a slab and each node keeps only a row id: a node whose
/// timestamps equal one predecessor's (it forwards that row, the common
/// case) shares the row, and only candidate instances (their lanes are
/// bumped) and true merges (the maximum equals no predecessor's row)
/// allocate one. Row 0 is the all-zero row, and only the ids of nodes
/// with another row take a `u32` each.
///
/// `ignore_sets[j]` lists the nodes whose *outgoing* dependence
/// contributions are ignored while timestamping lane `j` — the reduction
/// extension, per instruction, exactly as the `ignore_self_deps` parameter
/// of [`partition`]. Pass an empty slice when no lane breaks reductions.
///
/// # Panics
///
/// Panics if `ignore_sets` is non-empty and its length differs from
/// `insts.len()`.
pub fn partition_all(
    ddg: &Ddg,
    insts: &[InstId],
    ignore_sets: &[&HashSet<u32>],
) -> Vec<Partitions> {
    let mut groups: Vec<Vec<Vec<u32>>> = vec![Vec::new(); insts.len()];
    timestamp_rows(ddg, insts, ignore_sets, |lane, node, t, _| {
        let g = &mut groups[lane];
        if g.len() < t as usize {
            g.resize_with(t as usize, Vec::new);
        }
        g[t as usize - 1].push(node);
    });
    insts
        .iter()
        .zip(groups)
        .map(|(&inst, groups)| Partitions { inst, groups })
        .collect()
}

/// No lane / no row.
const NONE: u32 = u32::MAX;

/// Whether `a ≥ b` and whether `b ≥ a`, lane by lane, for two timestamp
/// rows of equal length or two rows trimmed of trailing zeros (the longer
/// one then has a non-zero lane the other lacks).
pub(crate) fn dominance(a: &[u32], b: &[u32]) -> (bool, bool) {
    let (mut a_ge, mut b_ge) = (a.len() >= b.len(), b.len() >= a.len());
    for (x, y) in a.iter().zip(b) {
        a_ge &= x >= y;
        b_ge &= y >= x;
    }
    (a_ge, b_ge)
}

/// Row `r` of a slab of `k`-wide rows.
fn row(rows: &[u32], r: u32, k: usize) -> &[u32] {
    &rows[r as usize * k..][..k]
}

/// Nodes per word of a [`RowMap`].
const WORD: usize = 64;

/// Each node's timestamp row id, appended in node order.
///
/// Most nodes of a whole-program graph hold row 0 (no tracked instance
/// reaches them: address arithmetic, loop control), so the map keeps one
/// bit per node, set when its row is not 0, and stores a `u32` only for
/// those nodes. A node's slot among them is its rank: the count kept per
/// 64 nodes plus the set bits below it in its word.
struct RowMap {
    /// Bit `i` of `words[w]` is set if node `w * WORD + i`'s row is not 0.
    words: Vec<u64>,
    /// `ranks[w]`: the nodes with a non-zero row before node `w * WORD`.
    ranks: Vec<u32>,
    /// The non-zero rows, in node order.
    rows: Vec<u32>,
    len: usize,
}

impl RowMap {
    /// An empty map with the words of `nodes` nodes.
    fn with_nodes(nodes: usize) -> RowMap {
        let words = nodes.div_ceil(WORD);
        RowMap {
            words: vec![0; words],
            ranks: vec![0; words],
            rows: Vec::new(),
            len: 0,
        }
    }

    /// Appends the next node's row.
    fn push(&mut self, row: u32) {
        let (w, bit) = (self.len / WORD, self.len % WORD);
        if bit == 0 {
            self.ranks[w] = u32::try_from(self.rows.len()).expect("rows are bounded by node ids");
        }
        if row != 0 {
            self.words[w] |= 1 << bit;
            reserve_lean(&mut self.rows, 1);
            self.rows.push(row);
        }
        self.len += 1;
    }

    /// The row of node `n`, which must have been pushed.
    fn get(&self, n: u32) -> u32 {
        let (w, bit) = (n as usize / WORD, n as usize % WORD);
        let word = self.words[w];
        if word >> bit & 1 == 0 {
            return 0;
        }
        let below = (word & ((1u64 << bit) - 1)).count_ones();
        self.rows[(self.ranks[w] + below) as usize]
    }
}

/// The forward scan behind [`partition_all`]: reports every instance of a
/// lane as `instance(lane, node, timestamp, operand_writers)`, in execution
/// order, and returns how many timestamp rows it allocated (row 0
/// included). The row scratch is freed when it returns.
pub(crate) fn timestamp_rows(
    ddg: &Ddg,
    insts: &[InstId],
    ignore_sets: &[&HashSet<u32>],
    mut instance: impl FnMut(usize, u32, u32, &[u32]),
) -> usize {
    assert!(
        ignore_sets.is_empty() || ignore_sets.len() == insts.len(),
        "ignore_sets must be empty or match insts ({} vs {})",
        ignore_sets.len(),
        insts.len()
    );
    let k = insts.len();
    if k == 0 {
        return 0;
    }
    // Lanes per tracked instruction, by `InstId`: the first lane, then
    // `next_lane` chains duplicate entries of `insts`, each of which gets
    // its own (identical) lane, preserving output arity.
    let table = insts.iter().map(|i| i.index() + 1).max().unwrap_or(0);
    let mut first_lane = vec![NONE; table];
    let mut next_lane = vec![NONE; k];
    for (j, inst) in insts.iter().enumerate().rev() {
        next_lane[j] = first_lane[inst.index()];
        first_lane[inst.index()] = j as u32;
    }
    let lane_of = |n: u32| {
        if ddg.is_candidate(n) {
            first_lane.get(ddg.inst(n).index()).copied().unwrap_or(NONE)
        } else {
            NONE
        }
    };
    // Union of all ignore sets: the fast path skips per-lane membership
    // checks entirely for predecessors no lane ignores (the common case —
    // reduction chains are short and most runs have none).
    let ignored_anywhere: HashSet<u32> =
        ignore_sets.iter().flat_map(|s| s.iter().copied()).collect();

    let v = ddg.len();
    // `rows[r * k + j]` is lane j of row r. Every instance allocates a
    // row, so the slab starts at row 0 plus one row per instance; only
    // true merges grow it.
    let instances: usize = (0..table as u32)
        .filter(|&i| first_lane[i as usize] != NONE)
        .map(|i| ddg.candidate_instances(InstId(i)))
        .sum();
    let mut rows: Vec<u32> = Vec::with_capacity((instances + 1) * k);
    rows.resize(k, 0);
    let mut row_of = RowMap::with_nodes(v);
    let mut cur = vec![0u32; k];
    for (n, writers) in (0..v as u32).zip(ddg.operand_rows()) {
        // The node's row so far: row `fwd` while it equals one predecessor
        // row, else (`fwd == NONE`) the true merge held in `cur`.
        let mut fwd = 0u32;
        for &p in writers {
            if p == EXTERNAL {
                continue;
            }
            let r = row_of.get(p);
            if r == 0 || r == fwd {
                continue;
            }
            let pr = row(&rows, r, k);
            if !ignored_anywhere.is_empty() && ignored_anywhere.contains(&p) {
                if fwd != NONE {
                    cur.copy_from_slice(row(&rows, fwd, k));
                }
                let mut raised = false;
                for (j, (c, &t)) in cur.iter_mut().zip(pr).enumerate() {
                    if t > *c && !ignore_sets[j].contains(&p) {
                        *c = t;
                        raised = true;
                    }
                }
                if raised {
                    fwd = NONE;
                }
                continue;
            }
            if fwd == 0 {
                fwd = r;
                continue;
            }
            let current = if fwd == NONE {
                &cur[..]
            } else {
                row(&rows, fwd, k)
            };
            match dominance(current, pr) {
                (true, _) => {}
                (false, true) => fwd = r,
                (false, false) => {
                    if fwd != NONE {
                        cur.copy_from_slice(row(&rows, fwd, k));
                        fwd = NONE;
                    }
                    for (c, &t) in cur.iter_mut().zip(pr) {
                        *c = (*c).max(t);
                    }
                }
            }
        }
        let mut lane = lane_of(n);
        if lane != NONE && fwd != NONE {
            cur.copy_from_slice(row(&rows, fwd, k));
            fwd = NONE;
        }
        while lane != NONE {
            let j = lane as usize;
            cur[j] += 1;
            instance(j, n, cur[j], writers);
            lane = next_lane[j];
        }
        if fwd == NONE {
            fwd = u32::try_from(rows.len() / k).expect("rows are bounded by node ids");
            reserve_lean(&mut rows, k);
            rows.extend_from_slice(&cur);
        }
        row_of.push(fwd);
    }
    rows.len() / k
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vectorscope_ddg::{SyntheticClass, SyntheticNode, EXTERNAL};
    use vectorscope_interp::{CaptureSpec, Vm};

    fn program_ddg(src: &str) -> (vectorscope_ir::Module, Ddg) {
        let module = vectorscope_frontend::compile("t.kern", src).unwrap();
        let mut vm = Vm::new(&module);
        vm.set_capture(CaptureSpec::Program, "all");
        vm.run_main().unwrap();
        let trace = vm.take_trace().unwrap();
        drop(vm); // the VM borrows `module`, which moves below
        let ddg = Ddg::build(&module, &trace);
        (module, ddg)
    }

    /// Instances per static candidate, largest first.
    fn candidates_by_count(ddg: &Ddg) -> Vec<(InstId, usize)> {
        let mut v: Vec<(InstId, usize)> = ddg
            .candidate_insts()
            .into_iter()
            .map(|i| {
                (
                    i,
                    ddg.candidate_nodes().filter(|&n| ddg.inst(n) == i).count(),
                )
            })
            .collect();
        v.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        v
    }

    #[test]
    fn independent_instances_form_one_partition() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 16;
            double a[N];
            void main() {
                for (int i = 0; i < N; i++) { a[i] = a[i] + 1.0; }
            }
        "#,
        );
        let insts = ddg.candidate_insts();
        let parts = partition(&ddg, insts[0], &HashSet::new());
        assert_eq!(parts.groups.len(), 1);
        assert_eq!(parts.groups[0].len(), 16);
        assert_eq!(parts.average_size(), 16.0);
    }

    #[test]
    fn chain_forms_singleton_partitions() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 12;
            double a[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) { a[i] = 2.0 * a[i-1]; }
            }
        "#,
        );
        let insts = ddg.candidate_insts();
        let parts = partition(&ddg, insts[0], &HashSet::new());
        assert_eq!(parts.groups.len(), 11);
        assert!(parts.groups.iter().all(|g| g.len() == 1));
        assert_eq!(parts.average_size(), 1.0);
    }

    #[test]
    fn paper_example2_both_statements_fully_parallel() {
        // Listing 2: S1: A[i] = 2*B[i-1]; S2: B[i] = 0.5*C[i].
        // Loop-level analysis sees a serial staircase (Fig. 2(b)), but the
        // per-statement partitions are each a single full-size group
        // (Fig. 2(c)).
        let (_, ddg) = program_ddg(
            r#"
            const int N = 8;
            double a[N]; double b[N]; double c[N];
            void main() {
                for (int i = 1; i < N; i++) {
                    a[i] = 2.0 * b[i-1];
                    b[i] = 0.5 * c[i];
                }
            }
        "#,
        );
        for (inst, count) in candidates_by_count(&ddg) {
            let parts = partition(&ddg, inst, &HashSet::new());
            assert_eq!(parts.groups.len(), 1, "statement not fully parallel");
            assert_eq!(parts.groups[0].len(), count);
        }
    }

    #[test]
    fn timestamps_respect_cross_statement_paths() {
        // a[i] depends on a[i-1] THROUGH another statement's instances:
        // t[i] = a[i-1] * 2; a[i] = t[i] + 1. Partitioning `a`'s fadd must
        // still separate instances (indirect path through fmul).
        let (_, ddg) = program_ddg(
            r#"
            const int N = 6;
            double a[N]; double t[N];
            void main() {
                a[0] = 1.0;
                for (int i = 1; i < N; i++) {
                    t[i] = a[i-1] * 2.0;
                    a[i] = t[i] + 1.0;
                }
            }
        "#,
        );
        for (inst, count) in candidates_by_count(&ddg) {
            let parts = partition(&ddg, inst, &HashSet::new());
            assert_eq!(
                parts.groups.len(),
                count,
                "indirect chain must serialize all instances"
            );
        }
    }

    #[test]
    fn partitions_within_group_are_pairwise_independent() {
        let (_, ddg) = program_ddg(
            r#"
            const int N = 10;
            double a[N][N];
            void main() {
                for (int i = 0; i < N; i++) { a[0][i] = (double)i; }
                for (int j = 1; j < N; j++)
                    for (int i = 0; i < N; i++)
                        a[j][i] = a[j-1][i] * 1.5;
            }
        "#,
        );
        let (inst, _) = candidates_by_count(&ddg)[0];
        let parts = partition(&ddg, inst, &HashSet::new());
        // Verify independence by reachability for each group (exhaustive
        // over this small graph).
        for group in &parts.groups {
            let members: HashSet<u32> = group.iter().copied().collect();
            for &m in group {
                // BFS backwards: no other member may be reachable.
                let mut stack: Vec<u32> = ddg.preds(m).collect();
                let mut seen = HashSet::new();
                while let Some(x) = stack.pop() {
                    assert!(
                        !members.contains(&x),
                        "members {m} and {x} of one partition are dependent"
                    );
                    for p in ddg.preds(x) {
                        if seen.insert(p) {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }

    /// Random-DAG property: Property 3.1 — the timestamp of an `s` instance
    /// equals the largest count of `s`-instances on any path ending at it
    /// (inclusive of itself).
    fn reference_max_s_count(
        preds: &[Vec<u32>],
        is_s: &[bool],
        node: usize,
        memo: &mut Vec<Option<u32>>,
    ) -> u32 {
        if let Some(v) = memo[node] {
            return v;
        }
        let mut best = 0;
        for &p in &preds[node] {
            best = best.max(reference_max_s_count(preds, is_s, p as usize, memo));
        }
        let v = best + is_s[node] as u32;
        memo[node] = Some(v);
        v
    }

    proptest! {
        #[test]
        fn property_3_1_on_random_dags(
            spec in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u16>(), 0..4)), 1..60)
        ) {
            // Build a random DAG: node i draws predecessors among 0..i.
            let n = spec.len();
            let mut nodes = Vec::with_capacity(n);
            let mut preds: Vec<Vec<u32>> = Vec::with_capacity(n);
            let mut is_s = Vec::with_capacity(n);
            let target = InstId(1);
            for (i, (tag, raw_preds)) in spec.iter().enumerate() {
                let s = tag % 3 == 0; // ~1/3 of nodes are instances of s
                let ps: Vec<u32> = if i == 0 {
                    vec![]
                } else {
                    raw_preds.iter().map(|&r| (r as usize % i) as u32).collect()
                };
                preds.push(ps.clone());
                is_s.push(s);
                nodes.push(SyntheticNode {
                    inst: if s { target } else { InstId(0) },
                    addr: 0,
                    class: if s { SyntheticClass::Candidate } else { SyntheticClass::Other },
                    writers: if ps.is_empty() { vec![EXTERNAL] } else { ps },
                });
            }
            let ddg = Ddg::synthetic(nodes);
            let parts = partition(&ddg, target, &HashSet::new());

            let mut memo = vec![None; n];
            for (t, group) in parts.groups.iter().enumerate() {
                for &m in group {
                    let want = reference_max_s_count(&preds, &is_s, m as usize, &mut memo);
                    prop_assert_eq!(
                        (t + 1) as u32,
                        want,
                        "node {} in partition {} but max s-count is {}",
                        m, t + 1, want
                    );
                }
            }
            // Every s node appears in exactly one group.
            let total: usize = parts.groups.iter().map(Vec::len).sum();
            prop_assert_eq!(total, is_s.iter().filter(|&&b| b).count());
        }

        /// The fused single-scan partitioner must produce byte-identical
        /// groups to the per-instruction reference for every candidate —
        /// including when per-instruction `ignore_self_deps` sets are in
        /// play (the reduction extension).
        #[test]
        fn fused_partitioning_matches_reference(
            spec in prop::collection::vec(
                (any::<u8>(), prop::collection::vec(any::<u16>(), 0..4), any::<u8>()),
                1..80,
            )
        ) {
            // Random DAG over several static candidate instructions
            // (InstId 1..=4); the extra tag byte seeds the ignore sets.
            const K: u32 = 4;
            let mut nodes = Vec::with_capacity(spec.len());
            let mut ignore_sets: Vec<HashSet<u32>> = vec![HashSet::new(); K as usize];
            for (i, (tag, raw_preds, ignore_tag)) in spec.iter().enumerate() {
                let which = tag % (K as u8 + 2); // 2/6 of nodes are non-candidates
                let is_cand = which < K as u8;
                let inst = if is_cand { InstId(which as u32 + 1) } else { InstId(0) };
                let ps: Vec<u32> = if i == 0 {
                    vec![]
                } else {
                    raw_preds.iter().map(|&r| (r as usize % i) as u32).collect()
                };
                nodes.push(SyntheticNode {
                    inst,
                    addr: 0,
                    class: if is_cand { SyntheticClass::Candidate } else { SyntheticClass::Other },
                    writers: if ps.is_empty() { vec![EXTERNAL] } else { ps },
                });
                // ~1/4 of nodes land in some lane's ignore set.
                if ignore_tag % 4 == 0 {
                    ignore_sets[(*ignore_tag as usize / 4) % K as usize].insert(i as u32);
                }
            }
            let ddg = Ddg::synthetic(nodes);
            let insts: Vec<InstId> = (1..=K).map(InstId).collect();
            let ignore_refs: Vec<&HashSet<u32>> = ignore_sets.iter().collect();

            let fused = partition_all(&ddg, &insts, &ignore_refs);
            prop_assert_eq!(fused.len(), insts.len());
            for ((&inst, ignore), got) in insts.iter().zip(&ignore_sets).zip(&fused) {
                let want = partition(&ddg, inst, ignore);
                prop_assert_eq!(got, &want, "fused partitions diverge for {:?}", inst);
            }

            // And without any ignore sets, the empty-slice shorthand.
            let fused_plain = partition_all(&ddg, &insts, &[]);
            for (&inst, got) in insts.iter().zip(&fused_plain) {
                let want = partition(&ddg, inst, &HashSet::new());
                prop_assert_eq!(got, &want);
            }
        }
    }

    #[test]
    fn partition_all_of_nothing_is_empty() {
        let ddg = Ddg::synthetic(vec![SyntheticNode {
            inst: InstId(1),
            addr: 0,
            class: SyntheticClass::Candidate,
            writers: vec![EXTERNAL],
        }]);
        assert!(partition_all(&ddg, &[], &[]).is_empty());
    }

    /// Row sharing: nodes that forward a single predecessor row reuse it,
    /// including two predecessors holding one shared row, and a shared row
    /// that one lane ignores (through one of its holders) while another
    /// lane reads it.
    #[test]
    fn partition_all_shares_forwarded_rows() {
        let (a, b) = (InstId(1), InstId(2));
        let node = |inst: InstId, class: SyntheticClass, writers: Vec<u32>| SyntheticNode {
            inst,
            addr: 0,
            class,
            writers,
        };
        let (cand, other) = (SyntheticClass::Candidate, SyntheticClass::Other);
        let ddg = Ddg::synthetic(vec![
            node(a, cand, vec![EXTERNAL]),      // 0: row [1, 0]
            node(InstId(0), other, vec![0]),    // 1: forwards 0's row
            node(InstId(0), other, vec![0]),    // 2: forwards 0's row
            node(a, cand, vec![1, 2]),          // 3: one shared row -> [2, 0]
            node(b, cand, vec![3]),             // 4: [2, 1]
            node(InstId(0), other, vec![4]),    // 5: forwards 4's row
            node(a, cand, vec![5]),             // 6: lane a ignores 5 -> [1, 1]
            node(b, cand, vec![5, 4]),          // 7: lane b reads the shared row -> [2, 2]
            node(InstId(0), other, vec![3, 4]), // 8: [2, 1] covers [2, 0]: forwards 4's row
            node(InstId(0), other, vec![6, 3]), // 9: a true merge -> [2, 1]
            node(a, cand, vec![9]),             // 10: [3, 1]
        ]);
        let ignore_a: HashSet<u32> = [5].into();
        let none = HashSet::new();
        let parts = partition_all(&ddg, &[a, b], &[&ignore_a, &none]);
        let rows = timestamp_rows(&ddg, &[a, b], &[&ignore_a, &none], |_, _, _, _| {});
        assert_eq!(parts[0].groups, vec![vec![0, 6], vec![3], vec![10]]);
        assert_eq!(parts[1].groups, vec![vec![4], vec![7]]);
        assert_eq!(parts[0], partition(&ddg, a, &ignore_a));
        assert_eq!(parts[1], partition(&ddg, b, &none));
        // Row 0, one row per candidate instance and one for the true merge
        // at node 9: nodes 1, 2, 5 and 8 share rows.
        assert_eq!(rows, 8);
    }

    /// Pushes `rows` into a [`RowMap`] and checks every node's row against
    /// the dense column, and that only non-zero rows are stored.
    fn check_row_map(rows: &[u32]) {
        let mut map = RowMap::with_nodes(rows.len());
        for &r in rows {
            map.push(r);
        }
        for (n, &r) in rows.iter().enumerate() {
            assert_eq!(map.get(n as u32), r, "node {n} of {}", rows.len());
        }
        assert_eq!(map.rows.len(), rows.iter().filter(|&&r| r != 0).count());
        assert_eq!(map.words.len(), rows.len().div_ceil(WORD));
    }

    #[test]
    fn row_map_matches_a_dense_column_around_word_boundaries() {
        let mut rows = vec![0u32; 200];
        for (i, n) in [63, 64, 65, 127, 128].into_iter().enumerate() {
            rows[n] = i as u32 + 1;
        }
        check_row_map(&rows);
        check_row_map(&rows[..129]);
        // Words of all-zero, all-non-zero, all-zero, alternating and
        // all-non-zero rows, the last one partial.
        let blocks: Vec<u32> = (0..WORD as u32 * 4 + 5)
            .map(|n| match n as usize / WORD {
                1 => n,
                3 => n % 2 * 7,
                4 => NONE - 1,
                _ => 0,
            })
            .collect();
        check_row_map(&blocks);
        check_row_map(&[]);
    }

    proptest! {
        /// Runs of zero, non-zero and mixed rows, long enough to fill
        /// whole words of each kind.
        #[test]
        fn row_map_matches_a_dense_column(
            runs in prop::collection::vec((0usize..150, 0u8..3, any::<u32>()), 0..12)
        ) {
            let mut rows = Vec::new();
            for (len, kind, seed) in runs {
                rows.extend((0..len as u32).map(|i| match kind {
                    0 => 0,
                    1 => seed.wrapping_add(i).max(1),
                    _ => (seed >> (i % 32) & 1) * (seed | 1),
                }));
            }
            check_row_map(&rows);
        }
    }

    #[test]
    fn partition_all_handles_duplicate_insts() {
        let ddg = Ddg::synthetic(vec![
            SyntheticNode {
                inst: InstId(1),
                addr: 0,
                class: SyntheticClass::Candidate,
                writers: vec![EXTERNAL],
            },
            SyntheticNode {
                inst: InstId(1),
                addr: 0,
                class: SyntheticClass::Candidate,
                writers: vec![0],
            },
        ]);
        let insts = [InstId(1), InstId(1)];
        let parts = partition_all(&ddg, &insts, &[]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], parts[1]);
        assert_eq!(parts[0].groups.len(), 2);
    }
}

#[cfg(test)]
mod cross_analysis_tests {
    use super::*;
    use proptest::prelude::*;
    use vectorscope_ddg::{kumar, SyntheticClass, SyntheticNode, EXTERNAL};
    use vectorscope_ir::InstId;

    proptest! {
        /// For every instance of `s`, the per-statement timestamp is at
        /// most the Kumar whole-DAG timestamp: counting only s-instances on
        /// a path can never exceed counting all nodes on it. This is the
        /// formal sense in which Algorithm 1 exposes at least as much
        /// parallelism as critical-path analysis (paper §2.1).
        #[test]
        fn per_statement_timestamps_bounded_by_kumar(
            spec in prop::collection::vec((any::<u8>(), prop::collection::vec(any::<u16>(), 0..4)), 1..60)
        ) {
            let target = InstId(1);
            let mut nodes = Vec::new();
            for (i, (tag, raw_preds)) in spec.iter().enumerate() {
                let s = tag % 3 == 0;
                let ps: Vec<u32> = if i == 0 {
                    vec![EXTERNAL]
                } else {
                    raw_preds.iter().map(|&r| (r as usize % i) as u32).collect()
                };
                nodes.push(SyntheticNode {
                    inst: if s { target } else { InstId(0) },
                    addr: 0,
                    class: if s { SyntheticClass::Candidate } else { SyntheticClass::Other },
                    writers: if ps.is_empty() { vec![EXTERNAL] } else { ps },
                });
            }
            let ddg = vectorscope_ddg::Ddg::synthetic(nodes);
            let parts = partition(&ddg, target, &HashSet::new());
            let k = kumar::analyze(&ddg);
            for (t, group) in parts.groups.iter().enumerate() {
                for &m in group {
                    prop_assert!(
                        (t as u64 + 1) <= k.timestamps[m as usize],
                        "node {}: partition ts {} > kumar ts {}",
                        m, t + 1, k.timestamps[m as usize]
                    );
                }
            }
        }
    }
}

//! Contiguous-access subpartitioning (paper §3.2) and non-unit
//! constant-stride regrouping (paper §3.3).
//!
//! Independence alone is not enough for profitable SIMD execution: the
//! grouped operations must also access memory contiguously, or gathering
//! elements into vector registers erases the benefit. Given one parallel
//! partition (mutually independent instances of one static instruction),
//! [`unit_stride`] sorts the instances by their operand *address tuples*
//! and splits them into maximal runs in which every operand advances by
//! either 0 bytes (a splat/constant — cheap on all SIMD ISAs) or exactly
//! the element size, with the stride pattern constant across the run.
//!
//! Instances left in singleton subpartitions are then offered to
//! [`non_unit_stride`], which relaxes "0 or element size" to *any* fixed
//! stride using the paper's wait-list scan. Large non-unit groups signal
//! that a data-layout transformation (array transposition, AoS→SoA) would
//! unlock vectorization — the basis of the milc and bwaves case studies.
//!
//! Both engines gather each partition's tuples in execution order and run
//! the stages over that arena (`metrics::analyze_lanes`).
//! [`analyze_partition`], [`unit_stride`] and [`non_unit_stride`] gather
//! one partition's tuples from the DDG by node id; they serve tools and
//! tests.

use vectorscope_ddg::Ddg;

/// Subpartitioning outcome for one parallel partition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrideReport {
    /// Unit/zero-stride subpartitions of size ≥ 2 (potentially vectorizable
    /// ops), each in sorted address order.
    pub unit: Vec<Vec<u32>>,
    /// Non-unit constant-stride subpartitions of size ≥ 2 formed from the
    /// leftover singletons (data-layout-transformation potential).
    pub non_unit: Vec<Vec<u32>>,
    /// Instances vectorizable in neither mode.
    pub singletons: Vec<u32>,
}

impl StrideReport {
    /// Number of ops in non-singleton unit-stride subpartitions.
    pub fn unit_ops(&self) -> usize {
        self.unit.iter().map(Vec::len).sum()
    }

    /// Number of ops in non-singleton non-unit-stride subpartitions.
    pub fn non_unit_ops(&self) -> usize {
        self.non_unit.iter().map(Vec::len).sum()
    }
}

/// Runs both stages on one parallel partition: unit-stride subpartitioning,
/// then non-unit regrouping of the singletons.
///
/// `elem_size` is the byte size of the instruction's operand element type
/// (see [`Ddg::elem_size`]).
pub fn analyze_partition(ddg: &Ddg, partition: &[u32], elem_size: u64) -> StrideReport {
    analyze_sorted_tuples(&sorted_tuples(ddg, partition), elem_size)
}

/// Address tuples for one partition, sorted, stored as one flat key arena.
///
/// Every instance of a partition carries the same number of operand
/// addresses (`arity` — the static instruction's operand count), so the
/// tuples live contiguously in `keys` with the payloads alongside in
/// `payloads`, instead of one heap `Vec<u64>` per instance. Both scan
/// stages then work over fixed-arity key *slices* and never clone a tuple.
pub(crate) struct SortedTuples {
    /// Flat sorted keys, `arity` addresses per tuple.
    keys: Vec<u64>,
    /// Payloads in the same sorted order.
    payloads: Vec<u32>,
    /// Addresses per tuple.
    arity: usize,
}

impl SortedTuples {
    /// Sorts a flat `(keys, payloads)` arena by key tuple then payload.
    ///
    /// Payloads must be unique (both engines use strictly increasing ones),
    /// which makes the `(tuple, payload)` order total — `sort_unstable`
    /// over it is therefore indistinguishable from the stable
    /// sort-by-tuple the subpartition structure is defined against.
    pub(crate) fn from_flat(keys: &[u64], payloads: Vec<u32>, arity: usize) -> SortedTuples {
        debug_assert_eq!(keys.len(), payloads.len() * arity);
        let mut order: Vec<u32> = (0..payloads.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            keys[a * arity..(a + 1) * arity]
                .cmp(&keys[b * arity..(b + 1) * arity])
                .then(payloads[a].cmp(&payloads[b]))
        });
        let mut sorted_keys = Vec::with_capacity(keys.len());
        let mut sorted_payloads = Vec::with_capacity(payloads.len());
        for &i in &order {
            let i = i as usize;
            sorted_keys.extend_from_slice(&keys[i * arity..(i + 1) * arity]);
            sorted_payloads.push(payloads[i]);
        }
        SortedTuples {
            keys: sorted_keys,
            payloads: sorted_payloads,
            arity,
        }
    }

    fn len(&self) -> usize {
        self.payloads.len()
    }

    fn key(&self, i: usize) -> &[u64] {
        &self.keys[i * self.arity..(i + 1) * self.arity]
    }

    fn payload(&self, i: usize) -> u32 {
        self.payloads[i]
    }
}

/// Gathers the instances' address tuples into a sorted flat arena.
fn sorted_tuples(ddg: &Ddg, nodes: &[u32]) -> SortedTuples {
    let mut keys = Vec::new();
    for &n in nodes {
        ddg.push_operand_addrs(n, &mut keys);
    }
    let arity = if nodes.is_empty() {
        0
    } else {
        keys.len() / nodes.len()
    };
    debug_assert_eq!(
        keys.len(),
        arity * nodes.len(),
        "instances of one static instruction must share an operand count"
    );
    SortedTuples::from_flat(&keys, nodes.to_vec(), arity)
}

/// Runs both stride stages over a sorted tuple arena — the payload-generic
/// core behind both engines (payload = within-partition instance index)
/// and [`analyze_partition`] (payload = DDG node id).
///
/// Every caller feeds payloads that are unique and increase in execution
/// order, so the subpartition *structure* (membership pattern and sizes)
/// depends only on the tuple multiset. That is why the engines never need
/// node ids, only the same group sizes.
pub(crate) fn analyze_sorted_tuples(tuples: &SortedTuples, elem_size: u64) -> StrideReport {
    let mut report = StrideReport::default();
    let mut leftovers: Vec<usize> = Vec::new();
    let mut start = 0;
    for end in unit_runs(tuples, elem_size) {
        if end - start >= 2 {
            report
                .unit
                .push((start..end).map(|i| tuples.payload(i)).collect());
        } else {
            // Singleton runs fall out in scan order, which is the sorted
            // order the wait-list stage expects.
            leftovers.push(start);
        }
        start = end;
    }
    for sp in non_unit_scan(tuples, leftovers) {
        if sp.len() >= 2 {
            report.non_unit.push(sp);
        } else {
            report.singletons.extend(sp);
        }
    }
    report
}

/// The §3.2 scan over the sorted arena: maximal unit/zero-stride runs of
/// consecutive tuples, returned as their end indices (run `r` spans
/// `ends[r - 1]..ends[r]`, the first starting at 0).
fn unit_runs(tuples: &SortedTuples, elem_size: u64) -> Vec<usize> {
    let arity = tuples.arity;
    let mut ends = Vec::new();
    // The established per-operand stride pattern, valid when `has_est`;
    // `delta` is scratch for the candidate pattern under test. Reusing both
    // across runs keeps the scan allocation-free.
    let mut established: Vec<u64> = vec![0; arity];
    let mut has_est = false;
    let mut delta: Vec<u64> = vec![0; arity];

    for i in 1..tuples.len() {
        let (pk, ck) = (tuples.key(i - 1), tuples.key(i));
        let mut ok = true;
        for j in 0..arity {
            match ck[j].checked_sub(pk[j]) {
                Some(d) if (d == 0 || d == elem_size) && (!has_est || established[j] == d) => {
                    delta[j] = d;
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            established.copy_from_slice(&delta);
            has_est = true;
        } else {
            ends.push(i);
            has_est = false;
        }
    }
    if tuples.len() > 0 {
        ends.push(tuples.len());
    }
    ends
}

/// The §3.3 wait-list scan over the sorted arena, taking leftover tuple
/// indices (in sorted order) and returning payload groups.
fn non_unit_scan(tuples: &SortedTuples, mut pending: Vec<usize>) -> Vec<Vec<u32>> {
    let arity = tuples.arity;
    let mut out = Vec::new();
    let mut established: Vec<u64> = vec![0; arity];
    let mut delta: Vec<u64> = vec![0; arity];
    let mut waitlist: Vec<usize> = Vec::new();
    while !pending.is_empty() {
        waitlist.clear();
        let mut current: Vec<u32> = Vec::new();
        let mut prev: Option<usize> = None;
        let mut has_est = false;
        for &i in &pending {
            match prev {
                None => {
                    current.push(tuples.payload(i));
                    prev = Some(i);
                }
                Some(p) => {
                    let (pk, ck) = (tuples.key(p), tuples.key(i));
                    let mut ok = true;
                    for j in 0..arity {
                        match ck[j].checked_sub(pk[j]) {
                            // The first delta establishes the subpartition's
                            // stride ("scanning based on the current
                            // stride", §3.3); later ones must match it.
                            Some(d) if !has_est || established[j] == d => delta[j] = d,
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok {
                        established.copy_from_slice(&delta);
                        has_est = true;
                        current.push(tuples.payload(i));
                        prev = Some(i);
                    } else {
                        waitlist.push(i);
                    }
                }
            }
        }
        out.push(current);
        std::mem::swap(&mut pending, &mut waitlist);
    }
    out
}

/// Splits one parallel partition into unit/zero-stride subpartitions
/// (paper §3.2), singletons included.
///
/// Instances are sorted by operand address tuple and scanned; the current
/// subpartition ends when a per-operand delta is neither 0 nor
/// `elem_size`, or differs from the stride pattern already observed in the
/// subpartition.
pub fn unit_stride(ddg: &Ddg, partition: &[u32], elem_size: u64) -> Vec<Vec<u32>> {
    let tuples = sorted_tuples(ddg, partition);
    let mut start = 0;
    unit_runs(&tuples, elem_size)
        .into_iter()
        .map(|end| {
            let run = (start..end).map(|i| tuples.payload(i)).collect();
            start = end;
            run
        })
        .collect()
}

/// Groups singleton instances at any fixed non-unit stride using the
/// paper's wait-list scan (§3.3).
///
/// The instances (all of one static instruction and one timestamp) are
/// sorted; a scan grows a subpartition with a constant per-operand stride,
/// deferring mismatching instances to a wait list; the wait list is then
/// re-scanned for the next subpartition until no instances remain.
pub fn non_unit_stride(ddg: &Ddg, singletons: &[u32]) -> Vec<Vec<u32>> {
    let tuples = sorted_tuples(ddg, singletons);
    let all: Vec<usize> = (0..tuples.len()).collect();
    non_unit_scan(&tuples, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vectorscope_ddg::{SyntheticClass, SyntheticNode, EXTERNAL};
    use vectorscope_ir::InstId;

    /// Builds a DDG with `n` candidate nodes whose two operands are loads at
    /// the given addresses.
    fn ddg_with_loads(addr_pairs: &[(u64, u64)]) -> (Ddg, Vec<u32>) {
        let mut nodes = Vec::new();
        let mut cands = Vec::new();
        for &(a, b) in addr_pairs {
            let la = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(10),
                addr: a,
                class: SyntheticClass::Load,
                writers: vec![EXTERNAL, EXTERNAL],
            });
            let lb = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(11),
                addr: b,
                class: SyntheticClass::Load,
                writers: vec![EXTERNAL, EXTERNAL],
            });
            let c = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(1),
                addr: 0,
                class: SyntheticClass::Candidate,
                writers: vec![la, lb],
            });
            cands.push(c);
        }
        (Ddg::synthetic(nodes), cands)
    }

    #[test]
    fn contiguous_pairs_form_one_subpartition() {
        let pairs: Vec<(u64, u64)> = (0..8).map(|i| (1000 + i * 8, 2000 + i * 8)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        let subs = unit_stride(&ddg, &cands, 8);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].len(), 8);
    }

    #[test]
    fn zero_stride_operand_is_allowed() {
        // Second operand fixed (splat), first unit stride.
        let pairs: Vec<(u64, u64)> = (0..6).map(|i| (1000 + i * 8, 4096)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        let subs = unit_stride(&ddg, &cands, 8);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].len(), 6);
    }

    #[test]
    fn non_unit_access_splits_into_singletons() {
        // Stride 16 (AoS of complex): unit-stride stage must not group.
        let pairs: Vec<(u64, u64)> = (0..8).map(|i| (1000 + i * 16, 2000 + i * 16)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        let subs = unit_stride(&ddg, &cands, 8);
        assert_eq!(subs.len(), 8);
        assert!(subs.iter().all(|s| s.len() == 1));

        // ...but the non-unit stage groups all of them.
        let report = analyze_partition(&ddg, &cands, 8);
        assert!(report.unit.is_empty());
        assert_eq!(report.non_unit.len(), 1);
        assert_eq!(report.non_unit[0].len(), 8);
        assert!(report.singletons.is_empty());
    }

    #[test]
    fn stride_change_breaks_subpartition() {
        // First 4 contiguous, gap, next 4 contiguous.
        let mut pairs: Vec<(u64, u64)> = (0..4).map(|i| (1000 + i * 8, 2000 + i * 8)).collect();
        pairs.extend((0..4).map(|i| (5000 + i * 8, 6000 + i * 8)));
        let (ddg, cands) = ddg_with_loads(&pairs);
        let subs = unit_stride(&ddg, &cands, 8);
        let sizes: Vec<usize> = subs.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 4]);
    }

    #[test]
    fn mixed_strides_waitlist_regroups() {
        // Interleave stride-16 runs from two bases: the sorted order
        // alternates 4-byte and 12-byte deltas. The greedy scan (the
        // paper's "current stride" is established by the first accepted
        // pair) pairs neighbors at stride 4 and wait-lists the rest; every
        // instance still lands in a non-singleton constant-stride group.
        let mut pairs = Vec::new();
        for i in 0..4u64 {
            pairs.push((1000 + i * 16, 9000));
            pairs.push((1004 + i * 16, 9000));
        }
        let (ddg, cands) = ddg_with_loads(&pairs);
        let report = analyze_partition(&ddg, &cands, 8);
        assert!(report.unit.is_empty());
        assert_eq!(report.non_unit_ops(), 8);
        assert!(report.non_unit.iter().all(|g| g.len() >= 2));
        assert!(report.singletons.is_empty());
    }

    #[test]
    fn single_nonunit_stream_groups_fully() {
        // One clean stride-24 stream: the wait-list scan groups everything
        // into a single subpartition.
        let pairs: Vec<(u64, u64)> = (0..6).map(|i| (1000 + i * 24, 9000)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        let report = analyze_partition(&ddg, &cands, 8);
        assert_eq!(report.non_unit.len(), 1);
        assert_eq!(report.non_unit[0].len(), 6);
    }

    #[test]
    fn f32_elem_size_respected() {
        let pairs: Vec<(u64, u64)> = (0..8).map(|i| (1000 + i * 4, 2000 + i * 4)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        assert_eq!(unit_stride(&ddg, &cands, 4).len(), 1);
        // With elem size 8, stride 4 is non-unit.
        assert_eq!(unit_stride(&ddg, &cands, 8).len(), 8);
    }

    #[test]
    fn register_operands_group_as_zero_stride() {
        // Candidates whose operands are other candidates (register chains):
        // address tuples are all (0, 0) -> one zero-stride subpartition.
        let mut nodes = Vec::new();
        let mut cands = Vec::new();
        for _ in 0..5 {
            let c = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(1),
                addr: 0,
                class: SyntheticClass::Candidate,
                writers: vec![EXTERNAL, EXTERNAL],
            });
            cands.push(c);
        }
        let ddg = Ddg::synthetic(nodes);
        let subs = unit_stride(&ddg, &cands, 8);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].len(), 5);
    }

    #[test]
    fn empty_partition() {
        let (ddg, _) = ddg_with_loads(&[]);
        assert!(unit_stride(&ddg, &[], 8).is_empty());
        assert!(non_unit_stride(&ddg, &[]).is_empty());
        let r = analyze_partition(&ddg, &[], 8);
        assert_eq!(r.unit_ops(), 0);
        assert!(r.unit.is_empty());
    }

    #[test]
    fn report_averages() {
        let pairs: Vec<(u64, u64)> = (0..6).map(|i| (1000 + i * 8, 2000 + i * 8)).collect();
        let (ddg, cands) = ddg_with_loads(&pairs);
        let r = analyze_partition(&ddg, &cands, 8);
        assert_eq!(r.unit_ops(), 6);
        assert_eq!(r.unit.len(), 1);
        assert_eq!(r.non_unit_ops(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use vectorscope_ddg::{SyntheticClass, SyntheticNode, EXTERNAL};
    use vectorscope_ir::InstId;

    /// Builds a DDG whose candidates have 2 load operands at the given
    /// address pairs.
    fn ddg_of_pairs(addr_pairs: &[(u64, u64)]) -> (Ddg, Vec<u32>) {
        let mut nodes = Vec::new();
        let mut cands = Vec::new();
        for &(a, b) in addr_pairs {
            let la = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(10),
                addr: a,
                class: SyntheticClass::Load,
                writers: vec![EXTERNAL, EXTERNAL],
            });
            let lb = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(11),
                addr: b,
                class: SyntheticClass::Load,
                writers: vec![EXTERNAL, EXTERNAL],
            });
            let c = nodes.len() as u32;
            nodes.push(SyntheticNode {
                inst: InstId(1),
                addr: 0,
                class: SyntheticClass::Candidate,
                writers: vec![la, lb],
            });
            cands.push(c);
        }
        (Ddg::synthetic(nodes), cands)
    }

    proptest! {
        /// Soundness + completeness of unit-stride subpartitioning over
        /// random address tuples: every node lands in exactly one
        /// subpartition, and within a subpartition consecutive tuples (in
        /// sorted order) advance by a constant per-operand delta of 0 or
        /// the element size.
        #[test]
        fn unit_stride_subpartitions_are_sound(
            pairs in prop::collection::vec((0u64..512, 0u64..512), 1..40),
        ) {
            // Scale addresses to multiples of 8 to look like doubles.
            let pairs: Vec<(u64, u64)> =
                pairs.into_iter().map(|(a, b)| (a * 8, b * 8)).collect();
            let (ddg, cands) = ddg_of_pairs(&pairs);
            let subs = unit_stride(&ddg, &cands, 8);

            // Completeness.
            let covered: usize = subs.iter().map(Vec::len).sum();
            prop_assert_eq!(covered, cands.len());
            let mut seen = std::collections::HashSet::new();
            for sp in &subs {
                for &n in sp {
                    prop_assert!(seen.insert(n));
                }
            }

            // Soundness: constant 0/8 per-operand deltas inside each
            // subpartition.
            for sp in &subs {
                if sp.len() < 2 {
                    continue;
                }
                let tuples: Vec<Vec<u64>> =
                    sp.iter().map(|&n| ddg.operand_addrs(n)).collect();
                let delta: Vec<u64> = tuples[0]
                    .iter()
                    .zip(&tuples[1])
                    .map(|(a, b)| b - a)
                    .collect();
                prop_assert!(delta.iter().all(|&d| d == 0 || d == 8));
                for w in tuples.windows(2) {
                    let d: Vec<u64> =
                        w[0].iter().zip(&w[1]).map(|(a, b)| b - a).collect();
                    prop_assert_eq!(&d, &delta, "stride changed inside subpartition");
                }
            }
        }

        /// The non-unit waitlist scan also covers every input exactly once
        /// and produces constant-stride groups.
        #[test]
        fn non_unit_waitlist_is_sound(
            pairs in prop::collection::vec((0u64..512, 0u64..512), 1..40),
        ) {
            let pairs: Vec<(u64, u64)> =
                pairs.into_iter().map(|(a, b)| (a * 8, b * 8)).collect();
            let (ddg, cands) = ddg_of_pairs(&pairs);
            let subs = non_unit_stride(&ddg, &cands);
            let covered: usize = subs.iter().map(Vec::len).sum();
            prop_assert_eq!(covered, cands.len());
            for sp in &subs {
                if sp.len() < 2 {
                    continue;
                }
                let tuples: Vec<Vec<u64>> =
                    sp.iter().map(|&n| ddg.operand_addrs(n)).collect();
                let delta: Vec<i64> = tuples[0]
                    .iter()
                    .zip(&tuples[1])
                    .map(|(a, b)| *b as i64 - *a as i64)
                    .collect();
                for w in tuples.windows(2) {
                    let d: Vec<i64> = w[0]
                        .iter()
                        .zip(&w[1])
                        .map(|(a, b)| *b as i64 - *a as i64)
                        .collect();
                    prop_assert_eq!(&d, &delta, "stride changed inside subpartition");
                }
            }
        }

        /// Both stages together: every instance lands in exactly one of
        /// `unit`, `non_unit` and `singletons`; each unit group has at
        /// least two instances and constant per-operand deltas of 0 or the
        /// element size; each non-unit group has at least two instances
        /// and constant per-operand deltas.
        #[test]
        fn analyze_partition_is_sound_and_complete(
            pairs in prop::collection::vec((0u64..512, 0u64..512), 1..40),
        ) {
            let pairs: Vec<(u64, u64)> =
                pairs.into_iter().map(|(a, b)| (a * 8, b * 8)).collect();
            let (ddg, cands) = ddg_of_pairs(&pairs);
            let report = analyze_partition(&ddg, &cands, 8);

            let mut seen = std::collections::HashSet::new();
            let groups = report.unit.iter().chain(&report.non_unit);
            for &n in groups.flatten().chain(&report.singletons) {
                prop_assert!(seen.insert(n), "node {} placed twice", n);
            }
            prop_assert_eq!(seen.len(), cands.len());
            prop_assert!(cands.iter().all(|n| seen.contains(n)));

            // The constant per-operand delta of a group, if it has one.
            let deltas = |group: &[u32]| -> Option<Vec<i64>> {
                let tuples: Vec<Vec<u64>> =
                    group.iter().map(|&n| ddg.operand_addrs(n)).collect();
                let step = |w: &[Vec<u64>]| -> Vec<i64> {
                    w[0].iter().zip(&w[1]).map(|(a, b)| *b as i64 - *a as i64).collect()
                };
                let first = step(&tuples[..2]);
                tuples.windows(2).all(|w| step(w) == first).then_some(first)
            };
            for group in &report.unit {
                prop_assert!(group.len() >= 2);
                let delta = deltas(group);
                prop_assert!(delta.is_some(), "unit group changed stride: {:?}", group);
                prop_assert!(delta.unwrap().iter().all(|&d| d == 0 || d == 8));
            }
            for group in &report.non_unit {
                prop_assert!(group.len() >= 2);
                prop_assert!(deltas(group).is_some(), "non-unit group changed stride: {:?}", group);
            }
        }
    }
}

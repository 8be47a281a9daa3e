//! Thread-plan deadlock analysis (`URT206`).
//!
//! The deployment architecture runs each streamer on an assigned solver
//! thread; at every macro step, threads rendezvous to exchange same-step
//! values for direct-feedthrough dependencies. The capsule's event thread
//! is a *star barrier* — it synchronises with every solver thread once
//! per macro step and so cannot deadlock by construction — but two solver
//! threads can: if thread A needs a same-step value computed on thread B
//! while B needs one from A, both block at the rendezvous forever.
//!
//! The pass builds a wait-for graph over solver threads — an edge
//! `t(b) -> t(a)` for every effective flow `a -> b` (capsule relay chains
//! resolved) where `b` is direct-feedthrough and the threads differ — and
//! reports any cycle.

use crate::diagnostic::{Diagnostic, Severity};
use crate::model_pass::effective_streamer_edges;
use std::collections::{BTreeMap, BTreeSet};
use urt_core::model::UnifiedModel;
use urt_dataflow::graph::topo_order;

/// Runs the thread-plan deadlock pass.
pub fn run(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
    // wait_for[t] = threads whose rendezvous `t` blocks on.
    let mut wait_for: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (a, b) in effective_streamer_edges(model) {
        let (ta, tb) = (model.streamer_thread(a), model.streamer_thread(b));
        if ta != tb && model.streamer_feedthrough(b) {
            wait_for.entry(tb).or_default().insert(ta);
            wait_for.entry(ta).or_default();
        }
    }
    let threads: Vec<usize> = wait_for.keys().copied().collect();
    let index: BTreeMap<usize, usize> = threads.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let edges: Vec<(usize, usize)> =
        wait_for.iter().flat_map(|(t, waits)| waits.iter().map(|w| (index[w], index[t]))).collect();
    if let Err(cycle) = topo_order(threads.len(), &edges) {
        let stuck: Vec<String> = cycle.into_iter().map(|i| threads[i].to_string()).collect();
        out.push(
            Diagnostic::new(
                "URT206",
                Severity::Error,
                format!("{}/threads", model.name()),
                format!(
                    "rendezvous deadlock: solver threads {} wait on each other for same-step values",
                    stuck.join(", ")
                ),
            )
            .suggest(
                "put the mutually dependent streamers on one thread, or break the dependency with a non-feedthrough streamer",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_core::model::ModelBuilder;
    use urt_dataflow::flowtype::FlowType;

    /// Two streamers exchanging same-step values; thread layout decides
    /// whether their rendezvous can deadlock.
    fn cross_model(threads: (usize, usize), feedthrough_back: bool) -> UnifiedModel {
        let mut b = ModelBuilder::new("plan");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s1, "u", FlowType::scalar());
        b.streamer_out(s2, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.flow_between_streamers(s1, "y", s2, "u");
        b.flow_between_streamers(s2, "y", s1, "u");
        b.assign_thread(s1, threads.0);
        b.assign_thread(s2, threads.1);
        // s1 is an integrator unless the test wants a full algebraic
        // cycle; the deadlock exists either way when threads differ.
        b.streamer_feedthrough(s1, feedthrough_back);
        b.build()
    }

    #[test]
    fn cross_thread_mutual_waits_deadlock() {
        let mut out = Vec::new();
        run(&cross_model((0, 1), true), &mut out);
        let d = out.iter().find(|d| d.code == "URT206").expect("URT206 reported");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains('0') && d.message.contains('1'));
    }

    #[test]
    fn a_deadlock_report_names_neither_downstream_nor_in_between_threads() {
        // Feedthrough streamer s{i} on thread i, one input per flow.
        let stuck = |n: usize, flows: &[(usize, usize)]| {
            let mut b = ModelBuilder::new("plan");
            let s: Vec<_> = (0..n).map(|i| b.streamer(format!("s{i}"), "rk4")).collect();
            for (i, &sref) in s.iter().enumerate() {
                b.streamer_out(sref, "y", FlowType::scalar());
                b.assign_thread(sref, i);
            }
            for (k, &(from, to)) in flows.iter().enumerate() {
                b.streamer_in(s[to], format!("u{k}"), FlowType::scalar());
                b.flow_between_streamers(s[from], "y", s[to], format!("u{k}"));
            }
            let mut out = Vec::new();
            run(&b.build(), &mut out);
            assert_eq!(out.len(), 1, "{out:#?}");
            out.remove(0).message
        };
        // Threads 0 <-> 1, and 2 waits on 1 without being waited on.
        assert!(stuck(3, &[(0, 1), (1, 0), (1, 2)]).contains("threads 0, 1 wait"));
        // Thread 2 sits between the 0 <-> 1 and 3 <-> 4 cycles.
        let between = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 3)];
        assert!(stuck(5, &between).contains("threads 0, 1, 3, 4 wait"));
    }

    #[test]
    fn same_thread_never_deadlocks() {
        let mut out = Vec::new();
        run(&cross_model((0, 0), true), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn integrator_breaks_the_wait_cycle() {
        // s1 non-feedthrough: s1 does not need s2's same-step value, so
        // thread 0 never blocks on thread 1.
        let mut out = Vec::new();
        run(&cross_model((0, 1), false), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }
}

//! Cross-group flow classification (`URT207`).
//!
//! Elaboration keeps streamers with distinct `assign_thread` declarations
//! in separate thread groups and lowers any flow between them into a
//! double-buffered channel: the producer group writes its sample during
//! macro step `k`, the buffers exchange roles at the barrier, and the
//! consumer group reads it at step `k+1` — a deterministic delay of
//! exactly one macro step (see DESIGN.md §9).
//!
//! That delay is only sound when the consumer is **non**-feedthrough: a
//! direct-feedthrough consumer's same-step output would silently read a
//! stale sample, breaking the zero-delay algebraic path the flow
//! declares. The pass walks the flattened leaf-to-leaf flows (capsule
//! relay chains resolved, the same flows as `URT007`) and
//!
//! * **errors** (`URT207`) on every cross-group edge into a
//!   direct-feedthrough consumer, and
//! * reports the induced one-step delay of each legal cross-group edge
//!   as an `Info` diagnostic, so the lint summary shows where the model
//!   trades latency for parallelism.

use crate::diagnostic::{Diagnostic, Severity};
use std::collections::HashSet;
use urt_core::model::{Flattening, StreamerRef, UnifiedModel};

/// Runs the cross-group flow classification pass over the flattening
/// `flat` of `model`.
pub fn run(model: &UnifiedModel, flat: &Flattening, out: &mut Vec<Diagnostic>) {
    // Several flows (one per port pair, or relay fan-out) can join the
    // same streamer pair; report each pair at most once, in first-seen
    // (deterministic) order.
    let mut seen: HashSet<(StreamerRef, StreamerRef)> = HashSet::new();
    for (a, b) in flat.flows.iter().map(|f| (f.from, f.to)) {
        if !seen.insert((a, b)) {
            continue;
        }
        let (ta, tb) = (model.streamer_thread(a), model.streamer_thread(b));
        if ta == tb {
            continue;
        }
        let from = model.streamer_name(a).unwrap_or("?");
        let to = model.streamer_name(b).unwrap_or("?");
        let path = format!("{}/{from}->{to}", model.name());
        if model.streamer_feedthrough(b) {
            out.push(
                Diagnostic::new(
                    "URT207",
                    Severity::Error,
                    path,
                    format!(
                        "cross-group flow `{from}` (thread {ta}) -> `{to}` (thread {tb}) feeds a \
                         direct-feedthrough consumer: the channel's one-macro-step delay breaks \
                         the zero-delay algebraic path"
                    ),
                )
                .suggest(
                    "mark the consumer non-feedthrough (it then reads the previous step's \
                     sample), or assign both streamers to the same thread",
                ),
            );
        } else {
            out.push(Diagnostic::new(
                "URT207",
                Severity::Info,
                path,
                format!(
                    "flow `{from}` (thread {ta}) -> `{to}` (thread {tb}) crosses thread groups: \
                     delivered through a double-buffered channel with a one-macro-step delay"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urt_core::model::ModelBuilder;
    use urt_dataflow::flowtype::FlowType;

    /// The pass over `model` and its flattening.
    fn run(model: &UnifiedModel, out: &mut Vec<Diagnostic>) {
        super::run(model, &model.flatten(), out);
    }

    fn chain(threads: (usize, usize), consumer_feedthrough: bool) -> UnifiedModel {
        let mut b = ModelBuilder::new("plan");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.flow_between_streamers(s1, "y", s2, "u");
        b.streamer_feedthrough(s1, false);
        b.streamer_feedthrough(s2, consumer_feedthrough);
        b.assign_thread(s1, threads.0);
        b.assign_thread(s2, threads.1);
        b.build()
    }

    #[test]
    fn cross_group_feedthrough_consumer_is_an_error() {
        let mut out = Vec::new();
        run(&chain((0, 1), true), &mut out);
        let d = out.iter().find(|d| d.code == "URT207").expect("URT207 reported");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.path, "plan/s1->s2");
        assert!(d.message.contains("zero-delay"), "{}", d.message);
        assert!(d.suggestion.as_deref().unwrap().contains("non-feedthrough"));
    }

    #[test]
    fn legal_cross_group_flow_reports_the_delay() {
        let mut out = Vec::new();
        run(&chain((0, 1), false), &mut out);
        let d = out.iter().find(|d| d.code == "URT207").expect("URT207 info");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("one-macro-step delay"), "{}", d.message);
    }

    #[test]
    fn same_thread_flows_are_silent() {
        let mut out = Vec::new();
        run(&chain((0, 0), true), &mut out);
        assert!(out.is_empty(), "{out:#?}");
        let mut out = Vec::new();
        run(&chain((3, 3), false), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn relay_fanout_reports_each_pair_once() {
        use urt_core::model::FlowEnd;
        // s1 -> c.d twice-read by s2: one effective pair, one diagnostic.
        let mut b = ModelBuilder::new("fan");
        let c = b.capsule("c");
        let s1 = b.streamer("s1", "rk4");
        let s2 = b.streamer("s2", "rk4");
        b.capsule_dport(c, "d", FlowType::scalar());
        b.streamer_out(s1, "y", FlowType::scalar());
        b.streamer_in(s2, "u", FlowType::scalar());
        b.streamer_in(s2, "v", FlowType::scalar());
        b.flow(FlowEnd::Streamer(s1, "y".into()), FlowEnd::Capsule(c, "d".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(s2, "u".into()));
        b.flow(FlowEnd::Capsule(c, "d".into()), FlowEnd::Streamer(s2, "v".into()));
        b.streamer_feedthrough(s1, false);
        b.streamer_feedthrough(s2, false);
        b.assign_thread(s1, 0);
        b.assign_thread(s2, 1);
        let mut out = Vec::new();
        run(&b.build(), &mut out);
        assert_eq!(out.iter().filter(|d| d.code == "URT207").count(), 1, "{out:#?}");
    }
}

//! `ProtocolAutomaton::validate` against `accept` on corpus traces.
//!
//! `validate` is the verdict-only fold the fleet checker runs; `accept`
//! also builds the action spans. They must agree on every trace: the
//! same final state on acceptance, the same `ProtocolError` (index,
//! state, marker, violation) on rejection. The traces are the timed
//! simulations of every `fuzz/corpus/` entry, and random mutations of
//! them (deleted, duplicated, swapped and rewritten markers), which
//! reach the rejection paths.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use rossl_fuzz::Corpus;
use rossl_model::{Instant, JobId, SocketId};
use rossl_timing::UniformCost;
use rossl_trace::{Marker, ProtocolAutomaton};

/// `(n_sockets, trace)` for every corpus entry that simulates.
fn corpus_traces() -> &'static [(usize, Vec<Marker>)] {
    static TRACES: OnceLock<Vec<(usize, Vec<Marker>)>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../fuzz/corpus"));
        let corpus = Corpus::load(dir).expect("fuzz/corpus loads");
        corpus
            .entries()
            .iter()
            .filter_map(|input| {
                let cost = UniformCost::new(StdRng::seed_from_u64(input.seed));
                let result = input
                    .system()
                    .simulate(&input.arrival_sequence(), cost, Instant(input.horizon))
                    .ok()?;
                Some((input.n_sockets, result.trace.markers().to_vec()))
            })
            .collect()
    })
}

fn assert_agree(n_sockets: usize, trace: &[Marker]) -> Result<(), TestCaseError> {
    let sts = ProtocolAutomaton::new(n_sockets);
    let accepted = sts.accept(trace).map(|run| run.final_state());
    prop_assert_eq!(sts.validate(trace), accepted);
    Ok(())
}

#[test]
fn validate_agrees_with_accept_on_every_corpus_trace() {
    let traces = corpus_traces();
    assert!(traces.len() > 100, "only {} corpus entries simulate", traces.len());
    for (n_sockets, trace) in traces {
        assert!(ProtocolAutomaton::new(*n_sockets).validate(trace).is_ok());
        assert_agree(*n_sockets, trace).expect("validate and accept agree");
    }
}

/// One edit at a random position: `op` picks delete, duplicate, swap
/// with the successor, socket rewrite or job-id rewrite.
fn mutate(trace: &mut Vec<Marker>, op: u8, at: usize, value: u64) {
    if trace.is_empty() {
        return;
    }
    let i = at % trace.len();
    match op {
        0 => {
            trace.remove(i);
        }
        1 => {
            let m = trace[i].clone();
            trace.insert(i, m);
        }
        2 if i + 1 < trace.len() => trace.swap(i, i + 1),
        3 => {
            if let Marker::ReadEnd { sock, .. } = &mut trace[i] {
                *sock = SocketId(value as usize % 4);
            }
        }
        _ => {
            let renamed = |j: &rossl_model::Job| {
                rossl_model::Job::new(JobId(value % 8), j.task(), j.data().to_vec())
            };
            trace[i] = match &trace[i] {
                Marker::Dispatch(j) => Marker::Dispatch(renamed(j)),
                Marker::Execution(j) => Marker::Execution(renamed(j)),
                Marker::Completion(j) => Marker::Completion(renamed(j)),
                other => other.clone(),
            };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validate_agrees_with_accept_on_mutated_corpus_traces(
        entry in 0usize..10_000,
        edits in proptest::collection::vec((0u8..5, 0usize..100_000, 0u64..64), 1..4),
        cut in 0usize..100_000,
    ) {
        let traces = corpus_traces();
        let (n_sockets, trace) = &traces[entry % traces.len()];
        // A prefix keeps the edits near where the protocol still matters
        // and covers traces that stop mid-action.
        let keep = if trace.is_empty() { 0 } else { cut % trace.len() + 1 };
        let mut trace = trace[..keep].to_vec();
        for (op, at, value) in edits {
            mutate(&mut trace, op, at, value);
        }
        assert_agree(*n_sockets, &trace)?;
    }
}

//! Property suite for the online co-scheduler.
//!
//! Two invariants from the PR contract:
//!
//! * **Conservation** — under any interleaving of admit / complete /
//!   fail / cancel events, `admitted_cores == released_cores +
//!   committed_cores` holds at every step, and a full drain leaves the
//!   residency map empty with the two counters equal.
//! * **Backfill protects the head** — on the same submission stream,
//!   with completions delivered in predicted order, the first queued
//!   job starts (and therefore completes) at the same virtual time
//!   whether backfill is on or off. This is the EASY guarantee the
//!   virtual-time rule was chosen for; a structural rule cannot give
//!   it.

use runtime::{SimRunConfig, WorkloadMap};
use scheduler::cosched::{Admission, CoScheduler, CoschedConfig};
use scheduler::{EnsembleShape, NodeBudget, ScanOptions};
use support::prop::prelude::*;

fn base_config() -> SimRunConfig {
    let placeholder = EnsembleShape::uniform(1, 16, 1, 8);
    let mut cfg = SimRunConfig::paper(placeholder.materialize(&[0; 2]));
    cfg.workloads = WorkloadMap::small_defaults();
    cfg.n_steps = 4;
    cfg
}

fn sched(nodes: usize, backfill: bool) -> CoScheduler {
    let mut cfg = CoschedConfig::new(NodeBudget { max_nodes: nodes, cores_per_node: 32 });
    cfg.backfill = backfill;
    cfg.scan = ScanOptions { workers: 1, ..ScanOptions::default() };
    CoScheduler::new(cfg, base_config())
}

/// A small palette of shapes that mixes jobs that share nodes, fill
/// nodes, and span nodes.
fn shape_palette(i: usize) -> EnsembleShape {
    match i % 5 {
        0 => EnsembleShape::uniform(1, 4, 1, 4),  // 8 cores
        1 => EnsembleShape::uniform(1, 8, 1, 8),  // 16 cores
        2 => EnsembleShape::uniform(1, 16, 1, 8), // 24 cores
        3 => EnsembleShape::uniform(2, 8, 1, 4),  // 2 members, 24 cores
        _ => EnsembleShape::uniform(2, 16, 1, 8), // 2 members, 48 cores
    }
}

fn shape_strategy() -> impl Strategy<Value = EnsembleShape> {
    (0usize..5).prop_map(shape_palette)
}

/// One step of a random schedule-driving program.
#[derive(Debug, Clone)]
enum Event {
    Submit(EnsembleShape),
    /// Complete the k-th open reservation (mod count).
    Complete(usize),
    /// Cancel the k-th queued job (mod depth).
    CancelQueued(usize),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    (0u8..4, 0usize..5, 0usize..8).prop_map(|(kind, shape, k)| match kind {
        0 | 1 => Event::Submit(shape_palette(shape)),
        2 => Event::Complete(k),
        _ => Event::CancelQueued(k),
    })
}

/// The open reservation chosen deterministically by index.
fn pick_open(s: &CoScheduler, k: usize) -> Option<u64> {
    let open: Vec<u64> = s.residency().reservations().map(|r| r.job).collect();
    if open.is_empty() {
        None
    } else {
        Some(open[k % open.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Residency accounting is conserved under random admit /
    /// complete / fail / cancel interleavings, and a final drain
    /// leaves zero residual capacity committed.
    #[test]
    fn residency_accounting_is_conserved(
        events in prop::collection::vec(event_strategy(), 1..24),
        nodes in 2usize..4,
    ) {
        let mut s = sched(nodes, true);
        let mut next_job = 0u64;
        let mut queued: Vec<u64> = Vec::new();
        for event in events {
            match event {
                Event::Submit(shape) => {
                    next_job += 1;
                    match s.submit(next_job, shape).unwrap() {
                        Admission::Queued { .. } => queued.push(next_job),
                        Admission::Placed(_) | Admission::Shed | Admission::Infeasible => {}
                    }
                }
                Event::Complete(k) => {
                    if let Some(job) = pick_open(&s, k) {
                        for (started, _) in s.release(job).unwrap() {
                            queued.retain(|&q| q != started);
                        }
                    }
                }
                Event::CancelQueued(k) => {
                    if !queued.is_empty() {
                        let job = queued[k % queued.len()];
                        if s.cancel_queued(job) {
                            queued.retain(|&q| q != job);
                        }
                    }
                }
            }
            let r = s.residency();
            prop_assert_eq!(
                r.admitted_cores(),
                r.released_cores() + r.committed_cores(),
                "conservation must hold after every event"
            );
        }
        // Drain: complete everything open (which may start queued
        // jobs), until idle.
        let mut guard = 0;
        while !s.residency().is_empty() {
            let job = pick_open(&s, 0).unwrap();
            for (started, _) in s.release(job).unwrap() {
                queued.retain(|&q| q != started);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "drain must terminate");
        }
        for job in queued {
            s.cancel_queued(job);
        }
        let r = s.residency();
        prop_assert!(r.is_empty(), "residency map must be empty after drain");
        prop_assert_eq!(r.committed_cores(), 0u64);
        prop_assert_eq!(r.admitted_cores(), r.released_cores());
        prop_assert!(s.is_idle());
    }

    /// With completions delivered in predicted order, backfill never
    /// changes when the first queued job (the head) starts or
    /// completes, relative to plain FIFO on the same stream.
    #[test]
    fn backfill_preserves_the_heads_schedule(
        shapes in prop::collection::vec(shape_strategy(), 2..10),
        nodes in 2usize..4,
    ) {
        // Drive one scheduler over the batch-then-drain stream and
        // record every job's start virtual time.
        let drive = |backfill: bool| -> (Option<u64>, Vec<(u64, f64)>) {
            let mut s = sched(nodes, backfill);
            let mut first_queued: Option<u64> = None;
            let mut starts: Vec<(u64, f64)> = Vec::new();
            for (i, shape) in shapes.iter().enumerate() {
                let job = i as u64 + 1;
                match s.submit(job, shape.clone()).unwrap() {
                    Admission::Placed(_) => starts.push((job, s.virtual_now())),
                    Admission::Queued { .. } => {
                        if first_queued.is_none() {
                            first_queued = Some(job);
                        }
                    }
                    Admission::Shed | Admission::Infeasible => {}
                }
            }
            // Drain in predicted-completion order (the model world the
            // EASY rule reasons in).
            let mut guard = 0;
            while !s.residency().is_empty() {
                let next = s
                    .residency()
                    .reservations()
                    .min_by(|a, b| {
                        a.predicted_end.total_cmp(&b.predicted_end).then(a.seq.cmp(&b.seq))
                    })
                    .map(|r| r.job)
                    .unwrap();
                for (job, _) in s.release(next).unwrap() {
                    starts.push((job, s.virtual_now()));
                }
                guard += 1;
                assert!(guard < 10_000, "drain must terminate");
            }
            (first_queued, starts)
        };
        let (head_fifo, starts_fifo) = drive(false);
        let (head_bf, starts_bf) = drive(true);
        prop_assert_eq!(head_fifo, head_bf, "same stream, same first queued job");
        if let Some(head) = head_fifo {
            let start_of = |log: &[(u64, f64)]| {
                log.iter().find(|(j, _)| *j == head).map(|(_, t)| *t)
            };
            let fifo = start_of(&starts_fifo);
            let bf = start_of(&starts_bf);
            prop_assert_eq!(
                fifo.map(f64::to_bits), bf.map(f64::to_bits),
                "head start must be bit-identical with and without backfill \
                 (fifo {:?} vs backfill {:?})", fifo, bf
            );
        }
    }
}

//! Load generators: the in-process open and closed loops over
//! `ServeHandle`, and the closed loop over a `PirSession`.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pir_serve::{PendingQuery, ServeError, ServeHandle};
use pir_wire::{PirSession, WireError};
use rand::rngs::StdRng;
use rand::Rng;

use crate::measure::{ms_since, Phase};
use crate::stack::{TABLE, TENANT};
use crate::trace::Tracer;

/// When requests are issued.
pub enum Schedule {
    /// Each request is due at its offset from the phase start, whether or
    /// not earlier requests have completed.
    Open(Vec<(Duration, u64)>),
    /// `window` requests are outstanding until the measured interval
    /// ends; indices are drawn uniformly below `entries` from `rng`.
    Closed {
        window: usize,
        entries: u64,
        rng: StdRng,
    },
}

/// Poisson arrivals at `rate` per second for `duration`, with uniform
/// indices.
pub fn poisson(
    rng: &mut StdRng,
    rate: f64,
    duration: Duration,
    entries: u64,
) -> Vec<(Duration, u64)> {
    let mut at = 0.0f64;
    let mut arrivals = Vec::new();
    loop {
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= duration.as_secs_f64() {
            return arrivals;
        }
        arrivals.push((Duration::from_secs_f64(at), rng.gen_range(0..entries)));
    }
}

/// The part of a phase whose answers count toward throughput: from `skip`
/// after the phase starts to its end, so a closed loop's ramp-up and drain
/// are left out. A closed loop stops submitting at `end`.
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    pub fn new(start: Instant, duration: Duration, skip: Duration) -> Self {
        Self {
            start: start + skip,
            end: start + duration,
        }
    }

    pub fn contains(&self, at: Instant) -> bool {
        at >= self.start && at <= self.end
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

struct Issued {
    pending: Result<PendingQuery, ServeError>,
    index: u64,
    due: Instant,
    /// Reserved root span id, 0 when this request is not traced.
    root: u64,
}

/// Drive `handle` with one submitting thread and one completing thread.
///
/// `query` returns a non-blocking `PendingQuery`, so the submitter keeps to
/// the schedule while the completer waits on the futures in submission
/// order (each party's replica answers its queue in that order).
/// Latency runs from the due time (open loop) or submit (closed loop) to
/// completion, and every row is checked with `verify(index, version, row)`.
pub fn in_process(
    handle: &ServeHandle,
    schedule: Schedule,
    verify: &dyn Fn(u64, u64, &[u8]) -> bool,
    limit_ms: f64,
    interval: &Interval,
    tracer: &mut Tracer,
) -> Phase {
    let start = Instant::now();
    let (issued_tx, issued_rx) = mpsc::channel::<Issued>();
    let (slot_tx, slot_rx) = mpsc::channel::<()>();
    let closed = matches!(schedule, Schedule::Closed { .. });
    let mut submit_tracer = tracer.fork();
    let (mut phase, lag) = std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut lag = Vec::new();
            let mut issue = |index: u64, due: Instant, tracer: &mut Tracer| {
                let sent = Instant::now();
                lag.push(ms_since(due, sent));
                let traced = tracer.traces_at(due);
                let pending = handle.query(TABLE, TENANT, index);
                let root = if traced { Tracer::reserve() } else { 0 };
                if traced {
                    tracer.record("serve.query", root, root, sent, Instant::now());
                }
                issued_tx
                    .send(Issued {
                        pending,
                        index,
                        due,
                        root,
                    })
                    .expect("completer is alive");
            };
            match schedule {
                Schedule::Open(arrivals) => {
                    for (offset, index) in arrivals {
                        let due = start + offset;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        issue(index, due, &mut submit_tracer);
                    }
                }
                Schedule::Closed {
                    window,
                    entries,
                    mut rng,
                } => {
                    let mut free = window;
                    while Instant::now() < interval.end {
                        if free == 0 {
                            slot_rx.recv().expect("completer is alive");
                            free += 1;
                        }
                        free -= 1;
                        let index = rng.gen_range(0..entries);
                        issue(index, Instant::now(), &mut submit_tracer);
                    }
                }
            }
            (lag, submit_tracer)
        });

        let mut phase = Phase::default();
        for issued in issued_rx {
            phase.attempted += 1;
            let pending = match issued.pending {
                Ok(pending) => pending,
                Err(err) => {
                    count_serve_error(&mut phase, &err);
                    continue;
                }
            };
            let waited = Instant::now();
            let outcome = pending.wait_versioned();
            let done = Instant::now();
            if closed {
                // The submitter may have finished; the slot is then unused.
                let _ = slot_tx.send(());
            }
            let latency = ms_since(issued.due, done);
            match outcome {
                Ok((row, version)) if verify(issued.index, version, &row) => {
                    phase.verified += 1;
                    phase.latency.push((latency, issued.root != 0));
                    phase.within_limit += u64::from(latency <= limit_ms);
                    phase.in_window += u64::from(interval.contains(done));
                }
                Ok(_) => phase.wrong += 1,
                Err(err) => count_serve_error(&mut phase, &err),
            }
            if issued.root != 0 {
                tracer.record("serve.wait", issued.root, issued.root, waited, done);
                tracer.record_as(issued.root, "request", 0, issued.root, issued.due, done);
            }
        }
        let (lag, submit_tracer) = submitter.join().expect("submitter thread");
        tracer.absorb(submit_tracer);
        (phase, lag)
    });
    phase.lag = lag;
    phase
}

fn count_serve_error(phase: &mut Phase, err: &ServeError) {
    if err.is_shed() {
        phase.shed += 1;
    } else {
        phase.failed += 1;
    }
}

struct InFlight {
    index: u64,
    submitted: Instant,
    root: u64,
}

/// A closed loop of `window` outstanding queries over one session until the
/// interval ends, then a drain. Latency runs from submit to completion; the
/// generator's lateness is the gap between a completion and the submit
/// that refills its slot. `rng` draws the indices and the keys.
pub fn session_closed(
    session: &mut PirSession,
    window: usize,
    interval: &Interval,
    rng: &mut StdRng,
    verify: &dyn Fn(u64, u64, &[u8]) -> bool,
    limit_ms: f64,
    tracer: &mut Tracer,
) -> Phase {
    let entries = session.schema(TABLE).expect("table in catalog").entries;
    let mut phase = Phase::default();
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    let mut freed_at: Option<Instant> = None;
    loop {
        while session.in_flight() < window && Instant::now() < interval.end {
            let index = rng.gen_range(0..entries);
            let submitted = Instant::now();
            if let Some(freed) = freed_at.take() {
                phase.lag.push(ms_since(freed, submitted));
            }
            let traced = tracer.traces_at(submitted);
            let root = if traced { Tracer::reserve() } else { 0 };
            let id = session.submit(TABLE, index, rng).expect("session submit");
            if traced {
                tracer.record("session.submit", root, root, submitted, Instant::now());
            }
            phase.attempted += 1;
            inflight.insert(
                id,
                InFlight {
                    index,
                    submitted,
                    root,
                },
            );
        }
        if session.in_flight() == 0 && session.ready() == 0 {
            break;
        }
        let polled = Instant::now();
        let completed = session.poll().expect("session healthy");
        let done = Instant::now();
        let query = inflight
            .remove(&completed.query_id)
            .expect("completion of a submitted query");
        if query.root != 0 {
            tracer.record("session.poll", query.root, query.root, polled, done);
        }
        if let Err(WireError::VersionSkew { .. }) = completed.outcome {
            // The query straddled two reloads even after the session's own
            // retry. The error is typed and retryable, so the client submits
            // it again; its latency keeps running from the first submit.
            phase.resubmitted += 1;
            let id = session
                .submit(TABLE, query.index, rng)
                .expect("session submit");
            inflight.insert(id, query);
            continue;
        }
        freed_at = Some(done);
        let latency = ms_since(query.submitted, done);
        match completed.outcome {
            Ok(row) if verify(query.index, completed.table_version, &row) => {
                phase.verified += 1;
                phase.latency.push((latency, query.root != 0));
                phase.within_limit += u64::from(latency <= limit_ms);
                phase.in_window += u64::from(interval.contains(done));
            }
            Ok(_) => phase.wrong += 1,
            Err(err) if err.is_shed() => phase.shed += 1,
            Err(_) => phase.failed += 1,
        }
        if query.root != 0 {
            tracer.record_as(query.root, "request", 0, query.root, query.submitted, done);
        }
    }
    phase
}

//! The open-loop load driver: one generator thread fires pre-generated
//! events at their intended times, one collector thread claims replies as
//! they resolve. Latency is taken from the intended send time, so a stall
//! that delays later sends is charged to every request it delays.

use longtail_serve::{PendingResponse, RecommendResponse, ServeError};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What happened to one request.
#[derive(Debug)]
pub struct Outcome {
    pub intended: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    /// When the reply was claimed (the submit time for a refused submit).
    pub claimed: Instant,
    pub result: Result<RecommendResponse, ServeError>,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        self.claimed.duration_since(self.intended).as_secs_f64() * 1e3
    }
}

/// A request the generator has submitted, as the collector receives it.
pub struct InFlight {
    pub id: usize,
    pub intended: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub handle: Result<PendingResponse, ServeError>,
}

/// How long the collector parks on the oldest unresolved reply before
/// sweeping the others again.
const PARK: Duration = Duration::from_micros(200);

/// Claim every reply sent down `rx` until the generator hangs up and
/// nothing is left in flight; returns outcomes indexed by request id.
pub fn collect(rx: mpsc::Receiver<InFlight>, n_requests: usize) -> Vec<Option<Outcome>> {
    let mut claims = Claims {
        outcomes: (0..n_requests).map(|_| None).collect(),
        waiting: Vec::new(),
    };
    let mut open = true;
    loop {
        loop {
            match rx.try_recv() {
                Ok(f) => claims.accept(f),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        if claims.sweep() {
            continue;
        }
        if !open && claims.waiting.is_empty() {
            break;
        }
        if let Some((_, handle)) = claims.waiting.first_mut() {
            if let Some(result) = handle.wait_timeout(PARK) {
                let (f, _) = claims.waiting.remove(0);
                claims.finish(f, Instant::now(), result);
            }
        } else {
            match rx.recv_timeout(PARK) {
                Ok(f) => claims.accept(f),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
            }
        }
    }
    claims.outcomes
}

struct Claims {
    outcomes: Vec<Option<Outcome>>,
    waiting: Vec<(InFlight, PendingResponse)>,
}

impl Claims {
    fn accept(&mut self, mut f: InFlight) {
        match std::mem::replace(&mut f.handle, Err(ServeError::ShuttingDown)) {
            Ok(handle) => self.waiting.push((f, handle)),
            Err(refused) => {
                let at = f.submit_end;
                self.finish(f, at, Err(refused));
            }
        }
    }

    /// Claim every resolved reply; returns whether any was.
    fn sweep(&mut self) -> bool {
        let mut claimed = false;
        let mut i = 0;
        while i < self.waiting.len() {
            if let Some(result) = self.waiting[i].1.try_recv() {
                let (f, _) = self.waiting.remove(i);
                self.finish(f, Instant::now(), result);
                claimed = true;
            } else {
                i += 1;
            }
        }
        claimed
    }

    fn finish(
        &mut self,
        f: InFlight,
        claimed: Instant,
        result: Result<RecommendResponse, ServeError>,
    ) {
        self.outcomes[f.id] = Some(Outcome {
            intended: f.intended,
            submit_start: f.submit_start,
            submit_end: f.submit_end,
            claimed,
            result,
        });
    }
}

/// Sleep until `at` (no spinning: the load must not steal the workers'
/// cores); returns how late the wake-up ran.
pub fn sleep_until(at: Instant) -> Duration {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
    Instant::now().saturating_duration_since(at)
}

/// One open-loop phase: fire `events[i]` at `start + offset(i)` seconds on
/// this thread while a collector thread claims replies. `fire` gets the
/// event index, its intended send time and the channel to hand submitted
/// requests to; it returns whether the event was a request. Returns the
/// outcomes by request id (ids are assigned in firing order), the lateness
/// of every send in ms, and the phase's start and end.
pub fn drive<E>(
    events: &[E],
    offset: impl Fn(&E) -> f64,
    n_requests: usize,
    mut fire: impl FnMut(usize, &E, Instant, &mpsc::Sender<InFlight>),
) -> Phase {
    let (tx, rx) = mpsc::channel();
    // A short lead so the first sends are not late by construction.
    let start = Instant::now() + Duration::from_millis(5);
    let mut late_ms = Vec::with_capacity(events.len());
    let outcomes = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, n_requests));
        for (i, event) in events.iter().enumerate() {
            let intended = start + Duration::from_secs_f64(offset(event));
            late_ms.push(sleep_until(intended).as_secs_f64() * 1e3);
            fire(i, event, intended, &tx);
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    Phase {
        outcomes,
        late_ms,
        start,
        end: Instant::now(),
    }
}

/// The result of [`drive`].
pub struct Phase {
    pub outcomes: Vec<Option<Outcome>>,
    pub late_ms: Vec<f64>,
    pub start: Instant,
    /// When the last reply was claimed.
    pub end: Instant,
}

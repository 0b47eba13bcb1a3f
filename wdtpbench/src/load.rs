//! The load generator: one connection per tenant, each a closed loop
//! keeping a fixed number of dockets in flight, with every verdict checked
//! against its in-process reference.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wdte_core::{VerificationReport, WatermarkResult};
use wdte_server::DisputeClient;

use crate::trace::Tracer;
use crate::workload::{Docket, SetClaim, Source};

/// One tenant's connection to the judge.
pub struct Conn {
    pub tenant: usize,
    pub client: DisputeClient,
    pub source: Source,
    /// Claims of every docket answered on this connection so far.
    pub claims_done: u64,
    /// Claims of every docket sent on this connection so far.
    pub claims_sent: u64,
    /// Verdicts that differed from their in-process reference, with the
    /// first difference seen.
    pub wrong: u64,
    pub first_wrong: Option<String>,
    next_docket_id: u64,
}

/// One answered docket.
pub struct Completed {
    pub tenant: usize,
    pub sent: Instant,
    pub received: Instant,
    pub claims: usize,
    pub correct: usize,
}

/// Bit-for-bit equality of two reports.
fn same(a: &VerificationReport, b: &VerificationReport) -> bool {
    a.verified == b.verified
        && a.instance_matches == b.instance_matches
        && a.bit_agreement.to_bits() == b.bit_agreement.to_bits()
        && a.queries_issued == b.queries_issued
}

impl Conn {
    pub fn new(tenant: usize, client: DisputeClient, source: Source) -> Self {
        Conn {
            tenant,
            client,
            source,
            claims_done: 0,
            claims_sent: 0,
            wrong: 0,
            first_wrong: None,
            next_docket_id: 0,
        }
    }

    fn docket_id(&mut self) -> u64 {
        self.next_docket_id += 1;
        ((self.tenant as u64) << 40) | self.next_docket_id
    }

    /// Checks a docket's verdicts; returns how many are correct.
    fn check(&mut self, docket: &Docket, verdicts: &[WatermarkResult<VerificationReport>]) -> usize {
        let set: Arc<Vec<SetClaim>> = Arc::clone(self.source.set());
        let mut correct = 0;
        for (position, &pick) in docket.picks.iter().enumerate() {
            let expected = &set[pick].expected;
            match verdicts.get(position) {
                Some(Ok(report)) if same(report, expected) => correct += 1,
                other => {
                    self.wrong += 1;
                    self.first_wrong.get_or_insert_with(|| {
                        format!(
                            "tenant {} dispute {position}: got {other:?}, expected {expected:?}",
                            self.tenant
                        )
                    });
                }
            }
        }
        self.claims_done += docket.picks.len() as u64;
        correct
    }

    /// Sends one docket and waits for it (one docket in flight); returns
    /// its latency in ms.
    pub fn resolve(&mut self, docket: &Docket) -> Result<f64, String> {
        let start = Instant::now();
        self.claims_sent += docket.picks.len() as u64;
        let verdicts = self
            .client
            .resolve_docket(&docket.disputes)
            .map_err(|err| format!("tenant {}: {err}", self.tenant))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.check(docket, &verdicts);
        Ok(ms)
    }

    /// Runs the closed loop with `depth` dockets in flight until `until`,
    /// then drains what is in flight. With a tracer, every docket gets a
    /// root span and `send_docket` / `recv_docket` child spans.
    pub fn closed_loop(
        &mut self,
        until: Instant,
        depth: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Vec<Completed>, String> {
        let mut in_flight = VecDeque::with_capacity(depth);
        let mut completed = Vec::new();
        let mut next = self.source.next_docket();
        loop {
            while in_flight.len() < depth && Instant::now() < until {
                let id = self.docket_id();
                let root = tracer.as_deref_mut().map(|tracer| tracer.open("docket", None, id));
                let send =
                    tracer.as_deref_mut().map(|tracer| tracer.open("client.send_docket", root, id));
                let sent = Instant::now();
                let ticket = self
                    .client
                    .send_docket(&next.disputes)
                    .map_err(|err| format!("tenant {} send: {err}", self.tenant))?;
                if let (Some(tracer), Some(send)) = (tracer.as_deref_mut(), send) {
                    tracer.close(send);
                }
                self.claims_sent += next.picks.len() as u64;
                let docket = std::mem::replace(&mut next, self.source.next_docket());
                in_flight.push_back((ticket, sent, docket, root, id));
            }
            let Some((ticket, sent, docket, root, id)) = in_flight.pop_front() else {
                break;
            };
            let recv = tracer.as_deref_mut().map(|tracer| tracer.open("client.recv_docket", root, id));
            let verdicts = self
                .client
                .recv_docket(ticket)
                .map_err(|err| format!("tenant {} recv: {err}", self.tenant))?;
            let received = Instant::now();
            if let Some(tracer) = tracer.as_deref_mut() {
                for span in [recv, root].into_iter().flatten() {
                    tracer.close(span);
                }
            }
            let correct = self.check(&docket, &verdicts);
            completed.push(Completed {
                tenant: self.tenant,
                sent,
                received,
                claims: docket.picks.len(),
                correct,
            });
        }
        Ok(completed)
    }
}

/// One connection's answered dockets and, when traced, its spans.
type LoopOutcome = Result<(Vec<Completed>, Option<Tracer>), String>;

/// What a timed window saw.
pub struct Window {
    pub start: Instant,
    pub seconds: f64,
    pub completed: Vec<Completed>,
    pub tracer: Option<Tracer>,
}

impl Window {
    /// Runs every connection's closed loop, `depth` dockets deep, on its
    /// own thread for `seconds`, then drains them.
    pub fn run(
        conns: &mut [Conn],
        seconds: f64,
        depth: usize,
        traced: bool,
        origin: Instant,
    ) -> Result<Window, String> {
        let start = Instant::now();
        let until = start + Duration::from_secs_f64(seconds);
        let results: Vec<LoopOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let mut tracer = traced.then(|| Tracer::new(origin));
                        let completed = conn.closed_loop(until, depth, tracer.as_mut())?;
                        Ok((completed, tracer))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| Err("a load thread panicked".to_string()))
                })
                .collect()
        });
        let mut window = Window {
            start,
            seconds,
            completed: Vec::new(),
            tracer: traced.then(|| Tracer::new(origin)),
        };
        for result in results {
            let (completed, tracer) = result?;
            window.completed.extend(completed);
            if let (Some(all), Some(tracer)) = (window.tracer.as_mut(), tracer) {
                all.absorb(tracer);
            }
        }
        Ok(window)
    }

    fn until(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }

    /// Dockets answered inside the window.
    fn inside(&self) -> impl Iterator<Item = &Completed> {
        let until = self.until();
        self.completed.iter().filter(move |docket| docket.received <= until)
    }

    pub fn claims(&self) -> usize {
        self.inside().map(|docket| docket.claims).sum()
    }

    pub fn correct(&self) -> usize {
        self.inside().map(|docket| docket.correct).sum()
    }

    pub fn claims_per_s(&self) -> f64 {
        self.correct() as f64 / self.seconds
    }

    /// Dockets answered inside the window.
    pub fn dockets(&self) -> usize {
        self.inside().count()
    }

    /// Latency of every docket answered inside the window, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.inside()
            .map(|docket| (docket.received - docket.sent).as_secs_f64() * 1e3)
            .collect()
    }

    /// Correct claims answered in the first and in the second half.
    pub fn halves(&self) -> (usize, usize) {
        let middle = self.start + Duration::from_secs_f64(self.seconds / 2.0);
        let (mut first, mut second) = (0, 0);
        for docket in self.inside() {
            if docket.received <= middle {
                first += docket.correct;
            } else {
                second += docket.correct;
            }
        }
        (first, second)
    }

    /// Claims answered inside the window, per connection.
    pub fn per_conn_claims(&self, conns: usize) -> Vec<usize> {
        let mut per = vec![0; conns];
        for docket in self.inside() {
            per[docket.tenant] += docket.claims;
        }
        per
    }
}

//! The serve session: a closed loop of two client connections against one
//! `mcs serve` (a child process in the untraced pass, an in-process
//! `Server` in the traced pass).
//!
//! * **A** – every phase-A plan once, cold, the connections taking turns:
//!   one submission in flight, so the latency is the unloaded one. With
//!   both workers busy on this 2-vCPU host cold latency is bimodal (jobs
//!   on one pooled problem contend on its counters, and the host does not
//!   always grant two cores): its run-to-run spread was 20–70 %.
//! * **B** – the same plans replayed in seeded shuffled order, both
//!   connections at once: cache hits, which do not compete for a core.
//! * **C** – both connections pipeline their share of the mix, then read
//!   the results: every fifth submission is a new plan, the rest are hot.
//!   This is the loaded measurement: both workers stay busy. It runs as
//!   two equal rounds and the faster one is the throughput.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mcs::core::engine::RunPlan;
use mcs::serve::{Client, Priority, Request, ServedResult, Source, StatsSnapshot};

use crate::workload::ServeSession;

/// Client connections. At most `nproc` on the 2-core reference host.
pub const CLIENTS: usize = 2;
/// Phase C runs as this many equal rounds, each timed on its own.
const PIPELINED_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Cold,
    Warm,
    Pipelined,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Cold => "A",
            Phase::Warm => "B",
            Phase::Pipelined => "C",
        }
    }
}

/// One submission, timed from just before the request is written to the
/// moment its result has been read.
#[derive(Debug, Clone)]
pub struct Sample {
    pub phase: Phase,
    pub client: usize,
    pub plan: usize,
    pub submitted: Instant,
    pub answered: Instant,
    /// Accepted, answered, served from where the phase expects, and (for a
    /// replay) bit-identical to the cold payload.
    pub ok: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.answered - self.submitted).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct SessionResult {
    pub samples: Vec<Sample>,
    /// Phase C, per round: submissions, and wall time from the first write
    /// to the last result.
    pub pipelined_rounds: Vec<(usize, f64)>,
    pub before_warm: StatsSnapshot,
    pub after_warm: StatsSnapshot,
    pub end: StatsSnapshot,
    /// Distinct plans submitted: each must have run cold exactly once.
    pub unique_plans: usize,
}

impl SessionResult {
    pub fn latencies_ms(&self, phase: Phase) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.phase == phase)
            .map(Sample::latency_ms)
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Throughput of the faster round of phase C. Both workers are busy
    /// in this phase and the host does not always grant two cores: over ten
    /// runs the whole phase's throughput spread 6–25 %.
    pub fn plans_per_s(&self) -> f64 {
        self.pipelined_rounds
            .iter()
            .map(|(n, wall_s)| *n as f64 / wall_s)
            .fold(0.0, f64::max)
    }

    /// The session-wide output checks, by name.
    pub fn checks(&self) -> Vec<(&'static str, bool)> {
        vec![
            (
                "serve: every submission answered correctly",
                self.failed() == 0,
            ),
            (
                "serve: cold_runs equals the unique plan count",
                self.end.cold_runs == self.unique_plans as u64,
            ),
            (
                "serve: replaying cached plans costs no xs lookups",
                self.after_warm.xs_lookups == self.before_warm.xs_lookups,
            ),
            ("serve: nothing rejected", self.end.rejected == 0),
        ]
    }
}

/// The submission each connection makes in each phase, in order.
fn share(order: &[usize], client: usize) -> Vec<usize> {
    order
        .iter()
        .copied()
        .skip(client)
        .step_by(CLIENTS)
        .collect()
}

/// Every protocol line the session sends, in per-connection order, for
/// replay by hand: `<phase> <connection> <request line>`.
pub fn request_lines(session: &ServeSession) -> String {
    let cold: Vec<usize> = (0..session.n_cold).collect();
    let mut out = String::new();
    for (phase, order) in [
        (Phase::Cold, &cold),
        (Phase::Warm, &session.replay),
        (Phase::Pipelined, &session.pipelined),
    ] {
        for client in 0..CLIENTS {
            for plan in share(order, client) {
                let line = Request::Submit {
                    plan: Box::new(session.plans[plan].clone()),
                    priority: Priority::Normal,
                    progress: false,
                }
                .to_line();
                out.push_str(&format!("{} {client} {line}\n", phase.label()));
            }
        }
    }
    out
}

type Payloads = Vec<Option<Arc<ServedResult>>>;

/// Closed loop: submit one plan, wait for its result, then the next.
fn closed_loop(
    client: &mut Client,
    who: usize,
    phase: Phase,
    plans: &[RunPlan],
    order: &[usize],
    cold: &Payloads,
) -> Vec<(Sample, Option<Arc<ServedResult>>)> {
    order
        .iter()
        .map(|&plan| {
            let submitted = Instant::now();
            let reply = client.run(&plans[plan], Priority::Normal);
            let answered = Instant::now();
            let (ok, payload) = match reply {
                Ok((source, result)) => match phase {
                    Phase::Cold => (source == Source::Run, Some(result)),
                    _ => (
                        source == Source::Cache && cold[plan].as_ref() == Some(&result),
                        None,
                    ),
                },
                Err(_) => (false, None),
            };
            let sample = Sample {
                phase,
                client: who,
                plan,
                submitted,
                answered,
                ok,
            };
            (sample, payload)
        })
        .collect()
}

/// Pipelined: write every submission, then read every result.
fn pipelined(
    client: &mut Client,
    who: usize,
    plans: &[RunPlan],
    order: &[usize],
    cold: &Payloads,
) -> Vec<Sample> {
    let sent: Vec<(usize, Instant, Option<u64>)> = order
        .iter()
        .map(|&plan| {
            let submitted = Instant::now();
            let id = client.submit(&plans[plan], Priority::Normal, false).ok();
            (plan, submitted, id)
        })
        .collect();
    sent.into_iter()
        .map(|(plan, submitted, id)| {
            let reply = id.map(|id| client.wait_result(id));
            let ok = match reply {
                // A hot plan must replay its cold payload bit for bit; a
                // new plan has no earlier payload to compare with.
                Some(Ok((_, result))) => match &cold.get(plan) {
                    Some(Some(first)) => **first == *result,
                    _ => true,
                },
                _ => false,
            };
            Sample {
                phase: Phase::Pipelined,
                client: who,
                plan,
                submitted,
                answered: Instant::now(),
                ok,
            }
        })
        .collect()
}

/// Run `work` on every connection at once, each on a thread of its own,
/// and collect what they return in connection order.
fn on_each_client<T: Send>(
    clients: &mut [Client],
    work: impl Fn(&mut Client, usize) -> Vec<T> + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(who, client)| {
                let work = &work;
                scope.spawn(move || work(client, who))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

/// Phases A, B and C back to back against the server at `addr`.
pub fn run_session(addr: SocketAddr, plan_set: &ServeSession) -> Result<SessionResult, String> {
    let connect = || Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(connect()?);
    }
    let mut control = connect()?;
    let mut stats = || control.stats().map_err(|e| format!("stats: {e}"));
    let plans = &plan_set.plans;
    let mut samples = Vec::with_capacity(plan_set.submissions());

    // Phase A: the connections take turns, one submission in flight.
    let mut cold: Payloads = vec![None; plan_set.n_cold];
    for plan in 0..plan_set.n_cold {
        let who = plan % CLIENTS;
        for (sample, payload) in
            closed_loop(&mut clients[who], who, Phase::Cold, plans, &[plan], &cold)
        {
            cold[plan] = payload;
            samples.push(sample);
        }
    }

    let before_warm = stats()?;
    let done = on_each_client(&mut clients, |client, who| {
        let order = share(&plan_set.replay, who);
        closed_loop(client, who, Phase::Warm, plans, &order, &cold)
    });
    samples.extend(done.into_iter().map(|(sample, _)| sample));
    let after_warm = stats()?;

    let mut pipelined_rounds = Vec::with_capacity(PIPELINED_ROUNDS);
    let round_len = plan_set.pipelined.len().div_ceil(PIPELINED_ROUNDS).max(1);
    for round in plan_set.pipelined.chunks(round_len) {
        let t0 = Instant::now();
        let done = on_each_client(&mut clients, |client, who| {
            pipelined(client, who, plans, &share(round, who), &cold)
        });
        pipelined_rounds.push((round.len(), t0.elapsed().as_secs_f64()));
        samples.extend(done);
    }
    let end = stats()?;

    Ok(SessionResult {
        samples,
        pipelined_rounds,
        before_warm,
        after_warm,
        end,
        unique_plans: plans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use mcs::serve::{ServeConfig, Server};

    #[test]
    fn shares_split_the_order_between_the_connections() {
        let order = [5, 6, 7, 8, 9];
        assert_eq!(share(&order, 0), vec![5, 7, 9]);
        assert_eq!(share(&order, 1), vec![6, 8]);
    }

    #[test]
    fn a_smoke_session_passes_its_own_checks() {
        let w = workload::by_name("serve_mix").unwrap().smoke();
        let session = w.serve_session(workload::DEFAULT_SEED);
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let result = run_session(server.local_addr(), &session).unwrap();
        server.shutdown();
        assert_eq!(result.samples.len(), session.submissions());
        for (name, ok) in result.checks() {
            assert!(ok, "{name}");
        }
        assert_eq!(
            result.end.cache_hits as usize,
            session.replay.len() + session.pipelined.len() - session.pipelined.len() / 5
        );
        assert_eq!(
            request_lines(&session).lines().count(),
            session.submissions()
        );
    }
}

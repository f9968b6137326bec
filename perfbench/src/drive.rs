//! The benchmark's own load generator: one thread and one pipelined
//! connection per client, speaking `wire::Request`/`Response` with
//! correlation ids.
//!
//! A *job* is one user-visible operation: a QUOTE or MENU, a purchase
//! (QUOTE then keyed COMMIT, re-quoted when a re-price expires the quote),
//! or a batch purchase (16 QUOTEs then one BATCH_COMMIT). Jobs are due
//! on a schedule (an open loop) and timed from when they were due, so a
//! stall also counts against the requests it held back.

use nimbus_market::PurchaseRequest;
use nimbus_server::wire::{self, BatchItemMsg, ErrorCode, QuoteMsg, Request, Response, SaleMsg};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub enum JobSpec {
    /// One QUOTE or MENU; done at its answer.
    Read(Request),
    /// QUOTE → keyed, buyer-attributed COMMIT paying the quoted price.
    Purchase {
        listing: String,
        request: PurchaseRequest,
        buyer: u64,
        nonce: u64,
    },
    /// QUOTEs → one BATCH_COMMIT of all of them.
    Batch {
        listing: String,
        requests: Vec<PurchaseRequest>,
        buyers: Vec<u64>,
        nonces: Vec<u64>,
    },
}

/// What one job produced.
#[derive(Clone, Debug, Default)]
pub struct JobResult {
    /// When the job was due, from the run start.
    pub begin: Duration,
    /// When the first request of the job was written.
    pub sent: Duration,
    /// When the job's first answer (a purchase's first QUOTE) arrived.
    pub first: Duration,
    pub end: Duration,
    pub ok: bool,
    pub error: Option<String>,
    /// The final answers: the quote or menu of a read, the sale of a
    /// purchase, the items of a batch.
    pub answer: Option<Response>,
    /// The quotes a purchase committed against (the last one for a
    /// re-quoted purchase), aligned with the sales.
    pub quotes: Vec<QuoteMsg>,
    /// Commits refused with `QuoteExpired` and re-quoted.
    pub requotes: u64,
}

impl JobResult {
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.begin)
    }

    /// Time to the first answer: the QUOTE leg of a purchase.
    pub fn first_latency(&self) -> Duration {
        self.first.saturating_sub(self.begin)
    }

    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.begin)
    }

    pub fn sales(&self) -> Vec<&SaleMsg> {
        match &self.answer {
            Some(Response::Commit(sale)) => vec![sale],
            Some(Response::BatchCommit(b)) => b
                .items
                .iter()
                .filter_map(|i| match i {
                    nimbus_server::BatchOutcomeMsg::Sale(s) => Some(s),
                    nimbus_server::BatchOutcomeMsg::Error { .. } => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// Per-job progress while it is in flight.
struct Live {
    idx: usize,
    quotes: Vec<Option<QuoteMsg>>,
    outstanding: usize,
    committing: bool,
}

/// One client connection speaking the wire codec directly: requests are
/// written as they come due, and answers are read with a bounded wait so
/// a slow answer never holds back the next due request (a blocking
/// receive would turn the open loop into a closed one).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_corr: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            next_corr: 1,
        })
    }

    fn send(&mut self, request: &Request) -> Result<u64, String> {
        let corr = self.next_corr;
        self.next_corr += 1;
        wire::write_frame(&mut self.stream, &request.encode_with_corr(corr))
            .map_err(|e| e.to_string())?;
        Ok(corr)
    }

    /// Waits at most `wait` for bytes, then returns every complete answer
    /// buffered so far.
    fn poll(&mut self, wait: Duration, answers: &mut Vec<(u64, Response)>) -> Result<(), String> {
        let wait = wait.max(Duration::from_micros(1));
        self.stream
            .set_read_timeout(Some(wait))
            .map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.to_string()),
        }
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len = u32::from_be_bytes([
                self.buf[at],
                self.buf[at + 1],
                self.buf[at + 2],
                self.buf[at + 3],
            ]) as usize;
            if len > wire::MAX_FRAME_LEN {
                return Err(format!(
                    "answer frame of {len} bytes exceeds the wire limit"
                ));
            }
            if self.buf.len() - at - 4 < len {
                break;
            }
            let payload = &self.buf[at + 4..at + 4 + len];
            answers.push(Response::decode_framed(payload).map_err(|e| e.to_string())?);
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(())
    }
}

/// The longest a connection waits for answers before re-checking the
/// schedule and the read deadline.
const POLL_SLICE: Duration = Duration::from_millis(20);
/// An answer that has not arrived this long after its request fails the
/// connection (the server stalled).
const ANSWER_DEADLINE: Duration = Duration::from_secs(10);

/// Runs `jobs` on one connection, job `i` due at `start + due[i]`,
/// returning one result per job in job order. A transport failure fails
/// every unfinished job.
pub fn run(addr: SocketAddr, jobs: &[JobSpec], due: &[Duration], start: Instant) -> Vec<JobResult> {
    let mut results = vec![JobResult::default(); jobs.len()];
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            fail_all(&mut results, &format!("connect: {e}"));
            return results;
        }
    };
    let mut live: BTreeMap<u64, (usize, usize)> = BTreeMap::new(); // corr → (slot, item)
    let mut slots: Vec<Live> = Vec::new();
    let mut answers: Vec<(u64, Response)> = Vec::new();
    let mut next = 0usize;
    let mut active = 0usize;
    let mut done = 0usize;
    let mut last_progress = Instant::now();
    while done < jobs.len() {
        // Start every job that is due.
        let now = start.elapsed();
        let next_due = due.get(next).copied();
        if next_due.is_some_and(|d| now >= d) {
            results[next].begin = due[next];
            let requests = first_requests(&jobs[next]);
            let slot = slots.len();
            slots.push(Live {
                idx: next,
                quotes: vec![None; requests.len()],
                outstanding: requests.len(),
                committing: false,
            });
            for (item, r) in requests.iter().enumerate() {
                match conn.send(r) {
                    Ok(corr) => {
                        live.insert(corr, (slot, item));
                    }
                    Err(e) => {
                        fail_all(&mut results, &format!("send: {e}"));
                        return results;
                    }
                }
            }
            results[next].sent = start.elapsed();
            next += 1;
            active += 1;
            continue;
        }
        let wait = match next_due {
            Some(d) => d.saturating_sub(now).min(POLL_SLICE),
            None => POLL_SLICE,
        };
        if active == 0 {
            std::thread::sleep(wait);
            continue;
        }
        if let Err(e) = conn.poll(wait, &mut answers) {
            fail_all(&mut results, &format!("receive: {e}"));
            return results;
        }
        if answers.is_empty() {
            if last_progress.elapsed() > ANSWER_DEADLINE {
                fail_all(&mut results, "no answer within the deadline");
                return results;
            }
            continue;
        }
        last_progress = Instant::now();
        let now = start.elapsed();
        for (corr, response) in answers.drain(..) {
            let Some((slot, item)) = live.remove(&corr) else {
                fail_all(
                    &mut results,
                    &format!("answer to unknown correlation id {corr}"),
                );
                return results;
            };
            let state = &mut slots[slot];
            let job = &jobs[state.idx];
            let result = &mut results[state.idx];
            if result.first.is_zero() {
                result.first = now;
            }
            match step(job, state, item, result, response) {
                Step::Wait => {}
                Step::Send(requests) => {
                    for r in &requests {
                        match conn.send(r) {
                            Ok(c) => {
                                live.insert(c, (slot, 0));
                            }
                            Err(e) => {
                                fail_all(&mut results, &format!("send: {e}"));
                                return results;
                            }
                        }
                    }
                }
                Step::Finish => {
                    result.end = now;
                    active -= 1;
                    done += 1;
                }
            }
        }
    }
    results
}

enum Step {
    Wait,
    Send(Vec<Request>),
    Finish,
}

fn quote_request(listing: &str, request: PurchaseRequest) -> Request {
    Request::Quote {
        listing: Some(listing.to_string()),
        request,
    }
}

fn first_requests(job: &JobSpec) -> Vec<Request> {
    match job {
        JobSpec::Read(r) => vec![r.clone()],
        JobSpec::Purchase {
            listing, request, ..
        } => vec![quote_request(listing, *request)],
        JobSpec::Batch {
            listing, requests, ..
        } => requests
            .iter()
            .map(|r| quote_request(listing, *r))
            .collect(),
    }
}

fn step(
    job: &JobSpec,
    state: &mut Live,
    item: usize,
    result: &mut JobResult,
    response: Response,
) -> Step {
    let fail = |result: &mut JobResult, why: String| {
        result.ok = false;
        result.error.get_or_insert(why);
        Step::Finish
    };
    match job {
        JobSpec::Read(_) => {
            result.ok = matches!(response, Response::Quote(_) | Response::Menu(_));
            if !result.ok {
                result.error = Some(format!("{response:?}"));
            }
            result.answer = Some(response);
            Step::Finish
        }
        JobSpec::Purchase {
            listing,
            request,
            buyer,
            nonce,
        } => match response {
            Response::Quote(q) => {
                let commit = Request::Commit {
                    listing: Some(listing.clone()),
                    x: q.x,
                    snapshot_epoch: q.snapshot_epoch,
                    payment: q.price,
                    nonce: Some(*nonce),
                    buyer: Some(*buyer),
                };
                result.quotes = vec![q];
                Step::Send(vec![commit])
            }
            Response::Commit(_) => {
                result.ok = true;
                result.answer = Some(response);
                Step::Finish
            }
            Response::Error {
                code: ErrorCode::QuoteExpired,
                ..
            } => {
                result.requotes += 1;
                Step::Send(vec![quote_request(listing, *request)])
            }
            other => fail(result, format!("{other:?}")),
        },
        JobSpec::Batch {
            listing,
            buyers,
            nonces,
            ..
        } => {
            if state.committing {
                let all_sold = matches!(&response, Response::BatchCommit(b)
                    if b.items.len() == nonces.len()
                        && b.items.iter().all(|i| matches!(i, nimbus_server::BatchOutcomeMsg::Sale(_))));
                result.ok = all_sold;
                if !all_sold {
                    result.error = Some(format!("{response:?}"));
                }
                result.answer = Some(response);
                return Step::Finish;
            }
            let Response::Quote(q) = response else {
                return fail(result, format!("{response:?}"));
            };
            // Quotes answer in any order; each lands in its request's slot
            // so the batch commits them in request order.
            state.quotes[item] = Some(q);
            state.outstanding -= 1;
            if state.outstanding > 0 {
                return Step::Wait;
            }
            state.committing = true;
            let quotes: Vec<QuoteMsg> = state.quotes.iter().flatten().cloned().collect();
            let items = quotes
                .iter()
                .zip(nonces.iter().zip(buyers))
                .map(|(q, (n, b))| BatchItemMsg {
                    x: q.x,
                    snapshot_epoch: q.snapshot_epoch,
                    payment: q.price,
                    nonce: Some(*n),
                    buyer: Some(*b),
                })
                .collect();
            result.quotes = quotes;
            Step::Send(vec![Request::BatchCommit {
                listing: Some(listing.clone()),
                items,
            }])
        }
    }
}

fn fail_all(results: &mut [JobResult], why: &str) {
    for r in results.iter_mut().filter(|r| !r.ok && r.error.is_none()) {
        r.error = Some(why.to_string());
    }
}
